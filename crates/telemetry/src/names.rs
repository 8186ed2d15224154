//! The metric-name registry: every subsystem/name pair a production
//! crate emits, declared once.
//!
//! Call sites register instruments through these constants
//! (`m.counter(names::controller::SUBSYSTEM, names::controller::PACKET_INS)`),
//! and each `NAME = "name";` line below yields both the constant and its
//! [`DECLARED`] row. The observe layer's alert keys are resolved against
//! the same table by a unit test, so a renamed counter cannot silently
//! detach an alert rule, and the e2e observability gate asserts that
//! every pair a full-stack run emits satisfies [`is_declared`].
//!
//! A metric is declared here only while something reads it by name: a
//! test assertion, an alert rule, a report row or the ledger.

/// Declares one module per subsystem (`SUBSYSTEM` is the module's own
/// name) and the [`DECLARED`] table, from one line per metric.
macro_rules! declare_metrics {
    ($(
        $(#[$sub_doc:meta])*
        $sub:ident { $( $(#[$doc:meta])* $konst:ident = $name:literal; )* }
    )*) => {
        $(
            $(#[$sub_doc])*
            pub mod $sub {
                /// Subsystem label.
                pub const SUBSYSTEM: &str = stringify!($sub);
                $( $(#[$doc])* pub const $konst: &str = $name; )*
            }
        )*

        /// Every fixed subsystem/name pair production code emits
        /// (persist's per-journal names are declared by prefix/suffix
        /// instead — see [`is_declared`]).
        pub const DECLARED: &[(&str, &str)] = &[
            $( $( ($sub::SUBSYSTEM, $sub::$konst), )* )*
        ];
    };
}

declare_metrics! {
    /// `controller/*` — the ONOS-like cluster pipeline.
    controller {
        /// Packet-ins handled by the cluster.
        PACKET_INS = "packet_ins";
        /// Flow-mods emitted southbound.
        FLOW_MODS = "flow_mods";
        /// Statistics replies settled.
        STATS_REPLIES = "stats_replies";
        /// Flow-removed notifications handled.
        FLOW_REMOVEDS = "flow_removeds";
        /// Packet-in service latency (wall nanoseconds).
        PACKET_IN_NS = "packet_in_ns";
        /// Poll requests issued by the statistics poller.
        STATS_POLLS_ISSUED = "stats_polls_issued";
    }

    /// `failover/*` — mastership re-election under instance faults.
    failover {
        /// Re-election rounds run.
        ELECTIONS = "elections";
        /// Switch masterships moved across instances.
        SWITCHES_MOVED = "switches_moved";
        /// Controller instances currently crashed (gauge).
        INSTANCES_DOWN = "instances_down";
    }

    /// `retry/*` — timeout/retry/degraded-mode accounting.
    retry {
        /// Poller stats requests retried.
        STATS_RETRIES = "stats_retries";
        /// Poller stats requests timed out.
        STATS_TIMEOUTS = "stats_timeouts";
        /// Poller stats requests abandoned.
        STATS_GAVE_UP = "stats_gave_up";
        /// Athena SB stats requests timed out.
        SB_STATS_TIMEOUTS = "sb_stats_timeouts";
        /// Athena SB stats requests abandoned.
        SB_STATS_GAVE_UP = "sb_stats_gave_up";
        /// Store writes handed off to a non-preferred replica.
        STORE_WRITE_HANDOFFS = "store_write_handoffs";
        /// Store reads served below full replication.
        STORE_DEGRADED_READS = "store_degraded_reads";
    }

    /// `store/*` — the replicated document store.
    store {
        /// Insert latency (wall nanoseconds).
        INSERT_NS = "insert_ns";
        /// Find latency (wall nanoseconds).
        FIND_NS = "find_ns";
        /// Per-replica write operations.
        REPLICA_WRITES = "replica_writes";
        /// Document deletions.
        DELETES = "deletes";
        /// Store nodes currently down (gauge).
        NODES_DOWN = "nodes_down";
    }

    /// `core/*` — Athena's northbound/southbound elements.
    core {
        /// Feature-generation latency per SB instance (wall nanoseconds).
        FEATURE_GEN_NS = "feature_gen_ns";
        /// Record-dispatch latency per SB instance (wall nanoseconds).
        DISPATCH_NS = "dispatch_ns";
        /// Feature records dispatched.
        FEATURE_RECORDS = "feature_records";
        /// Model fit latency (wall nanoseconds).
        FIT_NS = "fit_ns";
        /// Detection models trained.
        MODELS_TRAINED = "models_trained";
    }

    /// `compute/*` — the Spark-like compute cluster.
    compute {
        /// Per-task latency (wall nanoseconds).
        TASK_NS = "task_ns";
        /// Per-job latency (wall nanoseconds).
        JOB_NS = "job_ns";
        /// Tasks executed.
        TASKS = "tasks";
    }

    /// `dataplane/*` — the simulated network.
    dataplane {
        /// Per-step latency (wall nanoseconds).
        STEP_NS = "step_ns";
        /// Packet-ins punted to the control plane.
        PACKET_INS = "packet_ins";
        /// Flow-removed notifications generated.
        FLOW_REMOVEDS = "flow_removeds";
        /// Bytes delivered by links.
        DELIVERED_BYTES = "delivered_bytes";
        /// Bytes dropped by contention or downed links.
        DROPPED_BYTES = "dropped_bytes";
        /// Per-switch flow-table lookups (gauge, mirrored per tick).
        TABLE_LOOKUPS = "table_lookups";
        /// Links whose effective capacity is currently below 1.0 (gauge).
        LINKS_DEGRADED = "links_degraded";
        /// Switch reboots observed by the dataplane.
        SWITCH_REBOOTS = "switch_reboots";
        /// Expiry wake-ups armed on the timing wheel.
        WHEEL_ARMED = "wheel_armed";
        /// Wheel wake-ups whose deadline had moved later (lazy cancellation).
        WHEEL_SPURIOUS = "wheel_spurious";
    }

    /// `scale/*` — the dataplane engine's shard plan and routing shape
    /// (tick count and latency are `dataplane/step_ns`).
    scale {
        /// Shard count the engine partitioned the topology into (gauge).
        SHARDS = "shards";
        /// Packet-in batches handed to the controller (one per punt round;
        /// zero under the synchronous discipline).
        PUNT_BATCHES = "punt_batches";
        /// Packet-ins delivered inside batches.
        BATCHED_PACKET_INS = "batched_packet_ins";
        /// Packets that crossed a shard boundary mid-walk.
        CROSS_SHARD_HANDOFFS = "cross_shard_handoffs";
        /// Routing rounds run, summed over ticks (a synchronous routing
        /// pass counts as one).
        ROUTING_ROUNDS = "routing_rounds";
    }

    /// `faults/*` — the chaos injector and channel.
    faults {
        /// Fault events injected.
        INJECTED = "injected";
        /// Switch reboots injected.
        SWITCH_REBOOTS = "switch_reboots";
        /// Controller crash/rejoin events injected.
        CONTROLLER_EVENTS = "controller_events";
        /// Message-fault profile changes applied.
        MESSAGE_PROFILE_CHANGES = "message_profile_changes";
        /// Southbound messages dropped by the chaos channel.
        MSGS_DROPPED = "msgs_dropped";
        /// Southbound messages duplicated by the chaos channel.
        MSGS_DUPLICATED = "msgs_duplicated";
        /// Southbound messages delayed by the chaos channel.
        MSGS_DELAYED = "msgs_delayed";
    }

    /// `ml/*` — the algorithm library.
    ml {
        /// Per-algorithm fit latency (wall nanoseconds).
        FIT_NS = "fit_ns";
    }

    /// `stream/*` — the online learning pipeline (incremental windows,
    /// retrain loop, model hot-swap).
    stream {
        /// Samples pushed into ring-buffer feature windows.
        WINDOW_UPDATES = "window_updates";
        /// Samples evicted as windows slid past them.
        WINDOW_EVICTIONS = "window_evictions";
        /// Retrain/swap attempts abandoned (snapshot round-trip failures).
        SWAP_FAILURES = "swap_failures";
        /// Gap between consecutive detections (virtual microseconds) —
        /// the continuity signal the ≤ 15 s miss-window gate watches.
        DETECTION_GAP_US = "detection_gap_us";
    }
}

/// `persist/*` — WAL/checkpoint durability. Metric names here are
/// `<journal>_<suffix>`, one set per journal prefix.
pub mod persist {
    /// Subsystem label.
    pub const SUBSYSTEM: &str = "persist";
    /// Journal prefixes production code opens.
    pub const PREFIXES: &[&str] = &["store", "controller", "model"];
    /// Per-journal metric suffixes (appended to the prefix).
    pub const SUFFIXES: &[&str] = &[
        APPEND_NS_SUFFIX,
        CHECKPOINT_BYTES_SUFFIX,
        WAL_RECORDS_SUFFIX,
        WAL_BYTES_SUFFIX,
        CHECKPOINTS_SUFFIX,
        RECORDS_REPLAYED_SUFFIX,
        TAILS_TRUNCATED_SUFFIX,
    ];
    /// WAL append latency (wall nanoseconds).
    pub const APPEND_NS_SUFFIX: &str = "_append_ns";
    /// Checkpoint sizes (bytes).
    pub const CHECKPOINT_BYTES_SUFFIX: &str = "_checkpoint_bytes";
    /// WAL records appended.
    pub const WAL_RECORDS_SUFFIX: &str = "_wal_records";
    /// WAL bytes appended.
    pub const WAL_BYTES_SUFFIX: &str = "_wal_bytes";
    /// Checkpoints written.
    pub const CHECKPOINTS_SUFFIX: &str = "_checkpoints";
    /// Records replayed during recovery.
    pub const RECORDS_REPLAYED_SUFFIX: &str = "_records_replayed";
    /// Torn/corrupt WAL tails truncated during recovery.
    pub const TAILS_TRUNCATED_SUFFIX: &str = "_tails_truncated";
}

/// Whether production code declares the `subsystem/name` pair.
/// Instances are not part of the key — strip them before calling.
pub fn is_declared(subsystem: &str, name: &str) -> bool {
    if subsystem == persist::SUBSYSTEM {
        return persist::PREFIXES.iter().any(|p| {
            name.strip_prefix(p)
                .is_some_and(|rest| persist::SUFFIXES.contains(&rest))
        });
    }
    DECLARED.iter().any(|&(s, n)| s == subsystem && n == name)
}

/// The declared pairs a report's keys violate (empty when every key is
/// declared). The registry test in the observability gate asserts this
/// is empty after a full-stack run.
pub fn undeclared(report: &crate::TelemetryReport) -> Vec<String> {
    let mut out: Vec<String> = report
        .counters
        .iter()
        .map(|e| &e.key)
        .chain(report.gauges.iter().map(|e| &e.key))
        .chain(report.histograms.iter().map(|e| &e.key))
        .filter(|k| !is_declared(&k.subsystem, &k.name))
        .map(|k| k.label())
        .collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn declared_pairs_are_unique() {
        let mut pairs: Vec<_> = DECLARED.to_vec();
        pairs.sort_unstable();
        let before = pairs.len();
        pairs.dedup();
        assert_eq!(pairs.len(), before, "duplicate declared metric pair");
    }

    #[test]
    fn persist_names_are_declared_by_prefix_and_suffix() {
        assert!(is_declared("persist", "store_wal_records"));
        assert!(is_declared("persist", "controller_append_ns"));
        assert!(!is_declared("persist", "rogue_wal_records"));
        assert!(!is_declared("persist", "store_rogue"));
    }

    #[test]
    fn undeclared_flags_rogue_keys_only() {
        let tel = Telemetry::new();
        let m = tel.metrics();
        m.counter(dataplane::SUBSYSTEM, dataplane::PACKET_INS).inc();
        m.counter("rogue", "metric").inc();
        let bad = undeclared(&tel.report());
        assert_eq!(bad, vec!["rogue/metric".to_string()]);
    }
}
