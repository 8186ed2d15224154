//! The metric-name registry: every subsystem/name pair a production
//! crate emits, declared as constants in one place.
//!
//! Call sites register instruments through these constants
//! (`m.counter(names::controller::SUBSYSTEM, names::controller::PACKET_INS)`),
//! and the observe layer's series and alert keys reference the same
//! strings — so a renamed counter cannot silently detach an alert rule.
//! The e2e observability gate asserts that every pair a full-stack run
//! emits satisfies [`is_declared`].

/// `controller/*` — the ONOS-like cluster pipeline.
pub mod controller {
    /// Subsystem label.
    pub const SUBSYSTEM: &str = "controller";
    /// Packet-ins handled by the cluster.
    pub const PACKET_INS: &str = "packet_ins";
    /// Flow-mods emitted southbound.
    pub const FLOW_MODS: &str = "flow_mods";
    /// Statistics replies settled.
    pub const STATS_REPLIES: &str = "stats_replies";
    /// Flow-removed notifications handled.
    pub const FLOW_REMOVEDS: &str = "flow_removeds";
    /// Packet-in service latency (wall nanoseconds).
    pub const PACKET_IN_NS: &str = "packet_in_ns";
    /// Poll requests issued by the statistics poller.
    pub const STATS_POLLS_ISSUED: &str = "stats_polls_issued";
    /// Rules registered with the flow-rule service.
    pub const RULES_INSTALLED: &str = "rules_installed";
    /// Rules removed from the flow-rule service.
    pub const RULES_REMOVED: &str = "rules_removed";
}

/// `failover/*` — mastership re-election under instance faults.
pub mod failover {
    /// Subsystem label.
    pub const SUBSYSTEM: &str = "failover";
    /// Re-election rounds run.
    pub const ELECTIONS: &str = "elections";
    /// Switch masterships moved across instances.
    pub const SWITCHES_MOVED: &str = "switches_moved";
    /// Controller instances currently crashed (gauge).
    pub const INSTANCES_DOWN: &str = "instances_down";
}

/// `retry/*` — timeout/retry/degraded-mode accounting.
pub mod retry {
    /// Subsystem label.
    pub const SUBSYSTEM: &str = "retry";
    /// Poller stats requests retried.
    pub const STATS_RETRIES: &str = "stats_retries";
    /// Poller stats requests timed out.
    pub const STATS_TIMEOUTS: &str = "stats_timeouts";
    /// Poller stats requests abandoned.
    pub const STATS_GAVE_UP: &str = "stats_gave_up";
    /// Athena SB stats requests timed out.
    pub const SB_STATS_TIMEOUTS: &str = "sb_stats_timeouts";
    /// Athena SB stats requests retried.
    pub const SB_STATS_RETRIES: &str = "sb_stats_retries";
    /// Athena SB stats requests abandoned.
    pub const SB_STATS_GAVE_UP: &str = "sb_stats_gave_up";
    /// Store writes handed off to a non-preferred replica.
    pub const STORE_WRITE_HANDOFFS: &str = "store_write_handoffs";
    /// Store writes that failed to reach quorum.
    pub const STORE_QUORUM_FAILURES: &str = "store_quorum_failures";
    /// Store reads served below full replication.
    pub const STORE_DEGRADED_READS: &str = "store_degraded_reads";
}

/// `store/*` — the replicated document store.
pub mod store {
    /// Subsystem label.
    pub const SUBSYSTEM: &str = "store";
    /// Insert latency (wall nanoseconds).
    pub const INSERT_NS: &str = "insert_ns";
    /// Find latency (wall nanoseconds).
    pub const FIND_NS: &str = "find_ns";
    /// Aggregate latency (wall nanoseconds).
    pub const AGGREGATE_NS: &str = "aggregate_ns";
    /// Per-replica write operations.
    pub const REPLICA_WRITES: &str = "replica_writes";
    /// Document deletions.
    pub const DELETES: &str = "deletes";
    /// Store nodes currently down (gauge).
    pub const NODES_DOWN: &str = "nodes_down";
}

/// `core/*` — Athena's northbound/southbound elements.
pub mod core {
    /// Subsystem label.
    pub const SUBSYSTEM: &str = "core";
    /// Feature-generation latency per SB instance (wall nanoseconds).
    pub const FEATURE_GEN_NS: &str = "feature_gen_ns";
    /// Record-dispatch latency per SB instance (wall nanoseconds).
    pub const DISPATCH_NS: &str = "dispatch_ns";
    /// Feature records dispatched.
    pub const FEATURE_RECORDS: &str = "feature_records";
    /// Model fit latency (wall nanoseconds).
    pub const FIT_NS: &str = "fit_ns";
    /// Detection models trained.
    pub const MODELS_TRAINED: &str = "models_trained";
}

/// `compute/*` — the Spark-like compute cluster.
pub mod compute {
    /// Subsystem label.
    pub const SUBSYSTEM: &str = "compute";
    /// Per-task latency (wall nanoseconds).
    pub const TASK_NS: &str = "task_ns";
    /// Per-job latency (wall nanoseconds).
    pub const JOB_NS: &str = "job_ns";
    /// Tasks executed.
    pub const TASKS: &str = "tasks";
}

/// `dataplane/*` — the simulated network.
pub mod dataplane {
    /// Subsystem label.
    pub const SUBSYSTEM: &str = "dataplane";
    /// Per-step latency (wall nanoseconds).
    pub const STEP_NS: &str = "step_ns";
    /// Packet-ins punted to the control plane.
    pub const PACKET_INS: &str = "packet_ins";
    /// Flow-removed notifications generated.
    pub const FLOW_REMOVEDS: &str = "flow_removeds";
    /// Bytes delivered by links.
    pub const DELIVERED_BYTES: &str = "delivered_bytes";
    /// Bytes dropped by contention or downed links.
    pub const DROPPED_BYTES: &str = "dropped_bytes";
    /// Per-switch flow-table lookups (gauge, mirrored per tick).
    pub const TABLE_LOOKUPS: &str = "table_lookups";
    /// Per-switch flow-table matches (gauge, mirrored per tick).
    pub const TABLE_MATCHES: &str = "table_matches";
    /// Links whose effective capacity is currently below 1.0 (gauge).
    pub const LINKS_DEGRADED: &str = "links_degraded";
    /// Switch reboots observed by the dataplane.
    pub const SWITCH_REBOOTS: &str = "switch_reboots";
    /// Bytes tail-dropped by stochastic link-model queue drops.
    pub const LINK_QUEUE_DROPS: &str = "link_queue_drops";
    /// Per-tick link latency draws (microseconds, histogram).
    pub const LINK_LATENCY_US: &str = "link_latency_us";
    /// Expiry wake-ups armed on the timing wheel.
    pub const WHEEL_ARMED: &str = "wheel_armed";
    /// Wheel wake-ups that found a due flow entry.
    pub const WHEEL_FIRED: &str = "wheel_fired";
    /// Wheel wake-ups whose deadline had moved later (lazy cancellation).
    pub const WHEEL_SPURIOUS: &str = "wheel_spurious";
}

/// `scale/*` — the dataplane engine's shard plan and routing shape
/// (tick count and latency are `dataplane/step_ns`).
pub mod scale {
    /// Subsystem label.
    pub const SUBSYSTEM: &str = "scale";
    /// Shard count the engine partitioned the topology into (gauge).
    pub const SHARDS: &str = "shards";
    /// Packet-in batches handed to the controller (one per punt round;
    /// zero under the synchronous discipline).
    pub const PUNT_BATCHES: &str = "punt_batches";
    /// Packet-ins delivered inside batches.
    pub const BATCHED_PACKET_INS: &str = "batched_packet_ins";
    /// Packets that crossed a shard boundary mid-walk.
    pub const CROSS_SHARD_HANDOFFS: &str = "cross_shard_handoffs";
    /// Routing rounds run, summed over ticks (a synchronous routing
    /// pass counts as one).
    pub const ROUTING_ROUNDS: &str = "routing_rounds";
}

/// `workloads/*` — the unseen-attack generator family.
pub mod workloads {
    /// Subsystem label.
    pub const SUBSYSTEM: &str = "workloads";
    /// Attack traces generated.
    pub const ATTACKS_GENERATED: &str = "attacks_generated";
    /// Flows emitted across all generated traces.
    pub const FLOWS_GENERATED: &str = "flows_generated";
    /// Held-out (unseen-family) traces generated.
    pub const HELD_OUT_GENERATED: &str = "held_out_generated";
    /// Traces that carried a non-identity mutation draw.
    pub const MUTATIONS_APPLIED: &str = "mutations_applied";
}

/// `faults/*` — the chaos injector and channel.
pub mod faults {
    /// Subsystem label.
    pub const SUBSYSTEM: &str = "faults";
    /// Fault events injected.
    pub const INJECTED: &str = "injected";
    /// Link state changes injected.
    pub const LINK_EVENTS: &str = "link_events";
    /// Switch reboots injected.
    pub const SWITCH_REBOOTS: &str = "switch_reboots";
    /// Controller crash/rejoin events injected.
    pub const CONTROLLER_EVENTS: &str = "controller_events";
    /// Store node up/down events injected.
    pub const STORE_EVENTS: &str = "store_events";
    /// Message-fault profile changes applied.
    pub const MESSAGE_PROFILE_CHANGES: &str = "message_profile_changes";
    /// Southbound messages dropped by the chaos channel.
    pub const MSGS_DROPPED: &str = "msgs_dropped";
    /// Southbound messages duplicated by the chaos channel.
    pub const MSGS_DUPLICATED: &str = "msgs_duplicated";
    /// Southbound messages delayed by the chaos channel.
    pub const MSGS_DELAYED: &str = "msgs_delayed";
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
        CHECKPOINT_NS_SUFFIX,
        CHECKPOINT_BYTES_SUFFIX,
        WAL_RECORDS_SUFFIX,
        WAL_BYTES_SUFFIX,
        CHECKPOINTS_SUFFIX,
        RECORDS_REPLAYED_SUFFIX,
        TAILS_TRUNCATED_SUFFIX,
    ];
    /// WAL append latency (wall nanoseconds).
    pub const APPEND_NS_SUFFIX: &str = "_append_ns";
    /// Checkpoint write latency (wall nanoseconds).
    pub const CHECKPOINT_NS_SUFFIX: &str = "_checkpoint_ns";
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

/// `apps/*` — the detection applications.
pub mod apps {
    /// Subsystem label.
    pub const SUBSYSTEM: &str = "apps";
    /// DDoS app training latency (wall nanoseconds).
    pub const DDOS_TRAIN_NS: &str = "ddos_train_ns";
    /// DDoS app test latency (wall nanoseconds).
    pub const DDOS_TEST_NS: &str = "ddos_test_ns";
}

/// `ml/*` — the algorithm library.
pub mod ml {
    /// Subsystem label.
    pub const SUBSYSTEM: &str = "ml";
    /// Per-algorithm fit latency (wall nanoseconds).
    pub const FIT_NS: &str = "fit_ns";
}

/// `stream/*` — the online learning pipeline (incremental windows,
/// retrain loop, model hot-swap).
pub mod stream {
    /// Subsystem label.
    pub const SUBSYSTEM: &str = "stream";
    /// Samples pushed into ring-buffer feature windows.
    pub const WINDOW_UPDATES: &str = "window_updates";
    /// Samples evicted as windows slid past them.
    pub const WINDOW_EVICTIONS: &str = "window_evictions";
    /// Online `partial_fit` steps applied to the candidate model.
    pub const PARTIAL_FITS: &str = "partial_fits";
    /// Background retrain latency (wall nanoseconds).
    pub const RETRAIN_NS: &str = "retrain_ns";
    /// Candidate models retrained on the live window.
    pub const RETRAINS: &str = "retrains";
    /// Candidate models hot-swapped into the detector.
    pub const SWAPS: &str = "swaps";
    /// Retrain/swap attempts abandoned (snapshot round-trip failures).
    pub const SWAP_FAILURES: &str = "swap_failures";
    /// Gap between consecutive detections (virtual microseconds) —
    /// the continuity signal the ≤ 15 s miss-window gate watches.
    pub const DETECTION_GAP_US: &str = "detection_gap_us";
    /// Labeled points currently held in the live window.
    pub const LIVE_POINTS: &str = "live_points";
}

/// Every fixed subsystem/name pair production code emits (persist's
/// per-journal names are declared by prefix/suffix instead — see
/// [`is_declared`]).
pub const DECLARED: &[(&str, &str)] = &[
    (controller::SUBSYSTEM, controller::PACKET_INS),
    (controller::SUBSYSTEM, controller::FLOW_MODS),
    (controller::SUBSYSTEM, controller::STATS_REPLIES),
    (controller::SUBSYSTEM, controller::FLOW_REMOVEDS),
    (controller::SUBSYSTEM, controller::PACKET_IN_NS),
    (controller::SUBSYSTEM, controller::STATS_POLLS_ISSUED),
    (controller::SUBSYSTEM, controller::RULES_INSTALLED),
    (controller::SUBSYSTEM, controller::RULES_REMOVED),
    (failover::SUBSYSTEM, failover::ELECTIONS),
    (failover::SUBSYSTEM, failover::SWITCHES_MOVED),
    (failover::SUBSYSTEM, failover::INSTANCES_DOWN),
    (retry::SUBSYSTEM, retry::STATS_RETRIES),
    (retry::SUBSYSTEM, retry::STATS_TIMEOUTS),
    (retry::SUBSYSTEM, retry::STATS_GAVE_UP),
    (retry::SUBSYSTEM, retry::SB_STATS_TIMEOUTS),
    (retry::SUBSYSTEM, retry::SB_STATS_RETRIES),
    (retry::SUBSYSTEM, retry::SB_STATS_GAVE_UP),
    (retry::SUBSYSTEM, retry::STORE_WRITE_HANDOFFS),
    (retry::SUBSYSTEM, retry::STORE_QUORUM_FAILURES),
    (retry::SUBSYSTEM, retry::STORE_DEGRADED_READS),
    (store::SUBSYSTEM, store::INSERT_NS),
    (store::SUBSYSTEM, store::FIND_NS),
    (store::SUBSYSTEM, store::AGGREGATE_NS),
    (store::SUBSYSTEM, store::REPLICA_WRITES),
    (store::SUBSYSTEM, store::DELETES),
    (store::SUBSYSTEM, store::NODES_DOWN),
    (core::SUBSYSTEM, core::FEATURE_GEN_NS),
    (core::SUBSYSTEM, core::DISPATCH_NS),
    (core::SUBSYSTEM, core::FEATURE_RECORDS),
    (core::SUBSYSTEM, core::FIT_NS),
    (core::SUBSYSTEM, core::MODELS_TRAINED),
    (compute::SUBSYSTEM, compute::TASK_NS),
    (compute::SUBSYSTEM, compute::JOB_NS),
    (compute::SUBSYSTEM, compute::TASKS),
    (dataplane::SUBSYSTEM, dataplane::STEP_NS),
    (dataplane::SUBSYSTEM, dataplane::PACKET_INS),
    (dataplane::SUBSYSTEM, dataplane::FLOW_REMOVEDS),
    (dataplane::SUBSYSTEM, dataplane::DELIVERED_BYTES),
    (dataplane::SUBSYSTEM, dataplane::DROPPED_BYTES),
    (dataplane::SUBSYSTEM, dataplane::TABLE_LOOKUPS),
    (dataplane::SUBSYSTEM, dataplane::TABLE_MATCHES),
    (dataplane::SUBSYSTEM, dataplane::LINKS_DEGRADED),
    (dataplane::SUBSYSTEM, dataplane::SWITCH_REBOOTS),
    (dataplane::SUBSYSTEM, dataplane::LINK_QUEUE_DROPS),
    (dataplane::SUBSYSTEM, dataplane::LINK_LATENCY_US),
    (dataplane::SUBSYSTEM, dataplane::WHEEL_ARMED),
    (dataplane::SUBSYSTEM, dataplane::WHEEL_FIRED),
    (dataplane::SUBSYSTEM, dataplane::WHEEL_SPURIOUS),
    (scale::SUBSYSTEM, scale::SHARDS),
    (scale::SUBSYSTEM, scale::PUNT_BATCHES),
    (scale::SUBSYSTEM, scale::BATCHED_PACKET_INS),
    (scale::SUBSYSTEM, scale::CROSS_SHARD_HANDOFFS),
    (scale::SUBSYSTEM, scale::ROUTING_ROUNDS),
    (workloads::SUBSYSTEM, workloads::ATTACKS_GENERATED),
    (workloads::SUBSYSTEM, workloads::FLOWS_GENERATED),
    (workloads::SUBSYSTEM, workloads::HELD_OUT_GENERATED),
    (workloads::SUBSYSTEM, workloads::MUTATIONS_APPLIED),
    (faults::SUBSYSTEM, faults::INJECTED),
    (faults::SUBSYSTEM, faults::LINK_EVENTS),
    (faults::SUBSYSTEM, faults::SWITCH_REBOOTS),
    (faults::SUBSYSTEM, faults::CONTROLLER_EVENTS),
    (faults::SUBSYSTEM, faults::STORE_EVENTS),
    (faults::SUBSYSTEM, faults::MESSAGE_PROFILE_CHANGES),
    (faults::SUBSYSTEM, faults::MSGS_DROPPED),
    (faults::SUBSYSTEM, faults::MSGS_DUPLICATED),
    (faults::SUBSYSTEM, faults::MSGS_DELAYED),
    (apps::SUBSYSTEM, apps::DDOS_TRAIN_NS),
    (apps::SUBSYSTEM, apps::DDOS_TEST_NS),
    (ml::SUBSYSTEM, ml::FIT_NS),
    (stream::SUBSYSTEM, stream::WINDOW_UPDATES),
    (stream::SUBSYSTEM, stream::WINDOW_EVICTIONS),
    (stream::SUBSYSTEM, stream::PARTIAL_FITS),
    (stream::SUBSYSTEM, stream::RETRAIN_NS),
    (stream::SUBSYSTEM, stream::RETRAINS),
    (stream::SUBSYSTEM, stream::SWAPS),
    (stream::SUBSYSTEM, stream::SWAP_FAILURES),
    (stream::SUBSYSTEM, stream::DETECTION_GAP_US),
    (stream::SUBSYSTEM, stream::LIVE_POINTS),
];

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
