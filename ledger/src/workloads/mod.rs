//! The four workloads and what they share: the rep record, the stepping
//! loop both engines are driven with, and the extraction of per-layer
//! numbers from a rep's spans.

pub mod cbench_saturate;
pub mod ddos_detect;
pub mod fat_tree_scale;
pub mod nb_analytics;

use crate::link::{self, LINK_SPANS};
use crate::stats::{median, quantile, tail};
use crate::trace::{SharedTracer, Tracer};
use athena_controller::ControllerCluster;
use athena_core::{Athena, AthenaConfig};
use athena_dataplane::{
    ControllerLink, Network, NetworkCounters, ShardedNetwork, SimSwitch, Topology,
};
use athena_observe::Observe;
use athena_telemetry::Telemetry;
use athena_types::{Dpid, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Workload names, in the order they are run and reported.
pub const NAMES: [&str; 4] = [
    "ddos_detect",
    "cbench_saturate",
    "fat_tree_scale",
    "nb_analytics",
];

/// The variable `athena_parallel::threads()` reads, per job, for the
/// pool's width.
pub const POOL_WIDTH_VAR: &str = "ATHENA_THREADS";

/// Span names the drivers record besides the link's.
pub const REP: &str = "ledger.rep";
pub const STEP: &str = "dataplane.step";
pub const INJECT: &str = "dataplane.inject";
pub const TRAIN: &str = "apps.train";
pub const VALIDATE: &str = "apps.validate";
pub const QUERY: &str = "core.request_features";

/// What one rep measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds of all timed phases (teardown excluded).
    pub wall_s: f64,
    /// Feature records written to or read from the store.
    pub records: u64,
    /// Host seconds of the phases that moved them.
    pub records_s: f64,
    /// Operations attempted / failed (see the README's definition).
    pub attempted: u64,
    pub failed: u64,
    /// Simulated outputs, flattened; must repeat exactly.
    pub digest: String,
    /// The detection-quality figures as `name=value` pairs, where the
    /// workload has them; part of the digest, shown beside it.
    pub behaviour: String,
    /// Per-layer values of this rep.
    pub layer: Metrics,
}

/// How a rep is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepKind {
    /// A measured rep.
    Measured,
    /// The discarded warm-up rep. In the traced pass it also captures
    /// messages and keeps artifacts for the layer probes.
    WarmUp,
}

/// One workload: inputs generated once from the seed, then reps.
pub trait Workload {
    /// Digest of the inputs generated from the seed.
    fn inputs_digest(&self) -> String;

    /// Runs one rep on a fresh deployment; teardown is outside the timers.
    fn rep(&mut self, tracer: &SharedTracer, kind: RepKind) -> Rep;

    /// Layer probes and differential runs of the traced pass. `plain_wall_s`
    /// is the median `wall_s` of this process's untraced reps.
    fn probes(&mut self, plain_wall_s: f64, out: &mut Metrics);

    /// Declared per-layer metrics this workload's traced pass does not
    /// produce, because the layer is not on its path or the probe needs
    /// data it does not have: names, or `layer.` for a whole layer. They
    /// read 0; any other declared metric that is missing fails the run.
    /// A workload that does not list `parallel.default_vs_width1_ratio`
    /// has the pool on its path and gets one extra rep at pool width 1.
    fn off_path(&self) -> &'static [&'static str];
}

/// `detection_rate=… false_alarm_rate=…`, for [`Rep::behaviour`].
pub fn quality(dr: f64, far: f64) -> String {
    format!("detection_rate={dr} false_alarm_rate={far}")
}

pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "ddos_detect" => Box::new(ddos_detect::DdosDetect::new(seed)),
        "cbench_saturate" => Box::new(cbench_saturate::CbenchSaturate::new(seed)),
        "fat_tree_scale" => Box::new(fat_tree_scale::FatTreeScale::new(seed)),
        "nb_analytics" => Box::new(nb_analytics::NbAnalytics::new(seed)),
        _ => return None,
    })
}

/// Program-side instrumentation of a deployment. End-to-end runs keep
/// both recorders off; the traced pass turns each on for one rep to
/// measure what it costs.
#[derive(Clone)]
pub enum Instr {
    Off,
    Telemetry(Telemetry),
    Observe(Telemetry, Observe),
}

impl Instr {
    pub fn athena(&self, config: AthenaConfig) -> Athena {
        match self {
            Instr::Off => Athena::new(config),
            Instr::Telemetry(tel) => Athena::with_telemetry(config, tel.clone()),
            Instr::Observe(tel, obs) => Athena::with_observe(config, tel.clone(), obs.clone()),
        }
    }

    pub fn bind_network(&self, net: &mut Network) {
        match self {
            Instr::Off => {}
            Instr::Telemetry(tel) => net.bind_telemetry(tel),
            Instr::Observe(tel, obs) => {
                net.bind_telemetry(tel);
                net.bind_observe(obs);
            }
        }
    }
}

/// The two network engines, as the stepping loop sees them.
pub trait Engine {
    fn now(&self) -> SimTime;
    fn step_once<L: ControllerLink>(&mut self, link: &mut L);
}

impl Engine for Network {
    fn now(&self) -> SimTime {
        Network::now(self)
    }
    fn step_once<L: ControllerLink>(&mut self, link: &mut L) {
        self.step(link);
    }
}

impl Engine for ShardedNetwork {
    fn now(&self) -> SimTime {
        ShardedNetwork::now(self)
    }
    fn step_once<L: ControllerLink>(&mut self, link: &mut L) {
        self.step(link);
    }
}

/// Steps `net` to virtual time `until`, one tick at a time, calling
/// `after_step` with the new virtual time after each. The traced pass
/// records one span per step; the link's spans nest beneath it.
pub fn drive<E: Engine, L: ControllerLink>(
    tracer: &SharedTracer,
    net: &mut E,
    link: &mut L,
    until: SimTime,
    mut after_step: impl FnMut(SimTime),
) {
    let fine = tracer.borrow().fine();
    while net.now() < until {
        if fine {
            let id = tracer.borrow_mut().open(STEP);
            net.step_once(link);
            tracer.borrow_mut().close(id);
        } else {
            net.step_once(link);
        }
        after_step(net.now());
    }
}

/// Entries in the largest switch flow table of a network.
pub fn max_table<'a>(topo: &Topology, switch: impl Fn(Dpid) -> Option<&'a SimSwitch>) -> usize {
    topo.switches
        .iter()
        .filter_map(|s| switch(s.dpid))
        .map(SimSwitch::flow_count)
        .max()
        .unwrap_or(0)
}

/// Times `f` (used for teardown and probes, outside the span tree).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Drops the three parts of a deployment one by one, timing each.
pub fn teardown<N>(net: N, cluster: ControllerCluster, athena: Athena, layer: &mut Metrics) {
    layer.insert("dataplane.teardown_s", timed(|| drop(net)).1);
    layer.insert("controller.teardown_s", timed(|| drop(cluster)).1);
    layer.insert("core.teardown_s", timed(|| drop(athena)).1);
}

/// Records a deployment's simulated counters as per-layer counts.
pub fn count_metrics(
    net: NetworkCounters,
    cluster: &ControllerCluster,
    athena: &Athena,
    layer: &mut Metrics,
) {
    layer.insert("dataplane.packet_ins", net.packet_ins as f64);
    layer.insert("dataplane.flow_removeds", net.flow_removeds as f64);
    layer.insert("dataplane.delivered_bytes", net.delivered_bytes as f64);
    layer.insert("dataplane.dropped_bytes", net.dropped_bytes as f64);
    layer.insert("controller.flow_mods", cluster.counters().flow_mods as f64);
    let inserts = athena.runtime().store.metrics().inserts as f64;
    layer.insert("core.feature_records", inserts);
    layer.insert("store.docs", inserts);
    layer.insert("store.inserts", inserts);
    layer.insert("core.verdicts", athena.total_alerts() as f64);
    layer.insert(
        "core.mitigated_hosts",
        athena.mitigated_hosts().len() as f64,
    );
}

/// What became of the feature records a rep generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreCheck {
    /// Records the store acknowledged.
    pub stored: u64,
    /// Records handed to the store.
    pub attempted: u64,
    /// Records generated but not stored.
    pub failed: u64,
}

/// Compares what the feature manager published with what the store
/// acknowledged, replicated and — when `read_back` — can read back.
///
/// The read-back is `stored_feature_count()`, which materializes every
/// document; it runs in the traced pass's warm-up rep only, so it weighs
/// on neither a measured rep's page cache nor `peak_rss_mb`.
pub fn store_check(athena: &Athena, read_back: bool) -> StoreCheck {
    let published = athena.runtime().feature_manager.lock().counters().0;
    let store = &athena.runtime().store;
    let m = store.metrics();
    let copies = store.replication().min(store.node_count()) as u64;
    let mut failed = published.abs_diff(m.inserts)
        + m.quorum_failures
        + m.replica_writes.abs_diff(m.inserts * copies);
    if read_back {
        failed += m.inserts.abs_diff(athena.stored_feature_count() as u64);
    }
    StoreCheck {
        stored: m.inserts,
        attempted: published + m.quorum_failures,
        failed,
    }
}

/// Reads the dataplane and controller layers' numbers out of one rep's
/// spans. `wall_s` is the rep's wall time.
pub fn span_metrics(t: &Tracer, wall_s: f64, layer: &mut Metrics) {
    let spans = t.spans();
    // Time covered by direct children, per span.
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.duration_ns();
        }
    }
    let self_ms: Vec<f64> = spans
        .iter()
        .zip(&covered)
        .filter(|(s, _)| s.name == STEP)
        .map(|(s, c)| s.duration_ns().saturating_sub(*c) as f64 / 1e6)
        .collect();
    let step_self_s = self_ms.iter().sum::<f64>() / 1e3;
    layer.insert("dataplane.steps", self_ms.len() as f64);
    layer.insert("dataplane.step_self_s", step_self_s);
    layer.insert("dataplane.step_self_ms_p50", median(&self_ms));
    layer.insert("dataplane.step_self_ms_max", quantile(&self_ms, 1.0));
    layer.insert("dataplane.self_share", share(step_self_s, wall_s));
    layer.insert("dataplane.inject_s", t.total_s(INJECT));

    let busy: f64 = LINK_SPANS.iter().map(|n| t.total_s(n)).sum();
    layer.insert("controller.link_busy_s", busy);
    layer.insert("controller.link_share", share(busy, wall_s));
    let pin_us: Vec<f64> = scale(t.durations_ns(link::PACKET_IN), 1e-3);
    layer.insert("controller.packet_in_calls", pin_us.len() as f64);
    layer.insert("controller.packet_in_us_p50", median(&pin_us));
    layer.insert("controller.packet_in_us_tail", tail(&pin_us).1);
    let per_item_us: Vec<f64> = t
        .named(link::BATCH)
        .filter(|s| s.items > 0)
        .map(|s| s.duration_ns() as f64 / 1e3 / f64::from(s.items))
        .collect();
    let batch_items: u64 = t.named(link::BATCH).map(|s| u64::from(s.items)).sum();
    layer.insert(
        "controller.batch_calls",
        t.named(link::BATCH).count() as f64,
    );
    layer.insert("controller.batch_items", batch_items as f64);
    layer.insert("controller.batch_us_per_item_p50", median(&per_item_us));
    let stats_ms: Vec<f64> = scale(t.durations_ns(link::STATS_REPLY), 1e-6);
    layer.insert("controller.stats_reply_calls", stats_ms.len() as f64);
    layer.insert("controller.stats_reply_ms_p50", median(&stats_ms));
    layer.insert("controller.stats_reply_ms_tail", tail(&stats_ms).1);
    layer.insert("controller.stats_reply_s", t.total_s(link::STATS_REPLY));
    layer.insert("controller.flow_removed_s", t.total_s(link::FLOW_REMOVED));
    layer.insert("controller.on_tick_s", t.total_s(link::ON_TICK));

    // Where the rep went, by self time; what no named span covers is
    // the rep span's own self time.
    let self_s = t.self_times_ns();
    let self_share = |names: &[&str]| {
        let ns: u64 = names.iter().filter_map(|n| self_s.get(n)).sum();
        share(ns as f64 / 1e9, wall_s)
    };
    layer.insert("ledger.share.dataplane", self_share(&[STEP, INJECT]));
    layer.insert("ledger.share.controller_link", self_share(&LINK_SPANS));
    layer.insert("ledger.share.request_features", self_share(&[QUERY]));
    layer.insert("ledger.share.train", self_share(&[TRAIN]));
    layer.insert("ledger.share.validate", self_share(&[VALIDATE]));
    let named: Vec<&str> = [STEP, INJECT, QUERY, TRAIN, VALIDATE]
        .into_iter()
        .chain(LINK_SPANS)
        .collect();
    layer.insert("ledger.unattributed_share", 1.0 - self_share(&named));
}

fn scale(mut v: Vec<f64>, k: f64) -> Vec<f64> {
    for x in &mut v {
        *x *= k;
    }
    v
}

/// `part / whole`, 0 when the whole is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}
