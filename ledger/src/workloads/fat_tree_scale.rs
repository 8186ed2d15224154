//! `fat_tree_scale` — the scale engine with the framework attached.
//!
//! A k = 8 fat-tree with 10 016 hosts on `ShardedNetwork`, driven by the
//! real `ControllerCluster` with Athena attached (store on) under a
//! 3 000-flow benign mix. Exercises the sharded tick, the timing wheel,
//! the cross-shard exchange, the batched packet-in path
//! (`on_packet_in_batch`) and large statistics replies. It uses the
//! *other* engine and the worker pool, so an engine or pool change shows
//! here and must not move `ddos_detect`.

use super::{
    count_metrics, drive, share, span_metrics, store_check, teardown, Metrics, Rep, RepKind,
    Workload, INJECT, REP,
};
use crate::inputs::{fat_tree_inputs, flows_digest, FatTreeInputs};
use crate::link::{Capture, TimedLink};
use crate::probes;
use crate::trace::{phase, SharedTracer};
use athena_controller::ControllerCluster;
use athena_core::{Athena, AthenaConfig};
use athena_dataplane::{ControllerLink, NetworkConfig, ShardPlan, ShardedNetwork};
use athena_types::SimTime;

/// Virtual second the run ends at.
pub const UNTIL: u64 = 10;

fn live<L: ControllerLink>(
    tracer: &SharedTracer,
    inputs: &FatTreeInputs,
    net: &mut ShardedNetwork,
    link: &mut L,
) -> f64 {
    let flows = inputs.flows.clone();
    phase(tracer, REP, || {
        phase(tracer, INJECT, || net.inject_flows(flows));
        drive(tracer, net, link, SimTime::from_secs(UNTIL), |_| {});
    })
    .1
}

/// Off this workload's path: the codec (no wire mode), the detector and
/// everything on the read side; the store-insert and recorder probes run
/// on `ddos_detect`'s data.
const OFF_PATH: &[&str] = &[
    "openflow.encode_ns_per_msg",
    "openflow.decode_ns_per_msg",
    "openflow.wire_bytes_per_msg",
    "controller.bare_packet_in_us_p50",
    "core.sb_us_per_packet_in",
    "core.detector_ns_per_record",
    "core.request_features_us_per_record",
    "core.query_records_per_s",
    "core.train_query_s",
    "core.detect_delay_virtual_s",
    "core.detection_rate",
    "core.false_alarm_rate",
    "core.tel_feature_gen_s",
    "core.tel_dispatch_s",
    "store.insert_us_p50",
    "store.insert_us_tail",
    "store.insert_docs_per_s",
    "store.find_indexed_us_per_doc",
    "store.find_scan_us_per_doc",
    "store.count_ms",
    "store.aggregate_ms",
    "store.db_share",
    "store.tel_insert_s",
    "compute.",
    "ml.",
    "apps.",
    "stream.",
    "persist.",
    "telemetry.",
    "observe.",
];

pub struct FatTreeScale {
    inputs: FatTreeInputs,
    capture: Option<Capture>,
    /// Entries in the largest switch flow table at the end of the warm-up.
    max_table: usize,
}

impl FatTreeScale {
    pub fn new(seed: u64) -> Self {
        FatTreeScale {
            inputs: fat_tree_inputs(seed),
            capture: None,
            max_table: 0,
        }
    }
}

impl Workload for FatTreeScale {
    fn inputs_digest(&self) -> String {
        flows_digest(&self.inputs.flows)
    }

    fn rep(&mut self, tracer: &SharedTracer, kind: RepKind) -> Rep {
        tracer.borrow_mut().clear();
        let fine = tracer.borrow().fine();
        let topo = &self.inputs.topo;
        let mut net = ShardedNetwork::with_plan(
            topo.clone(),
            NetworkConfig::default(),
            ShardPlan::auto(topo),
        );
        let mut cluster = ControllerCluster::new(topo);
        let athena = Athena::new(AthenaConfig::default());
        athena.attach(&mut cluster);

        let (wall_s, cluster) = if fine {
            let mut link = TimedLink::new(cluster, tracer.clone());
            if kind == RepKind::WarmUp {
                link = link.capturing();
            }
            let wall_s = live(tracer, &self.inputs, &mut net, &mut link);
            let (cluster, capture) = link.into_parts();
            if capture.is_some() {
                self.capture = capture;
                self.max_table = super::max_table(topo, |d| net.switch(d));
            }
            (wall_s, cluster)
        } else {
            let wall_s = live(tracer, &self.inputs, &mut net, &mut cluster);
            (wall_s, cluster)
        };

        let counters = net.counters();
        let stored = store_check(&athena, fine && kind == RepKind::WarmUp);
        let mut rep = Rep {
            wall_s,
            records_s: wall_s,
            records: stored.stored,
            ..Rep::default()
        };
        rep.attempted = counters.packet_ins + stored.attempted;
        rep.failed = counters.packet_ins.abs_diff(cluster.counters().packet_ins) + stored.failed;
        rep.digest = format!(
            "{counters:?}|{:?}|stored={}|active={}",
            cluster.counters(),
            rep.records,
            net.active_flows().len()
        );
        let layer = &mut rep.layer;
        count_metrics(counters, &cluster, &athena, layer);
        layer.insert(
            "controller.packet_ins_per_s",
            share(counters.packet_ins as f64, wall_s),
        );
        if fine {
            span_metrics(&tracer.borrow(), wall_s, layer);
        }
        teardown(net, cluster, athena, layer);
        rep
    }

    fn probes(&mut self, _plain_wall_s: f64, out: &mut Metrics) {
        probes::wheel(self.inputs.flows.len(), out);
        probes::par_map_dispatch(out);
        probes::openflow_table(self.max_table, out);
        if let Some(capture) = self.capture.take() {
            probes::feature_generator(&capture, out);
        }
    }

    fn off_path(&self) -> &'static [&'static str] {
        OFF_PATH
    }
}
