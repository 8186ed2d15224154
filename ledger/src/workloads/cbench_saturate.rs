//! `cbench_saturate` — the paper's Table IX "With Athena" row.
//!
//! Control path only: a bare controller cluster with the Cbench
//! responder app and Athena attached (store on) answers 100 000 unique
//! packet-ins per round. The controller pipeline, the southbound
//! element and above all the store insert do the work; the dataplane,
//! compute and ml do none. It is the write-heavy counterpart of
//! `nb_analytics`.

use super::{
    count_metrics, share, span_metrics, store_check, timed, Metrics, Rep, RepKind, Workload, REP,
};
use crate::inputs::digest_str;
use crate::link::TimedLink;
use crate::probes;
use crate::stats::median;
use crate::trace::{phase, SharedTracer, Tracer};
use athena_controller::cbench::{throughput_round, CbenchResponder, CbenchRound};
use athena_controller::ControllerCluster;
use athena_core::{Athena, AthenaConfig, FeatureRecord};
use athena_dataplane::{ControllerLink, NetworkCounters, Topology};
use athena_openflow::{OfMessage, PacketHeader};
use athena_types::{Dpid, FiveTuple, Ipv4Addr, PortNo, SimTime, Xid};
use std::time::Instant;

/// Packet-ins per round.
pub const EVENTS: u64 = 100_000;
/// Rounds per configuration in the differential runs of the traced pass.
const DIFF_ROUNDS: usize = 5;

/// What is attached to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attach {
    /// Nothing: the bare controller.
    Bare,
    /// Athena with store publication disabled (Table IX "no DB").
    NoStore,
    /// Athena with the store on (Table IX "With").
    WithStore,
}

fn deploy(topo: &Topology, attach: Attach) -> (ControllerCluster, Option<Athena>) {
    let mut cluster = ControllerCluster::bare(topo);
    cluster.add_processor(Box::new(CbenchResponder));
    let athena = match attach {
        Attach::Bare => None,
        Attach::NoStore => Some(AthenaConfig {
            store_enabled: false,
            ..AthenaConfig::default()
        }),
        Attach::WithStore => Some(AthenaConfig::default()),
    }
    .map(Athena::new);
    if let Some(a) = &athena {
        a.attach(&mut cluster);
    }
    (cluster, athena)
}

/// The traced pass's round: the packet-in stream of
/// `cbench::throughput_round` (same xorshift, same headers, same order),
/// pushed through any [`ControllerLink`] so the link wrapper can time
/// each call. The test below pins it to the program's own harness.
fn round_through<L: ControllerLink>(
    link: &mut L,
    switches: &[Dpid],
    events: u64,
    seed: u64,
) -> CbenchRound {
    let mut responses = 0u64;
    let start = Instant::now();
    let mut state = seed | 1;
    for i in 0..events {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let dpid = switches[(i % switches.len() as u64) as usize];
        let ft = FiveTuple::tcp(
            Ipv4Addr::from_raw(state as u32),
            (state >> 32) as u16,
            Ipv4Addr::from_raw((state >> 16) as u32),
            80,
        );
        let header = PacketHeader::from_five_tuple(PortNo::new(1), ft, 64);
        let msg = OfMessage::packet_in(Xid::new(i as u32), header);
        let cmds = link.on_message(dpid, msg, SimTime::from_micros(i));
        responses += cmds
            .iter()
            .filter(|(_, m)| matches!(m, OfMessage::FlowMod { .. }))
            .count() as u64;
    }
    CbenchRound {
        requests: events,
        responses,
        elapsed_secs: start.elapsed().as_secs_f64(),
    }
}

fn switches_of(topo: &Topology) -> Vec<Dpid> {
    topo.switches.iter().map(|s| s.dpid).collect()
}

/// Off this workload's path: everything but the controller pipeline, the
/// southbound element and the store insert.
const OFF_PATH: &[&str] = &[
    "openflow.",
    "dataplane.wheel_advance_ns",
    "dataplane.teardown_s",
    "core.feature_gen_us_per_stats_reply",
    "core.records_per_stats_reply",
    "core.detector_ns_per_record",
    "core.request_features_us_per_record",
    "core.query_records_per_s",
    "core.train_query_s",
    "core.detect_delay_virtual_s",
    "core.detection_rate",
    "core.false_alarm_rate",
    "core.tel_feature_gen_s",
    "core.tel_dispatch_s",
    "store.find_indexed_us_per_doc",
    "store.find_scan_us_per_doc",
    "store.count_ms",
    "store.aggregate_ms",
    "store.tel_insert_s",
    "compute.",
    "ml.",
    "apps.",
    "parallel.par_map_us_n8",
    "parallel.par_map_us_n1024",
    "parallel.default_vs_width1_ratio",
    "stream.",
    "persist.",
    "telemetry.",
    "observe.",
];

pub struct CbenchSaturate {
    topo: Topology,
    seed: u64,
    /// Records the traced warm-up rep stored, sampled for the store probe.
    records: Vec<FeatureRecord>,
}

impl CbenchSaturate {
    pub fn new(seed: u64) -> Self {
        CbenchSaturate {
            topo: Topology::enterprise(),
            seed,
            records: Vec::new(),
        }
    }

    /// Median seconds per round of `attach`, untraced, fresh deployment
    /// per round.
    fn median_round_s(&self, attach: Attach) -> f64 {
        let rounds: Vec<f64> = (0..DIFF_ROUNDS)
            .map(|_| {
                let (mut cluster, _athena) = deploy(&self.topo, attach);
                throughput_round(&mut cluster, EVENTS, self.seed).elapsed_secs
            })
            .collect();
        median(&rounds)
    }
}

impl Workload for CbenchSaturate {
    fn inputs_digest(&self) -> String {
        // The packet-ins are generated inside the round, from the seed.
        digest_str(&format!("cbench|{EVENTS}|{}", self.seed))
    }

    fn rep(&mut self, tracer: &SharedTracer, kind: RepKind) -> Rep {
        tracer.borrow_mut().clear();
        let fine = tracer.borrow().fine();
        let (cluster, athena) = deploy(&self.topo, Attach::WithStore);
        let athena = athena.expect("WithStore attaches Athena");
        let (round, cluster, wall_s) = if fine {
            let switches = switches_of(&self.topo);
            let mut link = TimedLink::new(cluster, tracer.clone());
            let (round, wall_s) = phase(tracer, REP, || {
                round_through(&mut link, &switches, EVENTS, self.seed)
            });
            (round, link.into_parts().0, wall_s)
        } else {
            let mut cluster = cluster;
            let (round, wall_s) = phase(tracer, REP, || {
                throughput_round(&mut cluster, EVENTS, self.seed)
            });
            (round, cluster, wall_s)
        };

        let stored = store_check(&athena, fine && kind == RepKind::WarmUp);
        let mut rep = Rep {
            wall_s,
            records_s: wall_s,
            records: stored.stored,
            ..Rep::default()
        };
        rep.attempted = round.requests + stored.attempted;
        rep.failed = round.requests.abs_diff(round.responses) + stored.failed;
        rep.digest = format!(
            "requests={}|responses={}|{:?}|stored={}",
            round.requests,
            round.responses,
            cluster.counters(),
            rep.records
        );
        let layer = &mut rep.layer;
        count_metrics(NetworkCounters::default(), &cluster, &athena, layer);
        layer.insert(
            "controller.packet_ins_per_s",
            share(round.responses as f64, wall_s),
        );
        if fine {
            span_metrics(&tracer.borrow(), wall_s, layer);
        }
        layer.insert("controller.teardown_s", timed(|| drop(cluster)).1);
        if fine && kind == RepKind::WarmUp {
            self.records = probes::sample_records(&athena);
        }
        layer.insert("core.teardown_s", timed(|| drop(athena)).1);
        rep
    }

    fn off_path(&self) -> &'static [&'static str] {
        OFF_PATH
    }

    fn probes(&mut self, plain_wall_s: f64, out: &mut Metrics) {
        // Table IX's attribution: bare controller, Athena without the
        // store, Athena with it — same packet-ins, same harness.
        let bare_s = self.median_round_s(Attach::Bare);
        let no_store_s = self.median_round_s(Attach::NoStore);
        out.insert(
            "core.sb_us_per_packet_in",
            (no_store_s - bare_s) * 1e6 / EVENTS as f64,
        );
        out.insert(
            "store.db_share",
            share(plain_wall_s - no_store_s, plain_wall_s),
        );

        // The controller pipeline alone, per call.
        let tracer = Tracer::shared(true);
        let (cluster, _) = deploy(&self.topo, Attach::Bare);
        let mut link = TimedLink::new(cluster, tracer.clone());
        round_through(&mut link, &switches_of(&self.topo), EVENTS, self.seed);
        let bare_us: Vec<f64> = tracer
            .borrow()
            .durations_ns(crate::link::PACKET_IN)
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        out.insert("controller.bare_packet_in_us_p50", median(&bare_us));

        probes::store_insert(&std::mem::take(&mut self.records), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced pass's packet-in loop is the program's harness: same
    /// responses, same store contents, same controller counters.
    #[test]
    fn round_through_reproduces_throughput_round() {
        let topo = Topology::enterprise();
        let (mut a, athena_a) = deploy(&topo, Attach::WithStore);
        let (mut b, athena_b) = deploy(&topo, Attach::WithStore);
        let ra = throughput_round(&mut a, 2_000, 99);
        let rb = round_through(&mut b, &switches_of(&topo), 2_000, 99);
        assert_eq!((ra.requests, ra.responses), (rb.requests, rb.responses));
        assert_eq!(a.counters(), b.counters());
        let (athena_a, athena_b) = (athena_a.unwrap(), athena_b.unwrap());
        assert_eq!(
            athena_a.stored_feature_count(),
            athena_b.stored_feature_count()
        );
        assert!(athena_a.stored_feature_count() > 0);
        let all = athena_core::Query::all();
        assert_eq!(
            athena_a.request_features(&all),
            athena_b.request_features(&all)
        );
    }

    #[test]
    fn attach_modes_differ_only_in_what_is_stored() {
        let topo = Topology::enterprise();
        let stored = |attach| {
            let (mut c, athena) = deploy(&topo, attach);
            let r = throughput_round(&mut c, 500, 1);
            assert_eq!(r.responses, 500);
            athena.map(|a| a.stored_feature_count())
        };
        assert_eq!(stored(Attach::Bare), None);
        assert_eq!(stored(Attach::NoStore), Some(0));
        assert!(stored(Attach::WithStore).unwrap() > 0);
    }
}
