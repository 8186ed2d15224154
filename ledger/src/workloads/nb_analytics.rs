//! `nb_analytics` — the read side only.
//!
//! Set-up (untimed, charged to `setup_s`) populates a store by running
//! `ddos_detect`'s first live phase. Each rep then issues one
//! `request_features` query per switch plus one for packet-ins, trains
//! the DDoS detector and validates it. The store is never written during
//! a rep: store find/index, document → record conversion, compute and ml
//! do all the work; dataplane, controller and southbound do none. It is
//! the same store layer as `cbench_saturate` used the opposite way, so a
//! write-path gain that costs reads shows here.
//!
//! Many medium queries rather than one `Query::all()`: the single big
//! query swung 1.1–2.6 s run to run.
//!
//! The pool is on the path (every store read fans out over it) and runs
//! at its default width, as it does for any user of the NB API.

use super::ddos_detect::{deploy, detector, live1, MAX_FALSE_ALARM_RATE, MIN_DETECTION_RATE};
use super::{share, Instr, Metrics, Rep, RepKind, Workload, QUERY, REP, TRAIN, VALIDATE};
use crate::inputs::{ddos_inputs, DdosInputs};
use crate::probes;
use crate::trace::{phase, SharedTracer, Tracer};
use athena_core::{Athena, Query};

/// Off this workload's path: everything below the NB API's read side.
const OFF_PATH: &[&str] = &[
    "openflow.",
    "dataplane.",
    "controller.",
    "core.sb_us_per_packet_in",
    "core.feature_gen_us_per_stats_reply",
    "core.records_per_stats_reply",
    "core.detector_ns_per_record",
    "core.teardown_s",
    "core.verdicts",
    "core.mitigated_hosts",
    "core.detect_delay_virtual_s",
    "core.tel_feature_gen_s",
    "core.tel_dispatch_s",
    "store.insert_us_p50",
    "store.insert_us_tail",
    "store.insert_docs_per_s",
    "store.db_share",
    "store.tel_insert_s",
    "compute.tel_task_s",
    "stream.",
    "persist.",
    "telemetry.",
    "observe.",
];

pub struct NbAnalytics {
    inputs: DdosInputs,
    athena: Athena,
    queries: Vec<Query>,
    /// Result length of each query, as verified against the store's own
    /// count during the warm-up rep.
    verified: Vec<usize>,
}

impl NbAnalytics {
    pub fn new(seed: u64) -> Self {
        let inputs = ddos_inputs(seed);
        let (mut net, mut cluster, athena) = deploy(&inputs, &Instr::Off);
        live1(&Tracer::shared(false), &inputs, &mut net, &mut cluster);
        let queries: Vec<Query> = inputs
            .topo
            .switches
            .iter()
            .map(|s| format!("feature==FLOW_STATS && switch=={}", s.dpid.raw()))
            .chain(["feature==PACKET_IN".to_owned()])
            .map(|text| Query::parse(&text).expect("well-formed query"))
            .collect();
        NbAnalytics {
            inputs,
            athena,
            queries,
            verified: Vec::new(),
        }
    }
}

impl Workload for NbAnalytics {
    fn inputs_digest(&self) -> String {
        self.inputs.digest()
    }

    fn rep(&mut self, tracer: &SharedTracer, kind: RepKind) -> Rep {
        tracer.borrow_mut().clear();
        let athena = &self.athena;
        let det = detector(&self.inputs);
        let inserts_before = athena.runtime().store.metrics().inserts;

        let ((returned, query_s, model, train_s, summary, validate_s), wall_s) =
            phase(tracer, REP, || {
                let (returned, query_s) = phase(tracer, QUERY, || {
                    self.queries
                        .iter()
                        .map(|q| athena.request_features(q).len())
                        .collect::<Vec<usize>>()
                });
                let (model, train_s) = phase(tracer, TRAIN, || det.train(athena).ok());
                let (summary, validate_s) = phase(tracer, VALIDATE, || {
                    model.as_ref().map(|m| det.test(athena, m))
                });
                (returned, query_s, model, train_s, summary, validate_s)
            });

        // A query whose result length differs from the store's own count
        // for the same filter is a failed query. The store's count
        // materializes every match, so it is taken once, in the warm-up
        // rep; the store never changes afterwards (`inserts` below), and
        // measured reps are compared with the verified lengths.
        if kind == RepKind::WarmUp {
            let fm = athena.runtime().feature_manager.lock();
            self.verified = self.queries.iter().map(|q| fm.count_features(q)).collect();
        }
        let mismatched = self
            .verified
            .iter()
            .zip(&returned)
            .filter(|(expected, n)| expected != n || **n == 0)
            .count() as u64
            + self.queries.len().abs_diff(self.verified.len()) as u64;
        let inserts = athena.runtime().store.metrics().inserts - inserts_before;
        let confusion = summary.as_ref().map(|s| s.confusion);
        let dr = confusion.map_or(0.0, |c| c.detection_rate());
        let far = confusion.map_or(1.0, |c| c.false_alarm_rate());
        let records: u64 = returned.iter().map(|n| *n as u64).sum();

        let mut rep = Rep {
            wall_s,
            records,
            records_s: query_s,
            attempted: self.queries.len() as u64 + 2,
            failed: mismatched
                + u64::from(model.is_none())
                + u64::from(summary.is_none())
                + u64::from(dr <= MIN_DETECTION_RATE)
                + u64::from(far >= MAX_FALSE_ALARM_RATE)
                + inserts,
            ..Rep::default()
        };
        rep.digest = format!(
            "returned={returned:?}|trained_on={}|dr={:016x}|far={:016x}|inserts={inserts}",
            model.as_ref().map_or(0, |m| m.trained_on),
            dr.to_bits(),
            far.to_bits(),
        );
        rep.behaviour = super::quality(dr, far);
        let layer = &mut rep.layer;
        let stored = athena.runtime().store.metrics().inserts as f64;
        layer.insert("store.docs", stored);
        layer.insert("core.feature_records", stored);
        layer.insert("store.inserts", inserts as f64);
        layer.insert("core.query_records_per_s", share(records as f64, query_s));
        layer.insert(
            "core.request_features_us_per_record",
            share(query_s * 1e6, records as f64),
        );
        layer.insert("apps.train_s", train_s);
        layer.insert("apps.validate_s", validate_s);
        let validated = confusion.map_or(0, |c| c.total());
        layer.insert(
            "apps.validate_records_per_s",
            share(validated as f64, validate_s),
        );
        layer.insert("core.detection_rate", dr);
        layer.insert("core.false_alarm_rate", far);
        if tracer.borrow().fine() {
            super::span_metrics(&tracer.borrow(), wall_s, layer);
        }
        rep
    }

    fn probes(&mut self, _plain_wall_s: f64, out: &mut Metrics) {
        let det = detector(&self.inputs);
        probes::analytics(&self.athena, &det, out);
        probes::store_read(&self.athena, out);
        probes::par_map_dispatch(out);
    }

    fn off_path(&self) -> &'static [&'static str] {
        OFF_PATH
    }
}
