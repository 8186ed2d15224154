//! `ddos_detect` — paper scenario 1, the whole loop.
//!
//! The only workload where every layer is on the path: the OpenFlow
//! codec (wire mode), the dataplane, the controller cluster, Athena's
//! southbound element and feature generator, the store (written live,
//! read back for training), ml (train, validate), and the live detector
//! and reactor (second wave). Statistics-poll feature generation
//! dominates: ~48 k records against ~600 packet-ins.

use super::{
    count_metrics, drive, span_metrics, store_check, teardown, Instr, Metrics, Rep, RepKind,
    Workload, INJECT, REP, TRAIN, VALIDATE,
};
use crate::inputs::{ddos_inputs, DdosInputs, DDOS_WAVE2_START};
use crate::link::{Capture, TimedLink};
use crate::probes;
use crate::trace::{phase, SharedTracer};
use athena_apps::{DdosDetector, DdosDetectorConfig};
use athena_controller::ControllerCluster;
use athena_core::{Athena, AthenaConfig, DetectionModel, FeatureRecord};
use athena_dataplane::{ControllerLink, Network, NetworkConfig};
use athena_ml::ValidationSummary;
use athena_observe::Observe;
use athena_openflow::OfVersion;
use athena_telemetry::Telemetry;
use athena_types::SimTime;

/// Virtual second the first live phase runs to.
pub const LIVE1_UNTIL: u64 = 35;
/// Virtual second the second live phase runs to.
pub const LIVE2_UNTIL: u64 = 60;
/// Detection-quality floors: a run outside them is a failed run.
/// `e2e_ddos` holds DR > 0.9 and FAR < 0.1 at its one seed; the benchmark
/// must hold at any. The detector's k-means lands in one of two optima
/// depending on the seed — DR ≈ 0.98 with FAR 0.03–0.07, or DR = 1 with
/// FAR 0.08–0.105 — at this size and at `e2e_ddos`'s own (120 + 250
/// flows: FAR 0.1005 at seed 29, 0.112 at seed 1). Over 75 seeds here DR
/// stayed within 0.95–1.0 and FAR within 0.03–0.105 (seed 29), so a FAR
/// ceiling of 0.1 fails one seed in fifty on the parent commit. 0.15
/// leaves the margin above the worst seed that the DR floor has below it.
/// What holds a change to the parent's behaviour is not these floors but
/// the `behaviour` line, compared exactly per seed.
pub const MIN_DETECTION_RATE: f64 = 0.9;
pub const MAX_FALSE_ALARM_RATE: f64 = 0.15;

/// Reps run with each of the program's recorders on, in the traced pass.
const RECORDER_REPS: usize = 3;
/// Seed of the observe pipeline's trace ids (any value; ids are not read).
const OBSERVE_SEED: u64 = 7;

pub const LIVE1: &str = "ddos.live1";
pub const LIVE2: &str = "ddos.live2";
pub const DEPLOY_ONLINE: &str = "core.add_online_validator";

/// Builds the scenario-1 deployment: enterprise topology, wire mode
/// (every southbound message crosses the OpenFlow 1.3 codec), three
/// controller instances, Athena attached with the store on.
pub fn deploy(inputs: &DdosInputs, instr: &Instr) -> (Network, ControllerCluster, Athena) {
    let mut net = Network::with_config(
        inputs.topo.clone(),
        NetworkConfig {
            wire_mode: Some(OfVersion::V1_3),
            ..NetworkConfig::default()
        },
    );
    instr.bind_network(&mut net);
    let mut cluster = ControllerCluster::new(&inputs.topo);
    let athena = instr.athena(AthenaConfig::default());
    athena.attach(&mut cluster);
    (net, cluster, athena)
}

pub fn detector(inputs: &DdosInputs) -> DdosDetector {
    DdosDetector::new(DdosDetectorConfig {
        victim: inputs.victim,
        ..DdosDetectorConfig::default()
    })
}

/// The first live phase: inject the benign mix and the first flood, run
/// to t = 35 s. Returns host seconds (injection included).
pub fn live1<L: ControllerLink>(
    tracer: &SharedTracer,
    inputs: &DdosInputs,
    net: &mut Network,
    link: &mut L,
) -> f64 {
    let flows = inputs.wave1.clone();
    phase(tracer, LIVE1, || {
        phase(tracer, INJECT, || net.inject_flows(flows));
        drive(tracer, net, link, SimTime::from_secs(LIVE1_UNTIL), |_| {});
    })
    .1
}

/// What the timed phases of one rep produced.
struct Phases {
    live_s: f64,
    train_s: f64,
    validate_s: f64,
    wall_s: f64,
    model: Option<DetectionModel>,
    summary: Option<ValidationSummary>,
    /// Virtual seconds from the second wave's start to the first tick
    /// with an alert; `None` if the validator never fired.
    detect_delay: Option<u64>,
}

fn phases<L: ControllerLink>(
    tracer: &SharedTracer,
    inputs: &DdosInputs,
    net: &mut Network,
    link: &mut L,
    athena: &Athena,
) -> Phases {
    let det = detector(inputs);
    let wave2 = inputs.wave2.clone();
    let (mut p, wall_s) = phase(tracer, REP, || {
        let live1_s = live1(tracer, inputs, net, link);
        let (model, train_s) = phase(tracer, TRAIN, || det.train(athena).ok());
        let (summary, validate_s) = phase(tracer, VALIDATE, || {
            model.as_ref().map(|m| det.test(athena, m))
        });
        if let Some(m) = &model {
            phase(tracer, DEPLOY_ONLINE, || {
                det.deploy_online(athena, m.clone())
            });
        }
        let mut detect_delay = None;
        let ((), live2_s) = phase(tracer, LIVE2, || {
            phase(tracer, INJECT, || net.inject_flows(wave2));
            drive(tracer, net, link, SimTime::from_secs(LIVE2_UNTIL), |now| {
                if detect_delay.is_none() && athena.total_alerts() > 0 {
                    let secs = now.as_micros() / 1_000_000;
                    detect_delay = Some(secs.saturating_sub(DDOS_WAVE2_START));
                }
            });
        });
        Phases {
            live_s: live1_s + live2_s,
            train_s,
            validate_s,
            wall_s: 0.0,
            model,
            summary,
            detect_delay,
        }
    });
    p.wall_s = wall_s;
    p
}

/// Kept from the traced warm-up rep for the layer probes.
struct Artifacts {
    capture: Capture,
    /// A sample of the stored feature records. The store itself is torn
    /// down like any other rep's: kept alive it would weigh on every
    /// measured rep of the traced pass.
    records: Vec<FeatureRecord>,
    model: DetectionModel,
    /// Entries in the largest switch flow table at the end of the rep.
    max_table: usize,
}

/// Off this workload's path: `cbench_saturate`'s differential runs and
/// `nb_analytics`' read-side probes. What the pool costs is measured on
/// `fat_tree_scale` and `nb_analytics`.
const OFF_PATH: &[&str] = &[
    "controller.bare_packet_in_us_p50",
    "core.sb_us_per_packet_in",
    "core.request_features_us_per_record",
    "core.query_records_per_s",
    "core.train_query_s",
    "store.find_indexed_us_per_doc",
    "store.find_scan_us_per_doc",
    "store.count_ms",
    "store.aggregate_ms",
    "store.db_share",
    "compute.parallelize_ms",
    "compute.validate_job_s",
    "compute.validate_job_virtual_ms",
    "compute.tasks",
    "ml.",
    "parallel.par_map_us_n8",
    "parallel.par_map_us_n1024",
    "parallel.default_vs_width1_ratio",
];

pub struct DdosDetect {
    inputs: DdosInputs,
    artifacts: Option<Artifacts>,
}

impl DdosDetect {
    pub fn new(seed: u64) -> Self {
        DdosDetect {
            inputs: ddos_inputs(seed),
            artifacts: None,
        }
    }

    fn rep_with(&mut self, tracer: &SharedTracer, kind: RepKind, instr: &Instr) -> Rep {
        tracer.borrow_mut().clear();
        let fine = tracer.borrow().fine();
        let keep = fine && kind == RepKind::WarmUp;
        let (mut net, cluster, athena) = deploy(&self.inputs, instr);
        let (p, cluster, capture) = if fine {
            let mut link = TimedLink::new(cluster, tracer.clone());
            if keep {
                link = link.capturing();
            }
            let p = phases(tracer, &self.inputs, &mut net, &mut link, &athena);
            let (cluster, capture) = link.into_parts();
            (p, cluster, capture)
        } else {
            let mut cluster = cluster;
            let p = phases(tracer, &self.inputs, &mut net, &mut cluster, &athena);
            (p, cluster, None)
        };

        let mut rep = Rep {
            wall_s: p.wall_s,
            records_s: p.live_s,
            ..Rep::default()
        };
        let counters = net.counters();
        let confusion = p.summary.as_ref().map(|s| s.confusion);
        let dr = confusion.map_or(0.0, |c| c.detection_rate());
        let far = confusion.map_or(1.0, |c| c.false_alarm_rate());
        let alerts = athena.total_alerts();
        let mitigated = athena.mitigated_hosts().len();
        let stored = store_check(&athena, keep);
        rep.records = stored.stored;

        // Failed operations: packet-ins the controller never saw, feature
        // records lost on the way to the store, NB calls that failed, and
        // the behavioural floors.
        let unanswered = counters.packet_ins.abs_diff(cluster.counters().packet_ins);
        let nb_failed = u64::from(p.model.is_none()) + u64::from(p.summary.is_none());
        let quality_failed = u64::from(dr <= MIN_DETECTION_RATE)
            + u64::from(far >= MAX_FALSE_ALARM_RATE)
            + u64::from(alerts == 0)
            + u64::from(mitigated == 0);
        rep.attempted = counters.packet_ins + stored.attempted + 2;
        rep.failed = unanswered + stored.failed + nb_failed + quality_failed;
        rep.digest = format!(
            "{counters:?}|{:?}|stored={}|alerts={alerts}|mitigated={mitigated}|trained_on={}|dr={:016x}|far={:016x}|delay={:?}",
            cluster.counters(),
            rep.records,
            p.model.as_ref().map_or(0, |m| m.trained_on),
            dr.to_bits(),
            far.to_bits(),
            p.detect_delay,
        );

        rep.behaviour = format!(
            "{} detect_delay_virtual_s={}",
            super::quality(dr, far),
            p.detect_delay.map_or("none".to_owned(), |d| d.to_string())
        );

        let layer = &mut rep.layer;
        count_metrics(counters, &cluster, &athena, layer);
        layer.insert("apps.train_s", p.train_s);
        layer.insert("apps.validate_s", p.validate_s);
        let validated = confusion.map_or(0, |c| c.total());
        layer.insert(
            "apps.validate_records_per_s",
            super::share(validated as f64, p.validate_s),
        );
        layer.insert(
            "controller.packet_ins_per_s",
            super::share(counters.packet_ins as f64, p.live_s),
        );
        layer.insert("core.detection_rate", dr);
        layer.insert("core.false_alarm_rate", far);
        // No alert, no delay: the metric is then missing, which fails
        // the run like the `alerts == 0` above.
        if let Some(d) = p.detect_delay {
            layer.insert("core.detect_delay_virtual_s", d as f64);
        }
        if fine {
            span_metrics(&tracer.borrow(), rep.wall_s, layer);
        }
        if let (true, Some(capture), Some(model)) = (keep, capture, p.model) {
            self.artifacts = Some(Artifacts {
                capture,
                records: probes::sample_records(&athena),
                model,
                max_table: super::max_table(&self.inputs.topo, |d| net.switch(d)),
            });
        }
        teardown(net, cluster, athena, layer);
        rep
    }
}

impl DdosDetect {
    /// Median `wall_s` of a few untraced reps with a program recorder on.
    /// A few, because one rep differs from the next by more than either
    /// recorder costs.
    fn recorder_wall_s(&mut self, instr: impl Fn() -> Instr) -> f64 {
        let plain = crate::trace::Tracer::shared(false);
        let walls: Vec<f64> = (0..RECORDER_REPS)
            .map(|_| self.rep_with(&plain, RepKind::Measured, &instr()).wall_s)
            .collect();
        crate::stats::median(&walls)
    }
}

impl Workload for DdosDetect {
    fn inputs_digest(&self) -> String {
        self.inputs.digest()
    }

    fn rep(&mut self, tracer: &SharedTracer, kind: RepKind) -> Rep {
        self.rep_with(tracer, kind, &Instr::Off)
    }

    fn off_path(&self) -> &'static [&'static str] {
        OFF_PATH
    }

    fn probes(&mut self, plain_wall_s: f64, out: &mut Metrics) {
        if let Some(a) = self.artifacts.take() {
            probes::openflow_codec(&a.capture, out);
            probes::openflow_table(a.max_table, out);
            probes::wheel(self.inputs.wave1.len(), out);
            probes::feature_generator(&a.capture, out);
            probes::detector(&a.records, &a.model, out);
            probes::store_insert(&a.records, out);
            probes::wal_append(&a.records, out);
            probes::stream(&a.records, &self.inputs, out);
        }

        // What the program's own recorders cost: reps with each on, against
        // this process's untraced reps.
        let tel = Telemetry::new();
        let with_tel_s = self.recorder_wall_s(|| Instr::Telemetry(tel.clone()));
        let with_obs_s = self.recorder_wall_s(|| {
            let tel = Telemetry::new();
            let obs = Observe::with_telemetry(OBSERVE_SEED, &tel);
            Instr::Observe(tel, obs)
        });
        out.insert(
            "telemetry.on_wall_ratio",
            super::share(with_tel_s, plain_wall_s),
        );
        out.insert(
            "observe.on_wall_ratio",
            super::share(with_obs_s, plain_wall_s),
        );
        probes::telemetry_cross_check(&tel, RECORDER_REPS, out);
    }
}
