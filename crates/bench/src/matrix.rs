//! The Table-IV evaluation matrix: every attack family crossed with
//! every Table-IV algorithm.
//!
//! Each [`AttackFamily`] gets one full seeded deployment (enterprise or
//! linear topology, benign background, optional stochastic link model,
//! optional chaos scenario). Every Table-IV algorithm then trains once on
//! the *base* families' labeled feature records and is validated against
//! every family's records — known-attack cells gate against recorded
//! baselines, held-out cells measure generalization to attacks the model
//! never saw. The whole matrix is a pure function of
//! [`MatrixConfig`], byte-identical across reruns and `ATHENA_THREADS`
//! widths.

use athena_apps::{DdosDetector, DdosDetectorConfig};
use athena_compute::ComputeCluster;
use athena_controller::ControllerCluster;
use athena_core::{Athena, AthenaConfig, DetectionModel, DetectorManager, FeatureRecord};
use athena_dataplane::{workload, LinkModel, Network};
use athena_faults::{run_with_faults, ChaosChannel, FaultInjector, Scenario};
use athena_ml::algorithms::forest::ForestParams;
use athena_ml::algorithms::gbt::GbtParams;
use athena_ml::algorithms::gmm::GmmParams;
use athena_ml::algorithms::kmeans::KMeansParams;
use athena_ml::algorithms::linear::LinearParams;
use athena_ml::Algorithm;
use athena_telemetry::Telemetry;
use athena_types::{env_flag, FiveTuple, SimDuration, SimTime};
use athena_workloads::{AttackConfig, AttackFamily};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Everything a matrix run depends on. Two runs with equal configs
/// produce byte-identical [`MatrixReport::to_json`] output.
#[derive(Debug, Clone, Copy)]
pub struct MatrixConfig {
    /// The master seed every per-family seed derives from.
    pub seed: u64,
    /// Stochastic link model installed on every deployment's links.
    pub link_model: Option<LinkModel>,
    /// Chaos scenario composed into every family run.
    pub chaos: Option<Scenario>,
    /// Smoke mode halves workload sizes but never skips cells.
    pub smoke: bool,
}

impl Default for MatrixConfig {
    /// The CI gate's configuration: seed 7, the WAN link model, no
    /// chaos, smoke from `ATHENA_CHAOS_SMOKE`.
    fn default() -> Self {
        MatrixConfig {
            seed: 7,
            link_model: Some(LinkModel::wan()),
            chaos: None,
            smoke: env_flag("ATHENA_CHAOS_SMOKE"),
        }
    }
}

impl MatrixConfig {
    fn scaled(&self, n: usize) -> usize {
        if self.smoke {
            (n / 2).max(1)
        } else {
            n
        }
    }
}

/// The full Table-IV algorithm menu, in fixed matrix order.
pub fn table_iv_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::GradientBoostedTrees(GbtParams::default()),
        Algorithm::decision_tree(),
        Algorithm::logistic_regression(),
        Algorithm::NaiveBayes,
        Algorithm::RandomForest(ForestParams {
            trees: 10,
            ..ForestParams::default()
        }),
        Algorithm::Svm(Default::default()),
        Algorithm::GaussianMixture(GmmParams::default()),
        Algorithm::KMeans(KMeansParams {
            k: 8,
            ..KMeansParams::default()
        }),
        Algorithm::Lasso {
            params: LinearParams::default(),
            lambda: 1e-3,
        },
        Algorithm::Linear(LinearParams::default()),
        Algorithm::Ridge {
            params: LinearParams::default(),
            lambda: 1e-3,
        },
        Algorithm::threshold(4, 350.0),
    ]
}

/// One family's completed deployment: its feature records, ground-truth
/// malicious tuple set, and where the attack window started.
pub struct FamilyRun {
    /// The family that ran.
    pub family: AttackFamily,
    /// FLOW_STATS feature records collected from the deployment, in the
    /// store's canonical (placement-independent) order.
    pub records: Vec<FeatureRecord>,
    /// Ground-truth malicious 5-tuples for this run.
    pub malicious: BTreeSet<FiveTuple>,
    /// When the attack window opened.
    pub attack_start: SimTime,
    /// The run's telemetry (the names-registry gate reads this).
    pub tel: Telemetry,
}

impl FamilyRun {
    /// Ground truth for one record: its flow is in the malicious set.
    pub fn truth(&self) -> impl Fn(&FeatureRecord) -> bool + '_ {
        move |r: &FeatureRecord| {
            r.index
                .five_tuple
                .is_some_and(|ft| self.malicious.contains(&ft))
        }
    }
}

/// Runs one family's full deployment and collects its labeled records.
pub fn run_family(family: AttackFamily, cfg: &MatrixConfig) -> FamilyRun {
    let topo = family.canonical_topology();
    let seed = cfg.seed ^ (0x9a70 + family as u64) << 8;
    let tel = Telemetry::new();
    let mut net = Network::new(topo.clone());
    net.bind_telemetry(&tel);
    if let Some(model) = cfg.link_model {
        net.set_link_model(model, seed);
    }
    let mut cluster = ControllerCluster::new(&topo);
    let athena = Athena::with_telemetry(AthenaConfig::default(), tel.clone());
    athena.attach(&mut cluster);

    let attack_cfg = AttackConfig {
        n_flows: cfg.scaled(150),
        ..AttackConfig::new(topo.hosts[0].ip)
    };
    let attack = family.generate(&topo, &attack_cfg, seed);
    let malicious: BTreeSet<FiveTuple> = attack.malicious_tuples().into_iter().collect();
    net.inject_flows(workload::benign_mix_on(
        &topo,
        cfg.scaled(100),
        SimDuration::from_secs(30),
        seed ^ 0xbe,
    ));
    net.inject_flows(attack.flows.iter().copied());

    let end = SimTime::from_secs(35);
    match cfg.chaos {
        None => net.run_until(end, &mut cluster),
        Some(scenario) => {
            let store_nodes = athena.runtime().store.node_count();
            let plan = scenario.plan(
                &topo,
                store_nodes,
                seed,
                SimTime::from_secs(12),
                SimTime::from_secs(20),
            );
            let mut injector = FaultInjector::new(plan).with_store(athena.runtime().store.clone());
            let mut chaos = ChaosChannel::new(cluster, seed);
            run_with_faults(&mut net, end, &mut chaos, &mut injector);
        }
    }

    let det = DdosDetector::new(DdosDetectorConfig::default());
    let mut q = det.query();
    q.features = DdosDetector::features();
    let records = athena.request_features(&q);
    FamilyRun {
        family,
        records,
        malicious,
        attack_start: attack_cfg.start,
        tel,
    }
}

/// Trains every Table-IV algorithm on the base families' combined
/// records (held-out families never reach this set). Returns
/// `(algorithm, model)` pairs in matrix order; a `None` model marks a
/// fit failure and yields all-zero cells rather than aborting the run.
pub fn train_models(base_runs: &[&FamilyRun]) -> Vec<(Algorithm, Option<DetectionModel>)> {
    assert!(
        base_runs.iter().all(|r| !r.family.is_held_out()),
        "held-out families must never appear in a training split"
    );
    let det = DdosDetector::new(DdosDetectorConfig::default());
    let features = DdosDetector::features();
    let preprocessor = det.preprocessor();
    let dm = DetectorManager::new(ComputeCluster::new(2));
    let mut train: Vec<&FeatureRecord> = Vec::new();
    let mut malicious: BTreeSet<FiveTuple> = BTreeSet::new();
    for run in base_runs {
        train.extend(run.records.iter());
        malicious.extend(run.malicious.iter().copied());
    }
    // Deterministic stride subsample keeps training cost bounded without
    // biasing toward any one family's window.
    let cap = 12_000;
    let sampled: Vec<FeatureRecord> = if train.len() > cap {
        let stride = train.len().div_ceil(cap);
        train.iter().step_by(stride).map(|r| (*r).clone()).collect()
    } else {
        train.iter().map(|r| (*r).clone()).collect()
    };
    let truth = |r: &FeatureRecord| r.index.five_tuple.is_some_and(|ft| malicious.contains(&ft));
    table_iv_algorithms()
        .into_iter()
        .map(|algorithm| {
            let model = dm
                .generate_detection_model(&sampled, &features, truth, &preprocessor, &algorithm)
                .ok();
            (algorithm, model)
        })
        .collect()
}

/// One (attack × algorithm) cell of the matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// The attack family's tag.
    pub family: String,
    /// The algorithm's display name.
    pub algorithm: String,
    /// Whether the family was held out of training.
    pub held_out: bool,
    /// Fraction of malicious entries flagged.
    pub detection_rate: f64,
    /// Fraction of benign entries flagged.
    pub false_alarm_rate: f64,
    /// Virtual seconds from attack start to the first true positive
    /// (absent when the attack was never detected).
    pub time_to_detect_s: Option<f64>,
    /// Entries validated in this cell.
    pub entries: u64,
}

/// Evaluates one cell: validates one family's records against one model.
pub fn evaluate_cell(
    run: &FamilyRun,
    algorithm: &Algorithm,
    model: Option<&DetectionModel>,
) -> Cell {
    let held_out = run.family.is_held_out();
    let Some(model) = model else {
        return Cell {
            family: run.family.tag().to_owned(),
            algorithm: algorithm.name().to_owned(),
            held_out,
            detection_rate: 0.0,
            false_alarm_rate: 0.0,
            time_to_detect_s: None,
            entries: 0,
        };
    };
    let dm = DetectorManager::new(ComputeCluster::new(2));
    let truth = run.truth();
    let summary = dm.validate_features(&run.records, &truth, model);
    // Time-to-detect: the earliest-stamped record that is both truly
    // malicious and flagged. Records arrive in canonical store order, so
    // the minimum is scanned explicitly rather than assumed first.
    let mut first_hit: Option<SimTime> = None;
    for r in &run.records {
        if truth(r) && model.is_malicious(r) == Some(true) {
            first_hit = Some(match first_hit {
                Some(t) if t <= r.meta.timestamp => t,
                _ => r.meta.timestamp,
            });
        }
    }
    let time_to_detect_s = first_hit
        .map(|t| (t.as_micros().saturating_sub(run.attack_start.as_micros())) as f64 / 1_000_000.0);
    Cell {
        family: run.family.tag().to_owned(),
        algorithm: algorithm.name().to_owned(),
        held_out,
        detection_rate: summary.confusion.detection_rate(),
        false_alarm_rate: summary.confusion.false_alarm_rate(),
        time_to_detect_s,
        entries: summary.total_entries(),
    }
}

/// Per-unseen-family generalization summary: how well models trained on
/// base attacks carry over.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Generalization {
    /// The held-out family's tag.
    pub family: String,
    /// Mean detection rate across all algorithms.
    pub mean_detection_rate: f64,
    /// Mean false-alarm rate across all algorithms.
    pub mean_false_alarm_rate: f64,
    /// The best-generalizing algorithm and its detection rate.
    pub best_algorithm: String,
    /// Detection rate of `best_algorithm`.
    pub best_detection_rate: f64,
}

/// The complete evaluation matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixReport {
    /// The master seed.
    pub seed: u64,
    /// Whether smoke subsampling shrank the workloads.
    pub smoke: bool,
    /// The chaos scenario composed into every run, if any.
    pub chaos: Option<String>,
    /// Whether the stochastic link model was installed.
    pub link_model: bool,
    /// Every (family × algorithm) cell, families outermost, both in
    /// fixed taxonomy/menu order.
    pub cells: Vec<Cell>,
    /// Held-out generalization summaries, one per unseen family.
    pub generalization: Vec<Generalization>,
}

impl MatrixReport {
    /// The canonical byte-comparable JSON form.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn to_json(&self) -> Result<String, athena_types::AthenaError> {
        serde_json::to_string(self).map_err(|e| athena_types::AthenaError::Model(e.to_string()))
    }

    /// Writes the JSON artifact (the CI gate archives this).
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures.
    pub fn save_json(&self, path: &std::path::Path) -> Result<(), athena_types::AthenaError> {
        let json = self.to_json()?;
        std::fs::write(path, json)
            .map_err(|e| athena_types::AthenaError::Model(format!("write {}: {e}", path.display())))
    }

    /// The cell for `(family_tag, algorithm_name)`, if present.
    pub fn cell(&self, family: &str, algorithm: &str) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|c| c.family == family && c.algorithm == algorithm)
    }
}

/// Runs the whole matrix: one deployment per family, one training pass
/// per algorithm over the base families, then every cell.
pub fn run_matrix(cfg: &MatrixConfig) -> MatrixReport {
    let runs: Vec<FamilyRun> = AttackFamily::all()
        .iter()
        .map(|f| run_family(*f, cfg))
        .collect();
    let (base, held): (Vec<&FamilyRun>, Vec<&FamilyRun>) =
        runs.iter().partition(|r| !r.family.is_held_out());
    let models = train_models(&base);
    let mut cells = Vec::with_capacity(runs.len() * models.len());
    for run in &runs {
        for (algorithm, model) in &models {
            cells.push(evaluate_cell(run, algorithm, model.as_ref()));
        }
    }
    let generalization = held
        .iter()
        .map(|run| summarize_generalization(run, &cells))
        .collect();
    MatrixReport {
        seed: cfg.seed,
        smoke: cfg.smoke,
        chaos: cfg.chaos.map(|s| s.name().to_owned()),
        link_model: cfg.link_model.is_some(),
        cells,
        generalization,
    }
}

fn summarize_generalization(run: &FamilyRun, cells: &[Cell]) -> Generalization {
    let tag = run.family.tag();
    let family_cells: Vec<&Cell> = cells.iter().filter(|c| c.family == tag).collect();
    let n = family_cells.len().max(1) as f64;
    let mean_dr = family_cells.iter().map(|c| c.detection_rate).sum::<f64>() / n;
    let mean_far = family_cells.iter().map(|c| c.false_alarm_rate).sum::<f64>() / n;
    let best = family_cells
        .iter()
        .max_by(|a, b| {
            a.detection_rate
                .partial_cmp(&b.detection_rate)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|c| (c.algorithm.clone(), c.detection_rate))
        .unwrap_or_else(|| (String::new(), 0.0));
    Generalization {
        family: tag.to_owned(),
        mean_detection_rate: mean_dr,
        mean_false_alarm_rate: mean_far,
        best_algorithm: best.0,
        best_detection_rate: best.1,
    }
}

/// Recorded known-attack floors: `(family_tag, algorithm_name, min
/// detection rate, max false-alarm rate)`. These are the measured
/// seed-7 full-matrix numbers with a safety margin — the gate catches
/// regressions, not absolute quality. Only base-family cells with a
/// meaningful operating point are gated; held-out cells are reported,
/// never gated.
pub fn baselines() -> &'static [(&'static str, &'static str, f64, f64)] {
    BASELINES
}

/// The master seed the baselines were recorded under. Reports produced
/// with a different seed are informational and skip the gate.
pub const BASELINE_SEED: u64 = 7;

// SVM is excluded everywhere (its operating point swings with workload
// size), Threshold is excluded everywhere (0% DR after min-max
// normalization, by construction), and Gaussian Mixture is excluded on
// crossfire_lfa (it inverts there). flash_crowd is benign, so only its
// false-alarm ceiling is gated.
static BASELINES: &[(&str, &str, f64, f64)] = &[
    ("ddos_flood", "Gradient Boosted Tree", 0.85, 0.05),
    ("ddos_flood", "Decision Tree", 0.95, 0.02),
    ("ddos_flood", "Logistic Regression", 0.90, 0.05),
    ("ddos_flood", "Naive Bayes", 0.95, 0.10),
    ("ddos_flood", "Random Forest", 0.95, 0.02),
    ("ddos_flood", "Gaussian Mixture", 0.95, 0.15),
    ("ddos_flood", "K-Means", 0.90, 0.10),
    ("ddos_flood", "Lasso", 0.90, 0.05),
    ("ddos_flood", "Linear", 0.90, 0.05),
    ("ddos_flood", "Ridge", 0.90, 0.05),
    ("port_scan", "Gradient Boosted Tree", 0.95, 0.02),
    ("port_scan", "Decision Tree", 0.95, 0.02),
    ("port_scan", "Logistic Regression", 0.95, 0.03),
    ("port_scan", "Naive Bayes", 0.90, 0.05),
    ("port_scan", "Random Forest", 0.95, 0.02),
    ("port_scan", "Gaussian Mixture", 0.95, 0.15),
    ("port_scan", "K-Means", 0.95, 0.03),
    ("port_scan", "Lasso", 0.95, 0.03),
    ("port_scan", "Linear", 0.95, 0.03),
    ("port_scan", "Ridge", 0.95, 0.03),
    ("crossfire_lfa", "Gradient Boosted Tree", 0.95, 0.02),
    ("crossfire_lfa", "Decision Tree", 0.95, 0.02),
    ("crossfire_lfa", "Logistic Regression", 0.70, 0.02),
    ("crossfire_lfa", "Naive Bayes", 0.95, 0.03),
    ("crossfire_lfa", "Random Forest", 0.95, 0.02),
    ("crossfire_lfa", "K-Means", 0.95, 0.03),
    ("crossfire_lfa", "Lasso", 0.95, 0.03),
    ("crossfire_lfa", "Linear", 0.95, 0.03),
    ("crossfire_lfa", "Ridge", 0.95, 0.03),
    ("flash_crowd", "Gradient Boosted Tree", 0.0, 0.05),
    ("flash_crowd", "Decision Tree", 0.0, 0.02),
    ("flash_crowd", "Logistic Regression", 0.0, 0.05),
    ("flash_crowd", "Naive Bayes", 0.0, 0.25),
    ("flash_crowd", "Random Forest", 0.0, 0.02),
    ("flash_crowd", "SVM", 0.0, 0.10),
    ("flash_crowd", "Gaussian Mixture", 0.0, 0.15),
    ("flash_crowd", "K-Means", 0.0, 0.03),
    ("flash_crowd", "Lasso", 0.0, 0.05),
    ("flash_crowd", "Linear", 0.0, 0.05),
    ("flash_crowd", "Ridge", 0.0, 0.05),
];

/// Baseline violations in `report` (empty when the gate passes). Only
/// non-held-out cells are checked, and only for reports produced with
/// [`BASELINE_SEED`] — other seeds are exploratory.
pub fn regressions(report: &MatrixReport) -> Vec<String> {
    let mut out = Vec::new();
    if report.seed != BASELINE_SEED {
        return out;
    }
    for &(family, algorithm, min_dr, max_far) in baselines() {
        let Some(cell) = report.cell(family, algorithm) else {
            out.push(format!("{family} x {algorithm}: cell missing"));
            continue;
        };
        if cell.held_out {
            continue;
        }
        if cell.detection_rate < min_dr {
            out.push(format!(
                "{family} x {algorithm}: detection rate {:.4} < baseline {min_dr:.4}",
                cell.detection_rate
            ));
        }
        if cell.false_alarm_rate > max_far {
            out.push(format!(
                "{family} x {algorithm}: false-alarm rate {:.4} > baseline {max_far:.4}",
                cell.false_alarm_rate
            ));
        }
    }
    out
}
