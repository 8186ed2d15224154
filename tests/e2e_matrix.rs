//! The Table-IV evaluation matrix as a test: every (attack family ×
//! algorithm) cell runs, known-attack cells gate against recorded
//! baselines, held-out (unseen) families report generalization
//! separately, the JSON artifact is written, and the whole matrix is
//! byte-identical across reruns. A final arm composes a matrix cell
//! with a chaos scenario to show evaluation and fault injection stack.
//!
//! Workloads run in smoke scale (halved, never skipped) so the suite
//! stays fast in debug builds; the baselines hold at both scales, and an
//! `#[ignore]`d twin runs the same body at full scale.

use std::collections::BTreeSet;

use athena::faults::Scenario;
use athena::workloads::AttackFamily;
use athena_bench::matrix::{
    evaluate_cell, regressions, run_family, run_matrix, train_models, MatrixConfig, BASELINE_SEED,
};

fn matrix_config(smoke: bool) -> MatrixConfig {
    MatrixConfig {
        seed: BASELINE_SEED,
        smoke,
        ..MatrixConfig::default()
    }
}

#[test]
fn every_cell_runs_and_known_attacks_hold_their_baselines() {
    matrix_gate(true, "target/BENCH_matrix.json");
}

#[test]
#[ignore = "full-scale matrix; run with --release -- --ignored"]
fn every_cell_runs_and_known_attacks_hold_their_baselines_at_full_scale() {
    matrix_gate(false, "target/BENCH_matrix_full.json");
}

fn matrix_gate(smoke: bool, artifact: &str) {
    let cfg = matrix_config(smoke);
    let report = run_matrix(&cfg);

    // Every (family x algorithm) cell is present exactly once.
    let n_families = AttackFamily::all().len();
    assert_eq!(report.cells.len(), n_families * 12, "matrix is complete");
    let keys: BTreeSet<_> = report
        .cells
        .iter()
        .map(|c| (c.family.clone(), c.algorithm.clone()))
        .collect();
    assert_eq!(keys.len(), report.cells.len(), "no duplicate cells");
    for family in AttackFamily::all() {
        let held = report
            .cells
            .iter()
            .filter(|c| c.family == family.tag())
            .all(|c| c.held_out == family.is_held_out());
        assert!(held, "{} cells carry the held-out flag", family.tag());
    }

    // Known-attack cells never regress below the recorded floors.
    let bad = regressions(&report);
    assert!(bad.is_empty(), "baseline regressions: {bad:?}");

    // Unseen families are reported separately, one summary per family,
    // and are never part of the gated set.
    assert_eq!(report.generalization.len(), AttackFamily::unseen().len());
    for g in &report.generalization {
        let family: Vec<_> = AttackFamily::unseen()
            .iter()
            .filter(|f| f.tag() == g.family)
            .collect();
        assert_eq!(family.len(), 1, "summary for unseen family {}", g.family);
        assert!(
            (0.0..=1.0).contains(&g.mean_detection_rate),
            "{}: DR in range",
            g.family
        );
        assert!(
            g.best_detection_rate >= g.mean_detection_rate,
            "{}: best >= mean",
            g.family
        );
    }
    let gated: BTreeSet<_> = athena_bench::matrix::baselines()
        .iter()
        .map(|(f, _, _, _)| *f)
        .collect();
    for f in AttackFamily::unseen() {
        assert!(!gated.contains(f.tag()), "{} is never gated", f.tag());
    }

    // The artifact is written and non-empty.
    let path = std::path::Path::new(artifact);
    report.save_json(path).expect("artifact written");
    let bytes = std::fs::read(path).expect("artifact readable");
    assert!(!bytes.is_empty());
    let json = report.to_json().expect("serialize");
    assert_eq!(bytes, json.clone().into_bytes());

    // A full rerun of the matrix is byte-identical.
    let rerun = run_matrix(&cfg);
    assert_eq!(
        rerun.to_json().expect("serialize"),
        json,
        "rerun is byte-identical"
    );
}

#[test]
fn matrix_cells_compose_with_chaos_scenarios() {
    let cfg = matrix_config(true);

    // Train on the clean base families, evaluate the DDoS cell while a
    // controller crashes and rejoins mid-attack.
    let base_runs: Vec<_> = AttackFamily::base()
        .iter()
        .map(|f| run_family(*f, &cfg))
        .collect();
    let models = train_models(&base_runs.iter().collect::<Vec<_>>());

    let chaos_cfg = MatrixConfig {
        chaos: Some(Scenario::ControllerCrash),
        ..cfg
    };
    let run = run_family(AttackFamily::Ddos, &chaos_cfg);
    assert!(
        !run.records.is_empty(),
        "features still collected under chaos"
    );

    // Every metric the matrix stack emits — workloads/*, the new
    // dataplane link_* names included — is in the names registry.
    for r in base_runs.iter().chain(std::iter::once(&run)) {
        let undeclared = athena::telemetry::names::undeclared(&r.tel.report());
        assert!(
            undeclared.is_empty(),
            "{}: undeclared metrics: {undeclared:?}",
            r.family.tag()
        );
    }

    let mut evaluated = 0usize;
    for (algorithm, model) in &models {
        let cell = evaluate_cell(&run, algorithm, model.as_ref());
        assert_eq!(cell.family, AttackFamily::Ddos.tag());
        assert!((0.0..=1.0).contains(&cell.detection_rate));
        assert!((0.0..=1.0).contains(&cell.false_alarm_rate));
        evaluated += 1;
        // The strong tree ensembles should still see the flood even
        // with a controller instance down for part of the attack.
        if algorithm.name() == "Random Forest" {
            assert!(
                cell.detection_rate > 0.5,
                "forest under chaos: {}",
                cell.detection_rate
            );
        }
    }
    assert_eq!(evaluated, 12, "all algorithms evaluated under chaos");

    // The chaos run itself is deterministic.
    let again = run_family(AttackFamily::Ddos, &chaos_cfg);
    assert_eq!(run.records.len(), again.records.len());
    assert_eq!(run.malicious, again.malicious);
}
