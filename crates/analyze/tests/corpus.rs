//! Self-test over the violation corpus: one deliberately-bad snippet per
//! rule, each asserting that it fires *exactly* its expected rule,
//! exactly once, and nothing else. This is the proof that the gate can actually
//! fail — a rule that silently stops matching turns up here, not in a
//! shipped deadlock.
//!
//! Snippets live in `tests/corpus/*.rs`; they are analyzed as if they
//! sat at `crates/corpus/src/<name>.rs`, so crate-qualified lock names
//! come out as `corpus/<field>`.

use athena_analyze::{analyze_sources, Config, SourceFile};

/// A corpus case: snippet text, the rule it must fire, and whether the
/// finding must carry a call-chain witness (propagated findings only).
struct Case {
    name: &'static str,
    source: &'static str,
    rule: &'static str,
    hot_seed: bool,
    lock_order: &'static [&'static str],
    wants_witness: bool,
}

const CASES: &[Case] = &[
    Case {
        name: "lock_cycle",
        source: include_str!("corpus/lock_cycle.rs"),
        rule: "lock-cycle",
        hot_seed: false,
        lock_order: &["corpus/a", "corpus/b"],
        wants_witness: false,
    },
    Case {
        name: "lock_inversion",
        source: include_str!("corpus/lock_inversion.rs"),
        rule: "lock-order-violation",
        hot_seed: false,
        lock_order: &["corpus/a", "corpus/b"],
        wants_witness: false,
    },
    Case {
        name: "bus_under_guard",
        source: include_str!("corpus/bus_under_guard.rs"),
        rule: "bus-call-under-guard",
        hot_seed: false,
        lock_order: &[],
        wants_witness: true,
    },
    Case {
        name: "hot_panic",
        source: include_str!("corpus/hot_panic.rs"),
        rule: "no-panic-in-hot-path",
        hot_seed: true,
        lock_order: &[],
        wants_witness: true,
    },
    Case {
        name: "hot_unordered",
        source: include_str!("corpus/hot_unordered.rs"),
        rule: "no-unordered-iter-in-hot-path",
        hot_seed: true,
        lock_order: &[],
        wants_witness: false,
    },
    Case {
        name: "wallclock",
        source: include_str!("corpus/wallclock.rs"),
        rule: "no-wallclock-in-lib",
        hot_seed: false,
        lock_order: &[],
        wants_witness: false,
    },
    Case {
        name: "println_lib",
        source: include_str!("corpus/println_lib.rs"),
        rule: "no-println-in-lib",
        hot_seed: false,
        lock_order: &[],
        wants_witness: false,
    },
    Case {
        name: "unsafe_code",
        source: include_str!("corpus/unsafe_code.rs"),
        rule: "forbid-unsafe",
        hot_seed: false,
        lock_order: &[],
        wants_witness: false,
    },
    Case {
        name: "boxed_error",
        source: include_str!("corpus/boxed_error.rs"),
        rule: "error-hygiene",
        hot_seed: false,
        lock_order: &[],
        wants_witness: false,
    },
    Case {
        name: "self_deadlock",
        source: include_str!("corpus/self_deadlock.rs"),
        rule: "lock-discipline",
        hot_seed: false,
        lock_order: &[],
        wants_witness: false,
    },
];

fn config_for(case: &Case) -> Config {
    let hot_entries = if case.hot_seed {
        format!("[\"crates/corpus/src/{}.rs::hot_entry\"]", case.name)
    } else {
        "[]".to_string()
    };
    let lock_order = case
        .lock_order
        .iter()
        .map(|l| format!("\"{l}\""))
        .collect::<Vec<_>>()
        .join(", ");
    Config::parse(&format!(
        "[analyze]\n\
         hot_entries = {hot_entries}\n\
         lock_order = [{lock_order}]\n\
         lock_helpers = [\"lock_std\"]\n\
         [lint]\n\
         bus_calls = [\"dispatch\"]\n\
         println_exempt = []\n\
         wallclock_exempt = []\n"
    ))
    .expect("corpus config parses")
}

#[test]
fn each_corpus_snippet_fires_exactly_its_rule() {
    for case in CASES {
        let config = config_for(case);
        let files = [SourceFile::new(
            format!("crates/corpus/src/{}.rs", case.name),
            case.source.to_string(),
        )];
        let analysis = analyze_sources(&config, &files);
        let fired: Vec<(&str, &str)> = analysis
            .report
            .diagnostics
            .iter()
            .map(|d| (d.rule, d.message.as_str()))
            .collect();
        assert_eq!(
            fired.len(),
            1,
            "corpus/{}: expected exactly one finding, got {fired:?}",
            case.name
        );
        assert_eq!(
            fired[0].0, case.rule,
            "corpus/{}: wrong rule fired: {fired:?}",
            case.name
        );
        assert!(
            analysis.report.stale_allows.is_empty(),
            "corpus/{}: unexpected stale allows",
            case.name
        );
        let witness = &analysis.report.diagnostics[0].witness;
        if case.wants_witness {
            assert!(
                !witness.is_empty(),
                "corpus/{}: propagated finding must carry a call-chain witness",
                case.name
            );
        }
    }
}

#[test]
fn corpus_snippets_are_clean_without_their_trigger_config() {
    // The hot-path cases fire only because their seed makes them hot:
    // with no hot entries the same code is (correctly) unflagged,
    // proving the findings come from reachability, not a file-wide scan.
    for name in ["hot_panic", "hot_unordered"] {
        let case = CASES.iter().find(|c| c.name == name).expect("case exists");
        let config = Config::parse(
            "[analyze]\n\
             hot_entries = []\n\
             lock_order = []\n\
             lock_helpers = [\"lock_std\"]\n\
             [lint]\n\
             bus_calls = [\"dispatch\"]\n\
             println_exempt = []\n\
             wallclock_exempt = []\n",
        )
        .expect("config parses");
        let files = [SourceFile::new(
            format!("crates/corpus/src/{}.rs", case.name),
            case.source.to_string(),
        )];
        let analysis = analyze_sources(&config, &files);
        assert!(
            analysis.report.diagnostics.is_empty(),
            "corpus/{name}: should be clean without the hot seed: {:?}",
            analysis.report.diagnostics
        );
    }
}
