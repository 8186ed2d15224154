//! Tier-1 gate: the whole-workspace static analysis must hold.
//!
//! This runs the same engine as `cargo run -p athena-analyze --bin
//! athena-lint`, in-process, so `cargo test` fails whenever a
//! panic-freedom, unsafe-freedom, lock-discipline, lock-order,
//! error-hygiene or unused-pub violation lands in production code — including
//! violations only visible through the workspace call graph (a panicking
//! helper three hops below a hot entry point, or a lock acquired in an
//! order that contradicts the derived acquisition graph).

use std::path::Path;

use athena_analyze::{Config, SourceFile};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_passes_athena_lint() {
    let analysis = athena_analyze::check_workspace(root()).expect("analysis engine runs");
    let report = &analysis.report;

    let mut failures: Vec<String> = report.diagnostics.iter().map(ToString::to_string).collect();
    failures.extend(report.stale_allows.iter().cloned());

    assert!(
        failures.is_empty(),
        "athena-lint found {} violation(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(report.files_scanned > 50, "lint walked the whole workspace");
}

#[test]
fn derived_lock_graph_is_cycle_free_and_ordered() {
    let analysis = athena_analyze::check_workspace(root()).expect("analysis engine runs");

    let cycles: Vec<_> = analysis
        .report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "lock-cycle")
        .collect();
    assert!(
        cycles.is_empty(),
        "derived lock graph has cycles: {cycles:?}"
    );

    // The derivation found real structure, not an empty graph.
    assert!(
        analysis.lock_graph.locks.len() >= 10,
        "expected the workspace's lock population, got {:?}",
        analysis.lock_graph.locks
    );
    assert!(
        !analysis.lock_graph.edges.is_empty(),
        "expected derived acquisition-order edges"
    );
    // Acyclic ⇒ the suggested order is a valid topological sort covering
    // every lock (cycle members would simply be appended, so the length
    // check alone is not enough — the cycle assert above is).
    assert_eq!(
        analysis.lock_graph.suggested_order.len(),
        analysis.lock_graph.locks.len()
    );
}

#[test]
fn suggested_lock_order_keeps_the_declared_positions() {
    // The apps' handler locks are taken inside closures, so no derived
    // edge places them; the suggestion must keep them after the core
    // locks, where the runtime sentinel's order needs them.
    let declared = athena_analyze::load_config(root())
        .expect("lint.toml parses")
        .lock_order;
    let analysis = athena_analyze::check_workspace(root()).expect("analysis engine runs");
    let suggested = &analysis.lock_graph.suggested_order;
    let at = |name: &str| {
        suggested
            .iter()
            .position(|s| s == name)
            .unwrap_or_else(|| panic!("`{name}` missing from {suggested:?}"))
    };
    for app in ["apps/alerts", "apps/state"] {
        assert!(
            at(app) > at("core/reactor"),
            "`{app}` suggested before `core/reactor`: {suggested:?}"
        );
    }
    // More strongly: the declared order is consistent with the edges, so
    // the suggestion lists the declared locks exactly as lint.toml does.
    let kept: Vec<&String> = suggested.iter().filter(|s| declared.contains(s)).collect();
    assert_eq!(kept, declared.iter().collect::<Vec<_>>());
}

#[test]
fn suggested_lock_order_ranks_declared_then_undeclared_by_name() {
    // `x/b` → `x/a` is the one derived edge; `x/d` has none and is
    // declared first; `x/c` has none and is not declared.
    let config = Config::parse(
        "[analyze]\n\
         hot_entries = []\n\
         lock_order = [\"x/d\", \"x/b\", \"x/a\"]\n\
         [lint]\n\
         bus_calls = [\"dispatch\"]\n\
         println_exempt = []\n\
         wallclock_exempt = []\n",
    )
    .expect("config parses");
    let files = [file(
        "crates/x/src/entry.rs",
        "use parking_lot::Mutex;\n\
         pub struct S { a: Mutex<u32>, b: Mutex<u32>, c: Mutex<u32>, d: Mutex<u32> }\n\
         impl S {\n\
             pub fn nested(&self) -> u32 {\n\
                 let gb = self.b.lock();\n\
                 let ga = self.a.lock();\n\
                 *ga + *gb\n\
             }\n\
             pub fn c(&self) -> u32 { *self.c.lock() }\n\
             pub fn d(&self) -> u32 { *self.d.lock() }\n\
         }",
    )];
    let analysis = athena_analyze::analyze_sources(&config, &files);
    let lock_findings: Vec<_> = analysis
        .report
        .diagnostics
        .iter()
        .filter(|d| d.rule.starts_with("lock"))
        .collect();
    assert!(lock_findings.is_empty(), "{lock_findings:?}");
    assert_eq!(
        analysis.lock_graph.suggested_order,
        ["x/d", "x/b", "x/a", "x/c"]
    );
}

#[test]
fn hot_propagation_reaches_transitive_helpers() {
    // None of these files appears in [analyze] hot_entries: they are
    // reached only through the call graph (forwarding path → match/route
    // helpers; engine phases → ordered fan-out; engine punt → the ECMP
    // controller stub's per-destination BFS in `network.rs`). A
    // hand-maintained per-file hot list would not cover them.
    let analysis = athena_analyze::check_workspace(root()).expect("analysis engine runs");
    for expected in [
        "crates/openflow/src/match_fields.rs::matches",
        "crates/dataplane/src/network.rs::ensure_dists",
        "crates/openflow/src/table.rs::winner",
        "crates/parallel/src/lib.rs::run_ordered",
    ] {
        assert!(
            analysis.hot_functions.iter().any(|h| h == expected),
            "{expected} should be transitively hot; got {} hot functions",
            analysis.hot_functions.len()
        );
    }
}

/// A minimal config for the seeded-violation tests below.
fn test_config(extra: &str) -> Config {
    Config::parse(&format!(
        "[analyze]\n\
         hot_entries = [\"crates/x/src/entry.rs::*\"]\n\
         lock_order = [\"x/a\", \"x/b\"]\n\
         {extra}\n\
         [lint]\n\
         bus_calls = [\"dispatch\"]\n\
         println_exempt = []\n\
         wallclock_exempt = []\n"
    ))
    .expect("test config parses")
}

fn file(path: &str, text: &str) -> SourceFile {
    SourceFile::new(path.to_string(), text.to_string())
}

#[test]
fn propagated_panic_carries_call_chain_witness() {
    // The unwrap lives two files away from the hot entry point; only the
    // call graph connects them. The finding must carry the chain.
    let config = test_config("");
    let files = [
        file(
            "crates/x/src/entry.rs",
            "pub fn per_packet(v: u8) -> u8 { crate::helper::step(v) }",
        ),
        file(
            "crates/x/src/helper.rs",
            "pub fn step(v: u8) -> u8 { deep(v) }\n\
             pub fn deep(v: u8) -> u8 { Some(v).unwrap() }",
        ),
    ];
    let analysis = athena_analyze::analyze_sources(&config, &files);
    let diags: Vec<_> = analysis
        .report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "no-panic-in-hot-path")
        .collect();
    assert_eq!(diags.len(), 1, "{:?}", analysis.report.diagnostics);
    assert_eq!(diags[0].file, "crates/x/src/helper.rs");
    assert!(
        !diags[0].witness.is_empty(),
        "propagated finding must explain how the site became hot"
    );
    assert!(
        diags[0].witness.iter().any(|h| h.contains("per_packet")),
        "witness should trace back to the hot entry: {:?}",
        diags[0].witness
    );
}

/// The `no-panic-in-hot-path` findings (the test config also declares
/// two locks, which a lock-free snippet leaves unmatched).
fn hot_panics(analysis: &athena_analyze::Analysis) -> Vec<&athena_analyze::Diagnostic> {
    let all = analysis.report.diagnostics.iter();
    all.filter(|d| d.rule == "no-panic-in-hot-path").collect()
}

/// A hot `per_packet` calling `self.index.get(k)`, with `index` declared
/// as `field_type`; `Index::get` lives in another file and reaches an
/// `unwrap` one hop down.
fn self_field_call(field_type: &str) -> athena_analyze::Analysis {
    let files = [
        file(
            "crates/x/src/entry.rs",
            &format!(
                "pub struct Engine {{ index: {field_type} }}\n\
                 impl Engine {{\n\
                     pub fn per_packet(&self, k: u64) -> Option<u8> {{ self.index.get(&k).copied() }}\n\
                 }}"
            ),
        ),
        file(
            "crates/x/src/index.rs",
            "pub struct Index { slots: Vec<u8> }\n\
             impl Index {\n\
                 pub fn get(&self, k: &u64) -> Option<&u8> { Some(must(self.slots.get(*k as usize))) }\n\
             }\n\
             fn must(v: Option<&u8>) -> &u8 { v.unwrap() }",
        ),
    ];
    athena_analyze::analyze_sources(&test_config(""), &files)
}

#[test]
fn self_field_call_resolves_through_the_declared_field_type() {
    // `get` is on the std stoplist, so by name alone the call graph ends
    // at `per_packet`. The field's declared type says whose `get` it is.
    let analysis = self_field_call("Index");
    let diags = hot_panics(&analysis);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].file, "crates/x/src/index.rs");
    assert!(
        diags[0].witness.iter().any(|h| h.contains("index.rs::get")),
        "witness should pass through Index::get: {:?}",
        diags[0].witness
    );

    // The same call on a std container names no workspace type: no edge.
    let analysis = self_field_call("std::collections::HashMap<u64, u8>");
    assert!(hot_panics(&analysis).is_empty());
    assert_eq!(
        analysis.hot_functions,
        ["crates/x/src/entry.rs::per_packet"]
    );
}

#[test]
fn field_type_picks_the_right_one_of_two_same_named_methods() {
    // Two crates define `lookup`; by name alone a call from a third is
    // ambiguous and dropped. The field is a `FlowTable`, so exactly that
    // `lookup` is hot — and the panicking one in the other crate is not.
    let files = [
        file(
            "crates/x/src/entry.rs",
            "pub struct Switch { table: athena_y::FlowTable }\n\
             impl Switch { pub fn process(&mut self) -> u8 { self.table.lookup() } }",
        ),
        file(
            "crates/y/src/table.rs",
            "pub struct FlowTable;\n\
             impl FlowTable { pub fn lookup(&mut self) -> u8 { 1 } }",
        ),
        file(
            "crates/z/src/routes.rs",
            "pub struct RouteTable;\n\
             impl RouteTable { pub fn lookup(&self) -> u8 { None::<u8>.unwrap() } }",
        ),
    ];
    let analysis = athena_analyze::analyze_sources(&test_config(""), &files);
    assert_eq!(
        analysis.hot_functions,
        [
            "crates/x/src/entry.rs::process",
            "crates/y/src/table.rs::lookup"
        ]
    );
    assert!(hot_panics(&analysis).is_empty());
}

#[test]
fn cfg_test_field_does_not_hide_the_following_impl() {
    // The attribute masks `probe` and nothing after it: `live`, the
    // `impl` and its `unwrap` are production code.
    let files = [file(
        "crates/x/src/entry.rs",
        "struct S { #[cfg(test)] probe: u32, live: u32 }\n\
         impl S { fn f(&self, v: Option<u8>) -> u8 { v.unwrap() } }",
    )];
    let analysis = athena_analyze::analyze_sources(&test_config(""), &files);
    assert_eq!(hot_panics(&analysis).len(), 1);
    assert_eq!(analysis.hot_functions, ["crates/x/src/entry.rs::f"]);
}

/// The `lock-discipline` findings for a method body of `S { a, bus }`.
fn discipline_findings(body: &str) -> (Vec<String>, athena_analyze::LockGraph) {
    let files = [file(
        "crates/x/src/guarded.rs",
        &format!(
            "use parking_lot::Mutex;\n\
             pub struct Bus;\n\
             impl Bus {{ pub fn dispatch(&self, _n: u32) {{}} }}\n\
             pub struct S {{ a: Mutex<u32>, bus: Bus }}\n\
             impl S {{ pub fn run(&self, m: &Mutex<u32>) -> u32 {{ {body} }} }}"
        ),
    )];
    let analysis = athena_analyze::analyze_sources(&test_config(""), &files);
    let findings = analysis
        .report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "lock-discipline")
        .map(|d| d.message.clone())
        .collect();
    (findings, analysis.lock_graph)
}

#[test]
fn guard_windows_end_at_drop_and_cover_unnamed_receivers() {
    // Held across a bus call and a second acquisition: both fire.
    let held = "let ga = self.a.lock(); let v = *ga; let _ = m;\n\
                self.bus.dispatch(v); let again = self.a.lock(); *again";
    let (findings, _) = discipline_findings(held);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().any(|m| m.contains("re-acquired")));
    assert!(findings.iter().any(|m| m.contains(".dispatch(")));

    // `drop(ga)` closes the window first: the same body is clean.
    let dropped = held.replace("let _ = m;", "let _ = m; drop(ga);");
    let (findings, _) = discipline_findings(&dropped);
    assert!(findings.is_empty(), "{findings:?}");

    // A receiver that cannot be named still holds a guard across the bus
    // call — but is no node of the lock graph.
    let unnamed = "let g = (*m).lock(); self.bus.dispatch(*g); *g";
    let (findings, graph) = discipline_findings(unnamed);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].contains("<expr>"), "{findings:?}");
    assert!(graph.locks.is_empty(), "{:?}", graph.locks);
    assert!(graph.edges.is_empty(), "{:?}", graph.edges);
}

#[test]
fn seeded_lock_inversion_fails_static_gate() {
    // lock_order declares a before b; this code acquires b then a. The
    // derived edge `x/b` → `x/a` must contradict the declared order.
    let config = test_config("");
    let files = [file(
        "crates/x/src/entry.rs",
        "use parking_lot::Mutex;\n\
         pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
         impl S {\n\
             pub fn inverted(&self) -> u32 {\n\
                 let gb = self.b.lock();\n\
                 let ga = self.a.lock();\n\
                 *ga + *gb\n\
             }\n\
         }",
    )];
    let analysis = athena_analyze::analyze_sources(&config, &files);
    let diags: Vec<_> = analysis
        .report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "lock-order-violation")
        .collect();
    assert_eq!(diags.len(), 1, "{:?}", analysis.report.diagnostics);
    assert!(
        diags[0].message.contains("`x/b` → `x/a`"),
        "{}",
        diags[0].message
    );

    // The same acquisitions split across two functions joined by a call
    // edge must be caught too — the graph-aware part.
    let files = [file(
        "crates/x/src/entry.rs",
        "use parking_lot::Mutex;\n\
         pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
         impl S {\n\
             pub fn outer(&self) -> u32 {\n\
                 let gb = self.b.lock();\n\
                 *gb + self.inner()\n\
             }\n\
             fn inner(&self) -> u32 {\n\
                 *self.a.lock()\n\
             }\n\
         }",
    )];
    let analysis = athena_analyze::analyze_sources(&config, &files);
    assert!(
        analysis
            .report
            .diagnostics
            .iter()
            .any(|d| d.rule == "lock-order-violation"),
        "cross-function inversion missed: {:?}",
        analysis.report.diagnostics
    );
}

#[test]
fn stale_allow_entries_fail_the_gate_with_a_pointer() {
    let config = test_config(
        "[[allow]]\n\
         rule = \"no-panic-in-hot-path\"\n\
         file = \"crates/x/src/entry.rs\"\n\
         pattern = \"nothing matches this\"\n\
         reason = \"stale on purpose\"\n",
    );
    let files = [file(
        "crates/x/src/entry.rs",
        "pub fn per_packet(v: u8) -> u8 { v }",
    )];
    let analysis = athena_analyze::analyze_sources(&config, &files);
    assert!(
        analysis.report.has_errors(),
        "stale allow must fail the gate"
    );
    assert_eq!(analysis.report.stale_allows.len(), 1);
    assert!(
        analysis.report.stale_allows[0].contains("lint.toml:"),
        "stale-allow report must point at the line to delete: {}",
        analysis.report.stale_allows[0]
    );

    // With no sources the seeded hot entry matches nothing either: that
    // finding points at the `hot_entries` key (line 2 of the test config).
    let analysis = athena_analyze::analyze_sources(&config, &[]);
    let unmatched: Vec<_> = analysis
        .report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "hot-entry-unmatched")
        .map(|d| (d.file.as_str(), d.line))
        .collect();
    assert_eq!(unmatched, [("lint.toml", 2)]);
}

#[test]
fn lint_catches_println_in_library_code() {
    use athena_analyze::rules::no_println_in_lib;

    let config = athena_analyze::load_config(root()).expect("lint.toml parses");

    let lib = file(
        "crates/store/src/cluster.rs",
        "fn log(n: u64) { println!(\"{n}\"); }",
    );
    let mut out = Vec::new();
    no_println_in_lib(&lib, &config, &mut out);
    assert_eq!(out.len(), 1, "library println must be flagged: {out:?}");

    // The same text in an exempt binary path is fine.
    let bin = file(
        "crates/bench/src/bin/table9_cbench.rs",
        "fn log(n: u64) { println!(\"{n}\"); }",
    );
    let mut out = Vec::new();
    no_println_in_lib(&bin, &config, &mut out);
    assert!(out.is_empty(), "exempt binaries may print: {out:?}");
}

/// The names `unused-pub` flags among `files`.
fn unused_pub(files: &[SourceFile]) -> Vec<String> {
    let analysis = athena_analyze::analyze_sources(&test_config(""), files);
    let all = analysis.report.diagnostics.iter();
    all.filter(|d| d.rule == "unused-pub")
        .map(|d| format!("{}:{}", d.file, d.line))
        .collect()
}

#[test]
fn unused_pub_counts_names_in_tests_and_the_ledger() {
    // A name is used when any other file spells it — a reference-only
    // source counts, and is itself checked by no rule.
    let api = || {
        file(
            "crates/x/src/api.rs",
            "pub fn probed_by_tests() {}\npub fn probed_by_ledger() {}",
        )
    };
    let tests = || {
        file(
            "tests/e2e.rs",
            "fn main() { println!(\"{:?}\", probed_by_tests()); }",
        )
    };
    let ledger = || file("ledger/src/probes.rs", "fn p() { probed_by_ledger(); }");

    assert_eq!(unused_pub(&[api(), tests()]), ["crates/x/src/api.rs:2"]);
    assert_eq!(unused_pub(&[api(), ledger()]), ["crates/x/src/api.rs:1"]);
    let analysis = athena_analyze::analyze_sources(&test_config(""), &[api(), tests(), ledger()]);
    let rules: Vec<_> = analysis.report.diagnostics.iter().map(|d| d.rule).collect();
    assert!(!rules.contains(&"unused-pub"), "{rules:?}");
    assert!(!rules.contains(&"no-println-in-lib"), "{rules:?}");
}

#[test]
fn unused_pub_skips_test_regions() {
    // A `pub fn` inside `#[cfg(test)]` is test code, never flagged.
    let files = [file(
        "crates/x/src/lib.rs",
        "#[cfg(test)]\nmod oracle { pub fn naive() {} }\n\
         #[cfg(test)]\npub fn helper() {}",
    )];
    assert!(unused_pub(&files).is_empty());
}

#[test]
fn unused_pub_ignores_use_items_and_comments() {
    // A re-export names the function without using it; so does a doc
    // comment. Both are flagged, `pub(crate)` and qualifiers included.
    let files = [
        file(
            "crates/x/src/wal.rs",
            "pub fn re_exported() {}\n\
             /// Called by [`documented`]'s callers.\n\
             pub(crate) const fn documented() {}\n\
             pub fn called() {}",
        ),
        file(
            "crates/x/src/lib.rs",
            "pub use wal::{called, re_exported};\n\
             // documented() is described here, never called.\n\
             fn run() { called() }",
        ),
    ];
    assert_eq!(
        unused_pub(&files),
        ["crates/x/src/wal.rs:1", "crates/x/src/wal.rs:3"]
    );
}

#[test]
fn unused_pub_field_counts_names_in_tests_and_the_ledger() {
    // A field is used when any other file spells its name: a read from
    // `tests/` or a write from `ledger/src` both count.
    let api = || {
        file(
            "crates/x/src/report.rs",
            "pub struct Report {\n    pub read_by_tests: u64,\n    pub set_by_ledger: u64,\n}",
        )
    };
    let tests = || file("tests/e2e.rs", "fn t(r: Report) -> u64 { r.read_by_tests }");
    let ledger = || {
        file(
            "ledger/src/probes.rs",
            "fn p(r: &mut Report) { r.set_by_ledger = 1; }",
        )
    };

    assert_eq!(unused_pub(&[api(), tests()]), ["crates/x/src/report.rs:3"]);
    assert_eq!(unused_pub(&[api(), ledger()]), ["crates/x/src/report.rs:2"]);
    assert!(unused_pub(&[api(), tests(), ledger()]).is_empty());
}

#[test]
fn unused_pub_field_exempts_serde_structs() {
    // The derived encoder reads every field of a `Serialize` or
    // `Deserialize` struct; a plain struct's field is flagged.
    let files = [file(
        "crates/x/src/artifact.rs",
        "#[derive(Debug, Serialize)]\npub struct Written { pub total: u64 }\n\
         #[derive(Clone, serde::Deserialize)]\n#[serde(deny_unknown_fields)]\n\
         pub struct Read { pub source: String }\n\
         #[derive(Debug)]\npub struct Plain { pub width: u64 }",
    )];
    assert_eq!(unused_pub(&files), ["crates/x/src/artifact.rs:7"]);
}

#[test]
fn unused_pub_field_skips_test_regions() {
    // A struct inside `#[cfg(test)]` or `mod tests` is test code, and so
    // is a `#[cfg(test)]` field of a production struct.
    let files = [file(
        "crates/x/src/lib.rs",
        "pub struct Live { #[cfg(test)] pub probe: u64, inner: u64 }\n\
         #[cfg(test)]\nmod tests { pub struct Fixture { pub knob: u64 } }\n\
         #[cfg(test)]\npub struct Oracle { pub naive: bool }",
    )];
    assert!(unused_pub(&files).is_empty());
}

#[test]
fn unused_pub_field_flags_crate_visibility_and_ignores_use_items() {
    // `pub(crate)` is public for the rule, and naming the field in a
    // `use` item of another file (a same-named re-export) is no use.
    let files = [
        file(
            "crates/x/src/window.rs",
            "pub(crate) struct Window {\n    pub(crate) horizon: u64,\n    pub len: usize,\n}",
        ),
        file(
            "crates/x/src/lib.rs",
            "pub use window::{horizon, Window};\nfn size(w: &Window) -> usize { w.len }",
        ),
    ];
    assert_eq!(unused_pub(&files), ["crates/x/src/window.rs:2"]);
}

/// Production files allowed a bare `std::sync` lock, with the reason.
const BARE_LOCKS_ALLOWED: &[(&str, &str)] = &[
    (
        "crates/types/src/sentinel.rs",
        "the tracker itself: its STATE records every tracked acquisition, \
         and the tracked types wrap std::sync",
    ),
    (
        "crates/parallel/src/lib.rs",
        "per-call result cells, each claimed once and never nested",
    ),
];

/// Every `.rs` file under `dir`, recursively, relative to the root.
fn rust_files(dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root()).expect("under the root");
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

#[test]
fn every_production_lock_is_sentinel_tracked() {
    // Every named lock is a `TrackedMutex` / `TrackedRwLock`, so the
    // runtime sentinel sees every acquisition the static graph misses.
    // Test code (`#[cfg(test)]`, `mod tests`) may use what it likes.
    let mut files = Vec::new();
    rust_files(&root().join("src"), &mut files);
    let crates = std::fs::read_dir(root().join("crates")).expect("crates/ exists");
    for krate in crates.flatten() {
        rust_files(&krate.path().join("src"), &mut files);
    }
    assert!(files.len() > 100, "walked the production tree: {files:?}");

    let mut found = Vec::new();
    for rel in files {
        let text = std::fs::read_to_string(root().join(&rel)).expect("readable source");
        let allowed = BARE_LOCKS_ALLOWED.iter().any(|(path, _)| *path == rel);
        for t in file(&rel, &text).tokens.iter().filter(|t| !t.in_test) {
            let bare = t.is_ident("Mutex") || t.is_ident("RwLock");
            if t.is_ident("parking_lot") || (bare && !allowed) {
                found.push(format!("{rel}:{}:{}: `{}`", t.line, t.col, t.text));
            }
        }
    }
    assert!(
        found.is_empty(),
        "untracked locks in production code (use athena_types::sentinel's \
         TrackedMutex / TrackedRwLock):\n{}",
        found.join("\n")
    );
}
