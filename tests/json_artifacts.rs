//! Every JSON artifact parses as JSON and reads back what went in: the
//! Chrome trace (`target/chrome-trace.json`), the observe report with its
//! metric snapshot (`target/observe-report.json`) and the analysis report
//! (`athena-lint --json`, the compact JSON of an `Analysis`).

use athena::observe::Observe;
use athena::telemetry::Telemetry;
use athena::types::SimTime;
use athena_analyze::{Config, SourceFile};
use serde_json::{json, Value};

/// What a JSON writer must escape: a quote, a backslash, a newline and a
/// control character.
const DETAIL: &str = "a\"b\\c\nd\u{1}e";

fn parse(text: &str) -> Value {
    serde_json::from_str(text).unwrap_or_else(|e| panic!("not JSON ({e}): {text}"))
}

/// The array at `path` under `v`.
fn list<'a>(v: &'a Value, path: &[&str]) -> &'a Vec<Value> {
    let mut at = v;
    for key in path {
        at = at.get(key).unwrap_or_else(|| panic!("no {key} in {at:?}"));
    }
    at.as_array()
        .unwrap_or_else(|| panic!("{path:?} is not an array"))
}

#[test]
fn chrome_trace_and_observe_report_parse_and_read_back() {
    let tel = Telemetry::new();
    tel.metrics().counter("dataplane", "packet_ins").add(3);
    let obs = Observe::with_telemetry(7, &tel);
    let root = obs.span_at("dataplane", "packet_in", SimTime::from_secs(1));
    obs.event("core", "verdict", DETAIL);
    root.finish(DETAIL);

    let trace = parse(&obs.export_chrome_trace());
    let events = list(&trace, &["traceEvents"]);
    assert_eq!(events.len(), obs.spans().len() + obs.events().len());
    let trace_id = format!("{:#018x}", obs.trace_ids()[0]);
    for e in events {
        let args = e.get("args").expect("args");
        assert_eq!(args.get("detail"), Some(&json!(DETAIL)), "{e:?}");
        assert_eq!(args.get("trace_id"), Some(&json!(trace_id.as_str())));
    }

    let report = parse(&obs.report().to_json().expect("serializes"));
    assert!(!list(&report, &["metrics", "counters"]).is_empty());
    assert_eq!(report.get("spans"), Some(&json!(1)));

    let bare = parse(&Observe::new(7).report().to_json().expect("serializes"));
    assert!(list(&bare, &["metrics", "counters"]).is_empty());
}

#[test]
fn analysis_report_parses_and_reads_back() {
    // A hot-path panic (a finding with a witness) and a stale allow (a
    // message that quotes its pattern).
    let config = Config::parse(
        "[analyze]\n\
         hot_entries = [\"crates/x/src/entry.rs::*\"]\n\
         lock_order = []\n\
         [lint]\n\
         bus_calls = []\n\
         println_exempt = []\n\
         wallclock_exempt = []\n\
         [[allow]]\n\
         rule = \"no-panic-in-hot-path\"\n\
         file = \"crates/x/src/entry.rs\"\n\
         pattern = \"nothing matches this\"\n\
         reason = \"stale on purpose\"\n",
    )
    .expect("config parses");
    let files = [
        SourceFile::new(
            "crates/x/src/entry.rs".into(),
            "pub fn per_packet(v: u8) -> u8 { crate::helper::step(v) }".into(),
        ),
        SourceFile::new(
            "crates/x/src/helper.rs".into(),
            "pub fn step(v: u8) -> u8 { Some(v).unwrap() }".into(),
        ),
    ];
    let analysis = athena_analyze::analyze_sources(&config, &files);
    assert!(!analysis.report.diagnostics.is_empty());
    assert_eq!(analysis.report.stale_allows.len(), 1);

    let report = parse(&serde_json::to_string(&analysis).expect("serializes"));
    let findings = list(&report, &["report", "diagnostics"]);
    assert_eq!(findings.len(), analysis.report.diagnostics.len());
    for (parsed, d) in findings.iter().zip(&analysis.report.diagnostics) {
        assert_eq!(parsed.get("message"), Some(&json!(d.message.as_str())));
        assert_eq!(parsed.get("witness"), Some(&json!(d.witness.clone())));
    }
    assert_eq!(
        list(&report, &["report", "stale_allows"]),
        &[json!(analysis.report.stale_allows[0].as_str())]
    );
    assert_eq!(
        list(&report, &["hot_functions"]).len(),
        analysis.hot_functions.len()
    );
}
