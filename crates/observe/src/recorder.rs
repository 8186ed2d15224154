//! Completed causal spans and events, plus their export formats.
//!
//! Everything here is stamped with **virtual time only** — no wall
//! clock — so recorded traces are byte-identical across reruns and
//! thread counts. (What a boundary costs on the wall clock is in the
//! `*_ns` histograms of `athena-telemetry`.)

use athena_telemetry::json;
use athena_types::SimTime;
use std::fmt::Write as _;

/// One finished causal span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalSpan {
    /// Trace the span belongs to.
    pub trace_id: u64,
    /// The span's own id (unique within the recorder).
    pub span_id: u64,
    /// Parent span id (`0` for trace roots).
    pub parent_id: u64,
    /// Subsystem that opened the span.
    pub subsystem: &'static str,
    /// Operation name.
    pub name: &'static str,
    /// Virtual start time.
    pub start: SimTime,
    /// Virtual end time (>= start).
    pub end: SimTime,
    /// Free-form detail attached at finish.
    pub detail: String,
}

/// One instantaneous causal event (verdicts, alert transitions, fault
/// decisions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalEvent {
    /// Trace the event belongs to (`0` when none was active).
    pub trace_id: u64,
    /// Enclosing span id (`0` when none was active).
    pub span_id: u64,
    /// Subsystem that recorded the event.
    pub subsystem: &'static str,
    /// Event name.
    pub name: &'static str,
    /// Virtual timestamp.
    pub at: SimTime,
    /// Free-form detail.
    pub detail: String,
}

/// Renders spans and events as a Chrome-trace (`chrome://tracing` /
/// Perfetto loadable) JSON document. Spans become complete (`"X"`)
/// events on a per-trace track; events become instants (`"i"`).
pub fn chrome_trace_json(spans: &[CausalSpan], events: &[CausalEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for s in spans {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        // Zero-length spans (work inside one virtual tick) get a 1 µs
        // floor so the viewer renders them.
        let dur = s.end.as_micros().saturating_sub(s.start.as_micros()).max(1);
        let _ = write!(
            out,
            "{{\"name\":\"{}/{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\
             \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"trace_id\":\"{:#018x}\",\
             \"span_id\":{},\"parent_id\":{},\"detail\":",
            s.subsystem,
            s.name,
            s.subsystem,
            s.trace_id % 1_000_000,
            s.start.as_micros(),
            dur,
            s.trace_id,
            s.span_id,
            s.parent_id,
        );
        json::string_into(&mut out, &s.detail);
        out.push_str("}}");
    }
    for e in events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}/{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\
             \"tid\":{},\"ts\":{},\"args\":{{\"trace_id\":\"{:#018x}\",\"detail\":",
            e.subsystem,
            e.name,
            e.subsystem,
            e.trace_id % 1_000_000,
            e.at.as_micros(),
            e.trace_id,
        );
        json::string_into(&mut out, &e.detail);
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// Renders spans as folded stacks (`a;b;c <weight>` lines, one per
/// span), suitable for `flamegraph.pl` / speedscope. The weight is the
/// span's self time in microseconds with a 1 µs floor, so sub-tick spans
/// still show up as samples.
pub fn folded_stacks(spans: &[CausalSpan]) -> String {
    use std::collections::BTreeMap;
    // span_id → index, for parent-chain resolution.
    let by_id: BTreeMap<u64, &CausalSpan> = spans.iter().map(|s| (s.span_id, s)).collect();
    let mut child_micros: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent_id != 0 {
            *child_micros.entry(s.parent_id).or_default() +=
                s.end.as_micros().saturating_sub(s.start.as_micros());
        }
    }
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let mut frames = vec![format!("{}/{}", s.subsystem, s.name)];
        let mut cur = s.parent_id;
        // Bounded walk: cycles are impossible by construction, but a
        // dropped parent just truncates the stack.
        for _ in 0..64 {
            let Some(p) = by_id.get(&cur) else { break };
            frames.push(format!("{}/{}", p.subsystem, p.name));
            cur = p.parent_id;
        }
        frames.reverse();
        let total = s.end.as_micros().saturating_sub(s.start.as_micros());
        let self_time = total
            .saturating_sub(child_micros.get(&s.span_id).copied().unwrap_or(0))
            .max(1);
        *folded.entry(frames.join(";")).or_default() += self_time;
    }
    let mut out = String::new();
    for (stack, weight) in folded {
        let _ = writeln!(out, "{stack} {weight}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, name: &'static str) -> CausalSpan {
        CausalSpan {
            trace_id: trace,
            span_id: id,
            parent_id: parent,
            subsystem: "test",
            name,
            start: SimTime::from_micros(10),
            end: SimTime::from_micros(30),
            detail: String::new(),
        }
    }

    #[test]
    fn chrome_trace_is_json_shaped_and_carries_trace_ids() {
        let spans = [span(0xabc, 1, 0, "root"), span(0xabc, 2, 1, "child")];
        let out = chrome_trace_json(&spans, &[]);
        assert!(out.starts_with('{') && out.trim_end().ends_with('}'));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("0x0000000000000abc"));
        assert!(out.contains("\"parent_id\":1"));
    }

    #[test]
    fn folded_stacks_nest_and_weight() {
        let spans = [span(1, 1, 0, "root"), span(1, 2, 1, "child")];
        let out = folded_stacks(&spans);
        assert!(out.contains("test/root;test/child 20"), "{out}");
        // Root self time: 20 total − 20 in child → floored to 1.
        assert!(out.contains("test/root 1"), "{out}");
    }
}
