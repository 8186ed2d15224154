//! Causal cross-subsystem observability for the Athena reproduction.
//!
//! `athena-observe` layers three things on top of `athena-telemetry`:
//!
//! 1. **Causal trace propagation** — an [`Observe`] handle hands out
//!    RAII span guards whose parentage is carried on a thread-local
//!    [`TraceContext`] stack, so one seed-derived trace id stitches a
//!    packet-in through the chaos channel, the controller pipeline,
//!    Athena's southbound elements, the store quorum write, compute
//!    jobs, and the detection verdict. Traces are stamped with virtual
//!    time only and export as Chrome-trace JSON and folded flamegraph
//!    stacks.
//! 2. **A time-series engine** — every sample tick snapshots the
//!    telemetry registry into fixed-capacity ring series with windowed
//!    rate/p99/stall queries ([`SeriesEngine`]).
//! 3. **An alert-rule engine** — declarative SLO rules
//!    ([`AlertRule`], [`standard_rules`]) evaluated at each sample,
//!    with fire/clear transitions recorded as deterministic
//!    virtual-time events; the chaos matrix gates on every injected
//!    fault firing and clearing its mapped alert.
//!
//! A disabled handle ([`Observe::disabled`], the default everywhere)
//! costs one flag read per call, the same contract as `Telemetry::off`.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod alerts;
pub mod context;
pub mod recorder;
pub mod report;
pub mod series;

pub use alerts::{standard_rules, AlertEngine, AlertEvent, AlertRule, AlertSignal};
pub use context::{splitmix64, TraceContext};
pub use recorder::{chrome_trace_json, folded_stacks, CausalEvent, CausalSpan};
pub use report::{ObserveReport, SeriesRow};
pub use series::{Series, SeriesEngine, DEFAULT_SERIES_CAPACITY};

use athena_telemetry::Telemetry;
use athena_types::sentinel::TrackedMutex;
use athena_types::{SimDuration, SimTime};
use std::fmt;
use std::sync::Arc;

/// Bound on retained spans, events and trace ids — each list has this
/// capacity, and drops beyond it are counted in the [`ObserveReport`].
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// The virtual-time sampling cadence.
pub const DEFAULT_SAMPLE_CADENCE: SimDuration = SimDuration::from_secs(1);

#[derive(Debug)]
struct State {
    seed: u64,
    now: SimTime,
    next_span_id: u64,
    root_seq: u64,
    trace_ids: Vec<u64>,
    spans: Vec<CausalSpan>,
    events: Vec<CausalEvent>,
    capacity: usize,
    spans_dropped: u64,
    events_dropped: u64,
    trace_ids_dropped: u64,
    next_sample: SimTime,
    series: SeriesEngine,
    alerts: AlertEngine,
}

#[derive(Debug)]
struct Inner {
    enabled: bool,
    /// The sampled registry; read outside the state lock.
    telemetry: Option<Telemetry>,
    state: TrackedMutex<State>,
}

/// A cloneable handle to one observe pipeline (trace recorder + series
/// sampler + alert engine). All clones share state.
#[derive(Debug, Clone)]
pub struct Observe {
    inner: Arc<Inner>,
}

impl Default for Observe {
    /// Defaults to [`Observe::disabled`].
    fn default() -> Self {
        Observe::disabled()
    }
}

impl Observe {
    /// `capacity` is [`DEFAULT_SPAN_CAPACITY`] everywhere but the overflow test.
    fn build(enabled: bool, seed: u64, telemetry: Option<Telemetry>, capacity: usize) -> Self {
        let rules = if telemetry.is_some() {
            standard_rules()
        } else {
            Vec::new()
        };
        Observe {
            inner: Arc::new(Inner {
                enabled,
                telemetry,
                state: TrackedMutex::new(
                    "observe/state",
                    State {
                        seed,
                        now: SimTime::ZERO,
                        next_span_id: 0,
                        root_seq: 0,
                        trace_ids: Vec::new(),
                        spans: Vec::new(),
                        events: Vec::new(),
                        capacity,
                        spans_dropped: 0,
                        events_dropped: 0,
                        trace_ids_dropped: 0,
                        next_sample: SimTime::ZERO,
                        series: SeriesEngine::new(DEFAULT_SERIES_CAPACITY),
                        alerts: AlertEngine::new(rules),
                    },
                ),
            }),
        }
    }

    /// A handle that records nothing (one flag read per call).
    pub fn disabled() -> Self {
        Observe::build(false, 0, None, DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled trace-only handle: spans and events are recorded, but
    /// with no telemetry attached nothing is sampled and no alert can
    /// fire.
    pub fn new(seed: u64) -> Self {
        Observe::build(true, seed, None, DEFAULT_SPAN_CAPACITY)
    }

    /// The full pipeline: tracing plus sampling of `tel` every
    /// [`DEFAULT_SAMPLE_CADENCE`] and the [`standard_rules`] alert set.
    pub fn with_telemetry(seed: u64, tel: &Telemetry) -> Self {
        Observe::build(true, seed, Some(tel.clone()), DEFAULT_SPAN_CAPACITY)
    }

    /// Whether the handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Advances the pipeline's virtual clock; when a telemetry registry
    /// is attached and a sample is due, snapshots every metric into the
    /// series engine and evaluates the alert rules. Call once per
    /// simulation tick (the dataplane does this from `Network::step`).
    pub fn on_tick(&self, now: SimTime) {
        if !self.is_enabled() {
            return;
        }
        // First critical section: advance the clock and claim the
        // sample slot. The state lock is never held across a telemetry
        // call — the lock-graph gate conservatively treats any callee
        // named `report`/`event` as potentially re-entrant.
        {
            let mut state = self.inner.state.lock();
            if now > state.now {
                state.now = now;
            }
            if now < state.next_sample {
                return;
            }
            state.next_sample = now + DEFAULT_SAMPLE_CADENCE;
        }
        let Some(tel) = &self.inner.telemetry else {
            return;
        };
        let report = tel.report();
        // Second critical section: fold the snapshot into the series
        // ring and run the alert rules against it.
        let mut state = self.inner.state.lock();
        state.series.sample(now, &report);
        let transitions = {
            let State { series, alerts, .. } = &mut *state;
            alerts.evaluate(now, series)
        };
        for t in &transitions {
            push_event(
                &mut state,
                CausalEvent {
                    trace_id: 0,
                    span_id: 0,
                    subsystem: "observe",
                    name: if t.fired { "alert_fire" } else { "alert_clear" },
                    at: now,
                    detail: t.render(),
                },
            );
        }
    }

    /// Opens a span at the pipeline's current virtual time. With an
    /// active context on this thread the span joins that trace;
    /// otherwise it starts a new seed-derived trace.
    pub fn span(&self, subsystem: &'static str, name: &'static str) -> SpanGuard {
        self.open(subsystem, name, None)
    }

    /// Opens a span at an explicit virtual time (also advances the
    /// pipeline clock to `now`).
    pub fn span_at(&self, subsystem: &'static str, name: &'static str, now: SimTime) -> SpanGuard {
        self.open(subsystem, name, Some(now))
    }

    fn open(&self, subsystem: &'static str, name: &'static str, now: Option<SimTime>) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard {
                inner: None,
                ctx: TraceContext {
                    trace_id: 0,
                    span_id: 0,
                },
                parent_id: 0,
                subsystem,
                name,
                start: SimTime::ZERO,
            };
        }
        let (ctx, parent_id, start) = {
            let mut state = self.inner.state.lock();
            if let Some(now) = now {
                if now > state.now {
                    state.now = now;
                }
            }
            let (trace_id, parent_id) = match context::current() {
                Some(parent) => (parent.trace_id, parent.span_id),
                None => {
                    state.root_seq += 1;
                    let id = splitmix64(state.seed ^ state.root_seq);
                    if state.trace_ids.len() < state.capacity {
                        state.trace_ids.push(id);
                    } else {
                        state.trace_ids_dropped += 1;
                    }
                    (id, 0)
                }
            };
            state.next_span_id += 1;
            (
                TraceContext {
                    trace_id,
                    span_id: state.next_span_id,
                },
                parent_id,
                state.now,
            )
        };
        context::push(ctx);
        SpanGuard {
            inner: Some(Arc::clone(&self.inner)),
            ctx,
            parent_id,
            subsystem,
            name,
            start,
        }
    }

    /// Records an instantaneous event at the current virtual time,
    /// attached to the active trace context (if any). `detail` is only
    /// rendered when the handle is enabled, so pass `format_args!(..)`
    /// rather than a formatted `String`.
    pub fn event(&self, subsystem: &'static str, name: &'static str, detail: impl fmt::Display) {
        if !self.is_enabled() {
            return;
        }
        let detail = detail.to_string();
        let ctx = context::current();
        let mut state = self.inner.state.lock();
        let at = state.now;
        push_event(
            &mut state,
            CausalEvent {
                trace_id: ctx.map(|c| c.trace_id).unwrap_or(0),
                span_id: ctx.map(|c| c.span_id).unwrap_or(0),
                subsystem,
                name,
                at,
                detail,
            },
        );
    }

    /// The trace ids started so far, in creation order — the
    /// deterministic id stream the thread-count gate byte-compares.
    pub fn trace_ids(&self) -> Vec<u64> {
        self.inner.state.lock().trace_ids.clone()
    }

    /// Completed spans, in finish order.
    pub fn spans(&self) -> Vec<CausalSpan> {
        self.inner.state.lock().spans.clone()
    }

    /// Recorded events, in occurrence order. Alert transitions share
    /// this capped list with the per-record `core/verdict` events, so a
    /// long run can drop them here; [`Observe::alert_events`] is the
    /// lossless alert history.
    pub fn events(&self) -> Vec<CausalEvent> {
        self.inner.state.lock().events.clone()
    }

    /// Every alert transition so far (kept by the alert engine, never
    /// dropped).
    pub fn alert_events(&self) -> Vec<AlertEvent> {
        self.inner.state.lock().alerts.transitions().to_vec()
    }

    /// Alert transitions from deterministic rules only — the stream the
    /// chaos and thread-count gates byte-compare.
    pub fn deterministic_alert_events(&self) -> Vec<AlertEvent> {
        self.alert_events()
            .into_iter()
            .filter(|e| e.deterministic)
            .collect()
    }

    /// Rules currently firing.
    pub fn firing(&self) -> Vec<&'static str> {
        self.inner.state.lock().alerts.firing_rules()
    }

    /// Sample ticks taken.
    pub fn samples(&self) -> u64 {
        self.inner.state.lock().series.sample_count()
    }

    /// Exports the causal trace as Chrome-trace JSON
    /// (`chrome://tracing` loadable).
    pub fn export_chrome_trace(&self) -> String {
        let state = self.inner.state.lock();
        chrome_trace_json(&state.spans, &state.events)
    }

    /// Exports the causal trace as folded flamegraph stacks.
    pub fn export_folded(&self) -> String {
        folded_stacks(&self.inner.state.lock().spans)
    }

    /// Builds the point-in-time [`ObserveReport`], metric snapshot
    /// included.
    pub fn report(&self) -> ObserveReport {
        // Snapshot the registry first: as in `on_tick`, the state lock is
        // never held across a telemetry call.
        let metrics = self
            .inner
            .telemetry
            .as_ref()
            .map(Telemetry::report)
            .unwrap_or_default();
        let state = self.inner.state.lock();
        let now = state.now;
        let series = state
            .series
            .iter()
            .map(|(key, s)| SeriesRow {
                key: key.to_string(),
                points: s.len(),
                latest: s.latest().unwrap_or(0.0),
                rate_per_sec: s.rate_per_sec(now, SimDuration::from_secs(6)),
            })
            .collect();
        ObserveReport {
            seed: state.seed,
            now_us: now.as_micros(),
            samples: state.series.sample_count(),
            traces: state.root_seq,
            spans: state.spans.len() as u64,
            spans_dropped: state.spans_dropped,
            events: state.events.len() as u64,
            events_dropped: state.events_dropped,
            trace_ids_dropped: state.trace_ids_dropped,
            alerts: state.alerts.transitions().to_vec(),
            firing: state.alerts.firing_rules(),
            series,
            metrics,
        }
    }
}

fn push_event(state: &mut State, event: CausalEvent) {
    if state.events.len() < state.capacity {
        state.events.push(event);
    } else {
        state.events_dropped += 1;
    }
}

/// RAII guard for an open causal span. Finishing (or dropping) the
/// guard records the completed span at the pipeline's current virtual
/// time and pops the trace context.
#[must_use = "the span ends when the guard is finished or dropped"]
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    ctx: TraceContext,
    parent_id: u64,
    subsystem: &'static str,
    name: &'static str,
    start: SimTime,
}

impl SpanGuard {
    /// Finishes the span with a detail string. `detail` is only
    /// rendered when the span is being recorded, so pass
    /// `format_args!(..)` rather than a formatted `String`.
    pub fn finish(mut self, detail: impl fmt::Display) {
        self.close(detail);
    }

    fn close(&mut self, detail: impl fmt::Display) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let detail = detail.to_string();
        context::pop(self.ctx);
        let mut state = inner.state.lock();
        let end = state.now.max(self.start);
        if state.spans.len() < state.capacity {
            let span = CausalSpan {
                trace_id: self.ctx.trace_id,
                span_id: self.ctx.span_id,
                parent_id: self.parent_id,
                subsystem: self.subsystem,
                name: self.name,
                start: self.start,
                end,
                detail,
            };
            state.spans.push(span);
        } else {
            state.spans_dropped += 1;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close("");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_telemetry::Counter;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Observe::disabled();
        let g = obs.span("dataplane", "packet_in");
        drop(g);
        obs.event("core", "verdict", "x");
        obs.on_tick(SimTime::from_secs(1));
        assert!(obs.spans().is_empty());
        assert!(obs.events().is_empty());
        assert!(obs.trace_ids().is_empty());
    }

    #[test]
    fn nested_spans_share_a_trace_and_parent() {
        let obs = Observe::new(7);
        {
            let root = obs.span_at("dataplane", "packet_in", SimTime::from_secs(1));
            let root_ctx = root.ctx;
            {
                let child = obs.span("controller", "packet_in");
                assert_eq!(child.ctx.trace_id, root_ctx.trace_id);
                obs.event("core", "verdict", "benign");
                child.finish("handled");
            }
            root.finish("");
        }
        let spans = obs.spans();
        assert_eq!(spans.len(), 2);
        // Children finish first.
        assert_eq!(spans[0].name, "packet_in");
        assert_eq!(spans[0].subsystem, "controller");
        assert_eq!(spans[0].parent_id, spans[1].span_id);
        assert_eq!(spans[0].trace_id, spans[1].trace_id);
        assert_eq!(spans[1].parent_id, 0);
        let events = obs.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].trace_id, spans[1].trace_id);
        assert_eq!(obs.trace_ids(), vec![spans[1].trace_id]);
    }

    #[test]
    fn trace_ids_derive_from_the_seed() {
        let ids = |seed| {
            let obs = Observe::new(seed);
            for _ in 0..3 {
                obs.span("dataplane", "packet_in").finish("");
            }
            obs.trace_ids()
        };
        assert_eq!(ids(7), ids(7));
        assert_ne!(ids(7), ids(8));
        assert_eq!(
            ids(7),
            vec![splitmix64(7 ^ 1), splitmix64(7 ^ 2), splitmix64(7 ^ 3)]
        );
    }

    #[test]
    fn sampling_and_alerts_run_on_tick() {
        let (tel, gauge) = (Telemetry::new(), athena_telemetry::Gauge::default());
        tel.metrics()
            .register_gauge("dataplane", "links_degraded", "", &gauge);
        let obs = Observe::with_telemetry(7, &tel);
        obs.on_tick(SimTime::from_secs(1));
        gauge.set(1);
        obs.on_tick(SimTime::from_secs(2));
        gauge.set(0);
        obs.on_tick(SimTime::from_secs(3));
        assert_eq!(obs.samples(), 3);
        let alerts = obs.alert_events();
        assert_eq!(alerts.len(), 2, "{alerts:?}");
        assert!(alerts[0].fired && alerts[0].rule == "links-degraded");
        assert!(!alerts[1].fired);
        assert!(obs.firing().is_empty());
        // Recorded as causal events too.
        assert_eq!(obs.events().len(), 2);
    }

    #[test]
    fn overflow_is_counted_for_spans_events_and_trace_ids() {
        let obs = Observe::build(true, 7, None, 4);
        for _ in 0..6 {
            obs.span("dataplane", "packet_in").finish("");
            obs.event("core", "verdict", "benign");
        }
        assert_eq!(obs.spans().len(), 4);
        assert_eq!(obs.events().len(), 4);
        assert_eq!(obs.trace_ids().len(), 4);
        let report = obs.report();
        assert_eq!(report.traces, 6);
        assert_eq!(
            (
                report.spans_dropped,
                report.events_dropped,
                report.trace_ids_dropped
            ),
            (2, 2, 2)
        );
        assert!(report.render().contains("2 spans, 2 events, 2 trace ids"));
        assert!(report
            .to_json()
            .unwrap()
            .contains("\"trace_ids_dropped\":2"));
    }

    #[test]
    fn report_and_exports_are_consistent() {
        let tel = Telemetry::new();
        let packet_ins = Counter::default();
        tel.metrics()
            .register_counter("dataplane", "packet_ins", &packet_ins);
        packet_ins.add(5);
        let obs = Observe::with_telemetry(3, &tel);
        let g = obs.span_at("dataplane", "packet_in", SimTime::from_secs(1));
        g.finish("punt");
        obs.on_tick(SimTime::from_secs(1));
        let report = obs.report();
        assert_eq!(report.traces, 1);
        assert_eq!(report.spans, 1);
        assert!(report
            .series
            .iter()
            .any(|s| s.key == "dataplane/packet_ins"));
        let chrome = obs.export_chrome_trace();
        assert!(chrome.contains("dataplane/packet_in"));
        let folded = obs.export_folded();
        assert!(folded.starts_with("dataplane/packet_in "));
    }
}
