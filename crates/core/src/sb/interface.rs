//! The SB Interface (paper §III-A 1A): one Athena southbound element per
//! controller instance.
//!
//! Implemented as a [`MessageInterceptor`] on the controller cluster —
//! the reproduction of the paper's `OpenFlowController` modification.
//! Each instance monitors the switches its controller masters, feeds the
//! [`FeatureGenerator`], publishes features through the shared
//! [`FeatureManager`](crate::nb::feature_manager::FeatureManager), runs
//! live validators, and drains the Attack Reactor through the proxy
//! command path. On its own cadence it issues Athena-marked statistics
//! requests (`Xid::athena_marked`), exactly as the paper describes.

use crate::athena::AthenaRuntime;
use crate::feature::generator::FeatureGenerator;
use athena_controller::{InterceptCtx, MessageInterceptor, RetryCounters, RetryPolicy};
use athena_observe::Observe;
use athena_openflow::{MatchFields, OfMessage, StatsRequest};
use athena_telemetry::{names, Counter, Histogram};
use athena_types::{ControllerId, Dpid, PortNo, SimTime, Xid};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One Athena-marked statistics request awaiting its reply.
#[derive(Debug, Clone)]
struct OutstandingPoll {
    dpid: Dpid,
    body: StatsRequest,
    issued_at: SimTime,
    attempt: u32,
}

/// One controller instance's Athena southbound element.
pub struct AthenaSouthbound {
    controller: ControllerId,
    name: String,
    generator: FeatureGenerator,
    runtime: Arc<AthenaRuntime>,
    last_poll: Option<SimTime>,
    last_gc: SimTime,
    next_xid: u32,
    retry: RetryPolicy,
    retry_counters: RetryCounters,
    // Keyed by raw marked XID; BTreeMap keeps timeout scans deterministic.
    outstanding: BTreeMap<u32, OutstandingPoll>,
    feature_gen_ns: Histogram,
    dispatch_ns: Histogram,
    feature_records: Counter,
    timeouts_tel: Counter,
    gave_up_tel: Counter,
    observe: Observe,
}

impl AthenaSouthbound {
    /// Creates the SB element for one controller instance.
    ///
    /// Instruments come from the runtime's [`Telemetry`] handle, labeled
    /// by controller instance (`sb-<id>`).
    ///
    /// [`Telemetry`]: athena_telemetry::Telemetry
    pub fn new(controller: ControllerId, runtime: Arc<AthenaRuntime>) -> Self {
        let m = runtime.telemetry.metrics();
        let instance = format!("sb-{}", controller.raw());
        AthenaSouthbound {
            controller,
            name: format!("athena-sb-{}", controller.raw()),
            generator: FeatureGenerator::new(controller),
            last_poll: None,
            last_gc: SimTime::ZERO,
            next_xid: 0,
            retry: runtime.poll_retry,
            retry_counters: RetryCounters::default(),
            outstanding: BTreeMap::new(),
            feature_gen_ns: m.histogram_with(
                names::core::SUBSYSTEM,
                names::core::FEATURE_GEN_NS,
                &instance,
            ),
            dispatch_ns: m.histogram_with(
                names::core::SUBSYSTEM,
                names::core::DISPATCH_NS,
                &instance,
            ),
            feature_records: m.counter(names::core::SUBSYSTEM, names::core::FEATURE_RECORDS),
            timeouts_tel: m.counter(names::retry::SUBSYSTEM, names::retry::SB_STATS_TIMEOUTS),
            gave_up_tel: m.counter(names::retry::SUBSYSTEM, names::retry::SB_STATS_GAVE_UP),
            observe: runtime.observe.clone(),
            runtime,
        }
    }

    /// The feature generator's record counter.
    pub fn records_generated(&self) -> u64 {
        self.generator.records_generated()
    }

    /// Retry counters for Athena-marked statistics polls.
    pub fn retry_counters(&self) -> RetryCounters {
        self.retry_counters
    }

    /// Athena-marked polls still awaiting a reply.
    pub fn outstanding_polls(&self) -> usize {
        self.outstanding.len()
    }

    fn dispatch(
        &mut self,
        records: Vec<crate::feature::format::FeatureRecord>,
        ctx: &InterceptCtx<'_>,
        out: &mut Vec<(Dpid, OfMessage)>,
    ) {
        if records.is_empty() {
            return;
        }
        self.feature_records.add(records.len() as u64);
        let span = self.observe.span("core", "dispatch");
        let n_records = records.len();
        let timer = self.dispatch_ns.start_timer();
        let resource = self.runtime.resource.lock();
        let mut fm = self.runtime.feature_manager.lock();
        let mut detector = self.runtime.detector.lock();
        let mut reactor = self.runtime.reactor.lock();
        let mut verdicts = 0usize;
        for record in records {
            if !resource.allows(&record) {
                continue;
            }
            // Publication + event delivery; store failures surface as
            // dropped features, not panics.
            if detector.validator_count() == 0 {
                let _ = fm.ingest(&record);
                continue;
            }
            // One document serves the store, the event handlers and the
            // validators' queries (rebuilt only if the store refused it).
            let doc = fm
                .ingest_with_document(&record, record.to_document())
                .unwrap_or_else(|_| Arc::new(record.to_document()));
            let reactions = detector.process_document(&record, &doc);
            if !reactions.is_empty() {
                verdicts += 1;
                self.observe.event(
                    "core",
                    "verdict",
                    format_args!(
                        "malicious {}: {} reactions",
                        record.meta.message_type,
                        reactions.len()
                    ),
                );
            }
            for reaction in reactions {
                reactor.enqueue(reaction);
            }
        }
        drop((resource, fm, detector));
        out.extend(reactor.drain(
            |ip| ctx.hosts.location_of(ip),
            |from, dest| next_hop_toward(ctx, from, dest),
        ));
        timer.observe(&self.dispatch_ns);
        span.finish(format_args!("{n_records} records, {verdicts} verdicts"));
    }

    fn fresh_xid(&mut self) -> Xid {
        self.next_xid = self.next_xid.wrapping_add(1);
        Xid::athena_marked(self.next_xid)
    }

    /// Issues one Athena-marked statistics request and registers it for
    /// timeout tracking.
    fn issue_poll(
        &mut self,
        dpid: Dpid,
        body: StatsRequest,
        now: SimTime,
        attempt: u32,
        out: &mut Vec<(Dpid, OfMessage)>,
    ) {
        let xid = self.fresh_xid();
        self.outstanding.insert(
            xid.raw(),
            OutstandingPoll {
                dpid,
                body: body.clone(),
                issued_at: now,
                attempt,
            },
        );
        out.push((dpid, OfMessage::StatsRequest { xid, body }));
    }

    /// Reissues timed-out marked polls with bounded exponential backoff;
    /// gives up past `max_retries` (and on switches this controller no
    /// longer masters).
    fn drain_timeouts(
        &mut self,
        ctx: &InterceptCtx<'_>,
        now: SimTime,
        out: &mut Vec<(Dpid, OfMessage)>,
    ) {
        let due: Vec<u32> = self
            .outstanding
            .iter()
            .filter(|(_, o)| {
                now.saturating_since(o.issued_at) >= self.retry.deadline_after(o.attempt)
            })
            .map(|(xid, _)| *xid)
            .collect();
        for xid in due {
            let Some(o) = self.outstanding.remove(&xid) else {
                continue;
            };
            self.retry_counters.timeouts += 1;
            self.timeouts_tel.inc();
            let still_mastered = ctx.mastership.master_of(o.dpid) == Some(self.controller);
            if o.attempt >= self.retry.max_retries || !still_mastered {
                self.retry_counters.gave_up += 1;
                self.gave_up_tel.inc();
                continue;
            }
            self.retry_counters.retries += 1;
            self.issue_poll(o.dpid, o.body, now, o.attempt + 1, out);
        }
    }
}

impl MessageInterceptor for AthenaSouthbound {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_southbound(
        &mut self,
        ctx: &InterceptCtx<'_>,
        from: Dpid,
        msg: &OfMessage,
        now: SimTime,
    ) -> Vec<(Dpid, OfMessage)> {
        // Each SB element monitors "its associated controller and those
        // switches that the controller directly manages".
        if ctx.mastership.master_of(from) != Some(self.controller) {
            return Vec::new();
        }
        // Settle the marked poll this reply answers.
        if let OfMessage::StatsReply { xid, .. } = msg {
            if xid.is_athena_marked() {
                self.outstanding.remove(&xid.raw());
            }
        }
        let records = {
            let span = self.observe.span_at("core", "feature_gen", now);
            let timer = self.feature_gen_ns.start_timer();
            let app_of = |cookie: u64| ctx.flow_rules.app_of_cookie(cookie);
            let records = self.generator.ingest(from, msg, now, &app_of);
            timer.observe(&self.feature_gen_ns);
            span.finish(format_args!("{} records", records.len()));
            records
        };
        let mut out = Vec::new();
        self.dispatch(records, ctx, &mut out);
        out
    }

    fn on_tick(&mut self, ctx: &InterceptCtx<'_>, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        let mut out = Vec::new();
        let (poll_interval, monitoring) = {
            let r = self.runtime.resource.lock();
            (r.poll_interval, r.monitoring_enabled)
        };

        // Reissue timed-out marked polls before scheduling new ones.
        self.drain_timeouts(ctx, now, &mut out);

        // Athena's own marked statistics polling.
        let due = self
            .last_poll
            .is_none_or(|t| now.saturating_since(t) >= poll_interval);
        if due && monitoring {
            self.last_poll = Some(now);
            let mastered = ctx.mastership.switches_of(self.controller);
            for dpid in mastered {
                let allowed = self.runtime.resource.lock().allows_polling(dpid);
                if !allowed {
                    continue;
                }
                self.issue_poll(
                    dpid,
                    StatsRequest::Flow {
                        filter: MatchFields::new(),
                    },
                    now,
                    0,
                    &mut out,
                );
                self.issue_poll(
                    dpid,
                    StatsRequest::Port {
                        port_no: PortNo::ANY,
                    },
                    now,
                    0,
                    &mut out,
                );
                self.issue_poll(dpid, StatsRequest::Table, now, 0, &mut out);
            }
            // Flush the per-window message counters as features.
            let records = self.generator.flush_window(now);
            self.dispatch(records, ctx, &mut out);
        }

        // Garbage collection of outdated tracking entries.
        if now.saturating_since(self.last_gc) >= self.generator.ttl {
            self.last_gc = now;
            self.generator.gc(now);
        }

        // Drain any reactions raised outside the message path (e.g. the
        // NB `Reactor` API).
        let mut reactor = self.runtime.reactor.lock();
        out.extend(reactor.drain(
            |ip| ctx.hosts.location_of(ip),
            |from, dest| next_hop_toward(ctx, from, dest),
        ));
        out
    }
}

/// The egress port from `from` toward the host `dest` (first hop of the
/// shortest path, or the access port when `dest` attaches to `from`).
fn next_hop_toward(
    ctx: &InterceptCtx<'_>,
    from: Dpid,
    dest: athena_types::Ipv4Addr,
) -> Option<PortNo> {
    let (dst_switch, dst_port) = ctx.hosts.location_of(dest)?;
    if from == dst_switch {
        return Some(dst_port);
    }
    ctx.paths
        .shortest_path(from, dst_switch)?
        .first()
        .map(|(_, p)| *p)
}

impl std::fmt::Debug for AthenaSouthbound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AthenaSouthbound")
            .field("controller", &self.controller)
            .field("records_generated", &self.records_generated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::athena::{Athena, AthenaConfig};
    use crate::feature::format::FeatureRecord;
    use athena_controller::{FlowRuleService, HostService, MastershipService, PathService};
    use athena_dataplane::Topology;
    use athena_openflow::StatsReply;
    use athena_telemetry::Telemetry;

    struct Ctx {
        flow_rules: FlowRuleService,
        hosts: HostService,
        mastership: MastershipService,
        paths: PathService,
        topology: Topology,
    }

    impl Ctx {
        fn new() -> Self {
            let topology = Topology::enterprise();
            Ctx {
                flow_rules: FlowRuleService::new(),
                hosts: HostService::from_topology(&topology),
                mastership: MastershipService::from_topology(&topology),
                paths: PathService::from_topology(&topology),
                topology,
            }
        }

        fn borrow(&self, controller: ControllerId) -> InterceptCtx<'_> {
            InterceptCtx {
                controller,
                flow_rules: &self.flow_rules,
                hosts: &self.hosts,
                mastership: &self.mastership,
                paths: &self.paths,
            }
        }
    }

    fn sb(tel: Telemetry) -> AthenaSouthbound {
        let athena = Athena::with_telemetry(AthenaConfig::default(), tel);
        athena.southbound(ControllerId::new(0))
    }

    fn marked_stats_requests(out: &[(Dpid, OfMessage)]) -> Vec<(Dpid, Xid)> {
        out.iter()
            .filter_map(|(d, m)| match m {
                OfMessage::StatsRequest { xid, .. } if xid.is_athena_marked() => Some((*d, *xid)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn replies_settle_marked_polls() {
        let ctx = Ctx::new();
        let mut sb = sb(Telemetry::off());
        let out = sb.on_tick(&ctx.borrow(ControllerId::new(0)), SimTime::from_secs(5));
        let issued = marked_stats_requests(&out);
        assert!(!issued.is_empty());
        assert_eq!(sb.outstanding_polls(), issued.len());
        for (dpid, xid) in issued {
            sb.on_southbound(
                &ctx.borrow(ControllerId::new(0)),
                dpid,
                &OfMessage::StatsReply {
                    xid,
                    body: StatsReply::Table(Vec::new()),
                },
                SimTime::from_secs(5),
            );
        }
        assert_eq!(sb.outstanding_polls(), 0);
        assert_eq!(sb.retry_counters(), RetryCounters::default());
    }

    #[test]
    fn lost_replies_are_retried_with_backoff_then_dropped() {
        let ctx = Ctx::new();
        let tel = Telemetry::new();
        let mut sb = sb(tel.clone());
        // Issue one poll round; never answer it.
        let out = sb.on_tick(&ctx.borrow(ControllerId::new(0)), SimTime::from_secs(5));
        let issued = marked_stats_requests(&out).len();
        assert!(issued > 0);
        // Stop new interval polls from mixing in: disable monitoring.
        sb.runtime.resource.lock().monitoring_enabled = false;
        let policy = RetryPolicy::default();
        let mut now = SimTime::from_secs(5);
        // Walk far enough for every attempt to expire (attempts 0..=max).
        for _ in 0..=policy.max_retries {
            now += policy.backoff_cap;
            let out = sb.on_tick(&ctx.borrow(ControllerId::new(0)), now);
            // Retries re-issue the same stats bodies with fresh marked xids.
            for (_, msg) in &out {
                if let OfMessage::StatsRequest { xid, .. } = msg {
                    assert!(xid.is_athena_marked());
                }
            }
        }
        now += policy.backoff_cap;
        sb.on_tick(&ctx.borrow(ControllerId::new(0)), now);
        let c = sb.retry_counters();
        assert_eq!(c.retries, issued as u64 * u64::from(policy.max_retries));
        assert_eq!(c.gave_up, issued as u64);
        assert_eq!(c.timeouts, c.retries + c.gave_up);
        assert_eq!(sb.outstanding_polls(), 0);
        let m = tel.metrics();
        assert_eq!(m.counter("retry", "sb_stats_timeouts").get(), c.timeouts);
        assert_eq!(m.counter("retry", "sb_stats_gave_up").get(), c.gave_up);
    }

    #[test]
    fn polls_for_lost_mastership_are_abandoned_not_retried() {
        let ctx = Ctx::new();
        let mut sb = sb(Telemetry::off());
        let out = sb.on_tick(&ctx.borrow(ControllerId::new(0)), SimTime::from_secs(5));
        let issued = marked_stats_requests(&out).len();
        assert!(issued > 0);
        sb.runtime.resource.lock().monitoring_enabled = false;
        // Mastership moves away (e.g. this instance crashed and rejoined
        // elsewhere): outstanding polls are abandoned on expiry.
        let mut moved = Ctx::new();
        for s in &mut moved.topology.switches {
            s.controller = ControllerId::new(1);
        }
        moved.mastership = MastershipService::from_topology(&moved.topology);
        let later = SimTime::from_secs(5) + RetryPolicy::default().backoff_cap;
        let out = sb.on_tick(&moved.borrow(ControllerId::new(0)), later);
        assert!(marked_stats_requests(&out).is_empty());
        let c = sb.retry_counters();
        assert_eq!(c.gave_up, issued as u64);
        assert_eq!(c.retries, 0);
        assert_eq!(sb.outstanding_polls(), 0);
    }

    /// What one deployment observed while a batch of records went
    /// through it: the interleaved handler / alert log, `(published,
    /// dispatched)`, alerts raised, documents stored.
    type Observed = (Vec<String>, (u64, u64), u64, usize);

    /// Runs `drive` over a fresh Athena with one event handler
    /// (`FLOW_PACKET_COUNT>=50`) and one online validator (threshold
    /// 100 on switch 1), each logging when it fires together with how
    /// many documents the store held at that moment.
    fn observe_run(
        store_enabled: bool,
        drive: impl FnOnce(&Athena, Vec<FeatureRecord>),
    ) -> Observed {
        use crate::nb::query::Query;
        use athena_ml::{Algorithm, Preprocessor};
        use athena_store::Filter;

        let athena = Athena::with_telemetry(
            AthenaConfig {
                store_enabled,
                ..AthenaConfig::default()
            },
            Telemetry::off(),
        );
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let stored = {
            let features = athena.runtime().store.collection("features");
            move || features.count(&Filter::All)
        };
        let (handler_log, handler_stored) = (Arc::clone(&log), stored.clone());
        athena.add_event_handler(
            &Query::parse("FLOW_PACKET_COUNT>=50").unwrap(),
            Box::new(move |r| {
                let line = format!(
                    "handler sw={} stored={}",
                    r.index.switch.raw(),
                    handler_stored()
                );
                handler_log.lock().unwrap().push(line);
            }),
        );
        let model = athena
            .detector_manager()
            .generate_detection_model(
                &[record(1, 1.0)],
                &["FLOW_PACKET_COUNT".into()],
                |_| false,
                &Preprocessor::new(),
                &Algorithm::threshold(0, 100.0),
            )
            .unwrap();
        let (alert_log, alert_stored) = (Arc::clone(&log), stored.clone());
        athena.add_online_validator(
            "flood",
            &Query::parse("switch==1").unwrap(),
            model,
            Box::new(move |r| {
                let packets = r.field("FLOW_PACKET_COUNT").unwrap_or(0.0);
                let line = format!("alert packets={packets} stored={}", alert_stored());
                alert_log.lock().unwrap().push(line);
                None
            }),
        );
        let records = (0..24u64)
            .map(|i| record(i % 3, (i * 13 % 160) as f64))
            .collect();
        drive(&athena, records);
        let observed = log.lock().unwrap().clone();
        let counters = athena.runtime().feature_manager.lock().counters();
        let stored = athena.stored_feature_count();
        (observed, counters, athena.total_alerts(), stored)
    }

    fn record(switch: u64, packets: f64) -> FeatureRecord {
        let mut r = FeatureRecord::new(crate::FeatureIndex::switch(Dpid::new(switch)));
        r.meta.message_type = "FLOW_STATS".into();
        r.push_field("FLOW_PACKET_COUNT", packets);
        r
    }

    /// `dispatch` through the SB element (one shared document).
    fn via_dispatch(athena: &Athena, records: Vec<FeatureRecord>) {
        let ctx = Ctx::new();
        let mut sb = athena.southbound(ControllerId::new(0));
        sb.dispatch(records, &ctx.borrow(ControllerId::new(0)), &mut Vec::new());
    }

    /// The reference order: each consumer builds its own document.
    fn per_consumer(athena: &Athena, records: Vec<FeatureRecord>) {
        for r in &records {
            let _ = athena.runtime().feature_manager.lock().ingest(r);
            athena.runtime().detector.lock().process(r);
        }
    }

    #[test]
    fn shared_document_fires_consumers_like_a_document_per_consumer() {
        for store_enabled in [true, false] {
            let shared = observe_run(store_enabled, via_dispatch);
            let reference = observe_run(store_enabled, per_consumer);
            assert_eq!(shared, reference, "store_enabled={store_enabled}");
            let (log, (published, dispatched), alerts, stored) = shared;
            assert_eq!(stored, if store_enabled { 24 } else { 0 });
            assert_eq!(published as usize, stored);
            assert_eq!(
                log.iter().filter(|l| l.starts_with("handler")).count() as u64,
                dispatched
            );
            assert_eq!(
                log.iter().filter(|l| l.starts_with("alert")).count() as u64,
                alerts
            );
            assert!(dispatched > 0 && alerts > 0);
            // A record that reaches both consumers was stored first, then
            // handled, then alerted on.
            let both = log
                .windows(2)
                .filter(|w| w[0].starts_with("handler") && w[1].starts_with("alert"))
                .count();
            assert!(both > 0, "{log:?}");
        }
    }

    #[test]
    fn refused_store_write_still_reaches_the_detector() {
        // Two of three nodes down: no write quorum, every insert fails.
        let below_quorum = |drive: fn(&Athena, Vec<FeatureRecord>)| {
            observe_run(true, move |athena, records| {
                athena.runtime().store.set_node_up(0, false);
                athena.runtime().store.set_node_up(1, false);
                drive(athena, records);
            })
        };
        let shared = below_quorum(via_dispatch);
        assert_eq!(shared, below_quorum(per_consumer));
        let (_, (published, dispatched), alerts, stored) = shared;
        assert_eq!((published, dispatched, stored), (0, 0, 0));
        assert!(alerts > 0);
    }

    #[test]
    fn ingest_document_fires_handlers_like_ingest() {
        for store_enabled in [true, false] {
            let by_document = observe_run(store_enabled, |athena, records| {
                for r in &records {
                    let mut fm = athena.runtime().feature_manager.lock();
                    fm.ingest_document(r.to_document()).unwrap();
                }
            });
            let by_record = observe_run(store_enabled, |athena, records| {
                for r in &records {
                    athena.runtime().feature_manager.lock().ingest(r).unwrap();
                }
            });
            assert_eq!(by_document, by_record, "store_enabled={store_enabled}");
            assert!(by_document.1 .1 > 0);
        }
    }
}
