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
//! requests (a [`PollTracker`] under `Xid::ATHENA_MARK`), exactly as the
//! paper describes.

use crate::athena::AthenaRuntime;
use crate::feature::format::FeatureRecord;
use crate::feature::generator::FeatureGenerator;
use crate::nb::feature_manager::Examine;
use athena_controller::{InterceptCtx, MessageInterceptor, PollTracker};
use athena_observe::Observe;
use athena_openflow::{MatchFields, OfMessage, StatsRequest};
use athena_telemetry::{names, Counter, Histogram};
use athena_types::{ControllerId, Dpid, PortNo, SimDuration, SimTime, Xid};
use std::sync::Arc;

/// Athena's own statistics-poll period.
const POLL_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// One controller instance's Athena southbound element.
pub struct AthenaSouthbound {
    controller: ControllerId,
    name: String,
    generator: FeatureGenerator,
    runtime: Arc<AthenaRuntime>,
    last_poll: Option<SimTime>,
    last_gc: SimTime,
    polls: PollTracker,
    feature_gen_ns: Histogram,
    dispatch_ns: Histogram,
    feature_records: Counter,
    observe: Observe,
}

impl AthenaSouthbound {
    /// Creates the SB element for one controller instance.
    ///
    /// The element's own instruments are registered with the runtime's
    /// [`Telemetry`] handle, its histograms labeled by controller instance
    /// (`sb-<id>`). The poll tracker's timeouts and give-ups are reported
    /// unlabeled: every instance's tracker registers under the one
    /// `retry/sb_stats_*` key, which reports their sum.
    ///
    /// [`Telemetry`]: athena_telemetry::Telemetry
    pub fn new(controller: ControllerId, runtime: Arc<AthenaRuntime>) -> Self {
        let m = runtime.telemetry.metrics();
        let instance = format!("sb-{}", controller.raw());
        let sub = names::core::SUBSYSTEM;
        let feature_records = Counter::default();
        m.register_counter(sub, names::core::FEATURE_RECORDS, &feature_records);
        let (feature_gen_ns, dispatch_ns) = (Histogram::default(), Histogram::default());
        m.register_histogram(sub, names::core::FEATURE_GEN_NS, &instance, &feature_gen_ns);
        m.register_histogram(sub, names::core::DISPATCH_NS, &instance, &dispatch_ns);
        let polls = PollTracker::new(Xid::ATHENA_MARK);
        polls.register_outcomes(
            m,
            names::retry::SB_STATS_TIMEOUTS,
            names::retry::SB_STATS_GAVE_UP,
        );
        AthenaSouthbound {
            controller,
            name: format!("athena-sb-{}", controller.raw()),
            generator: FeatureGenerator::new(controller),
            last_poll: None,
            last_gc: SimTime::ZERO,
            feature_gen_ns,
            dispatch_ns,
            feature_records,
            polls,
            observe: runtime.observe.clone(),
            runtime,
        }
    }

    /// The feature generator's record counter.
    pub fn records_generated(&self) -> u64 {
        self.generator.records_generated()
    }

    /// The tracker of Athena's marked statistics polls.
    pub fn polls(&self) -> &PollTracker {
        &self.polls
    }

    fn dispatch(
        &mut self,
        mut records: Vec<FeatureRecord>,
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
        records.retain(|r| resource.allows(r));
        let mut verdicts = 0usize;
        let observe = &self.observe;
        let validators = detector.validator_count() > 0;
        let mut examine = |record: &FeatureRecord| {
            let reactions = detector.process(record);
            if !reactions.is_empty() {
                verdicts += 1;
                observe.event(
                    "core",
                    "verdict",
                    format_args!(
                        "malicious {}: {} reactions",
                        record.message_type(),
                        reactions.len()
                    ),
                );
            }
            for reaction in reactions {
                reactor.enqueue(reaction);
            }
        };
        // One store batch for the message, then handlers and validators
        // record by record; each reads the body the store holds.
        // Store failures surface as dropped features, not panics.
        let examine: Examine<'_> = &mut examine;
        let _ = fm.ingest_batch(records, validators.then_some(examine));
        drop((resource, fm, detector));
        out.extend(reactor.drain(
            |ip| ctx.hosts.location_of(ip),
            |from, dest| next_hop_toward(ctx, from, dest),
        ));
        timer.observe(&self.dispatch_ns);
        span.finish(format_args!("{n_records} records, {verdicts} verdicts"));
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
            self.polls.settle(*xid);
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
        let monitoring = self.runtime.resource.lock().monitoring_enabled;

        // Reissue timed-out marked polls before scheduling new ones; a
        // switch this controller no longer masters is given up.
        let still_mastered = |dpid| ctx.mastership.master_of(dpid) == Some(self.controller);
        self.polls.drain_timeouts(now, still_mastered, &mut out);

        // Athena's own marked statistics polling.
        let due = self
            .last_poll
            .is_none_or(|t| now.saturating_since(t) >= POLL_INTERVAL);
        if due && monitoring {
            self.last_poll = Some(now);
            let mastered = ctx.mastership.switches_of(self.controller);
            for dpid in mastered {
                let allowed = self.runtime.resource.lock().allows_polling(dpid);
                if !allowed {
                    continue;
                }
                let flow = StatsRequest::Flow {
                    filter: MatchFields::new(),
                };
                self.polls.issue(dpid, flow, now, &mut out);
                let port = StatsRequest::Port {
                    port_no: PortNo::ANY,
                };
                self.polls.issue(dpid, port, now, &mut out);
                self.polls.issue(dpid, StatsRequest::Table, now, &mut out);
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
    use athena_controller::stats::{BACKOFF_CAP, MAX_RETRIES};
    use athena_controller::{FlowRuleService, HostService, MastershipService, RetryCounters};
    use athena_dataplane::{Routes, Topology};
    use athena_openflow::StatsReply;
    use athena_telemetry::Telemetry;

    struct Ctx {
        flow_rules: FlowRuleService,
        hosts: HostService,
        mastership: MastershipService,
        paths: Routes,
        topology: Topology,
    }

    impl Ctx {
        fn new() -> Self {
            let topology = Topology::enterprise();
            Ctx {
                flow_rules: FlowRuleService::new(),
                hosts: HostService::from_topology(&topology),
                mastership: MastershipService::from_topology(&topology),
                paths: Routes::new(&topology),
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
        let issued_n = issued.len();
        assert!(issued_n > 0);
        assert_eq!(sb.polls().outstanding(), issued_n);
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
        assert_eq!(sb.polls().outstanding(), 0);
        let c = sb.polls().counters();
        assert_eq!((c.issued, c.settled), (issued_n as u64, issued_n as u64));
        assert_eq!((c.timeouts, c.retries, c.gave_up), (0, 0, 0));
    }

    /// The value of the counter row labeled `label` in `tel`'s report.
    fn row(tel: &Telemetry, label: &str) -> Option<u64> {
        let report = tel.report();
        let mut rows = report.counters.iter().filter(|e| e.key.label() == label);
        let value = rows.next().map(|e| e.value);
        assert!(rows.next().is_none(), "{label} reported twice");
        value
    }

    /// Issues one poll round from each SB element and never answers it,
    /// walking virtual time until every attempt has expired. Returns the
    /// requests each element issued in that first round.
    fn lose_every_reply(ctx: &Ctx, sbs: &mut [(ControllerId, AthenaSouthbound)]) -> Vec<usize> {
        let start = SimTime::from_secs(5);
        let issued = sbs
            .iter_mut()
            .map(|(c, sb)| marked_stats_requests(&sb.on_tick(&ctx.borrow(*c), start)).len())
            .collect();
        // Stop new interval polls from mixing in: disable monitoring.
        sbs[0].1.runtime.resource.lock().monitoring_enabled = false;
        let mut now = start;
        // Walk far enough for every attempt to expire (attempts 0..=max).
        for _ in 0..=MAX_RETRIES + 1 {
            now += BACKOFF_CAP;
            for (c, sb) in sbs.iter_mut() {
                let out = sb.on_tick(&ctx.borrow(*c), now);
                // Retries re-issue the same stats bodies with fresh marked xids.
                for (_, msg) in &out {
                    if let OfMessage::StatsRequest { xid, .. } = msg {
                        assert!(xid.is_athena_marked());
                    }
                }
            }
        }
        issued
    }

    #[test]
    fn lost_replies_are_retried_with_backoff_then_dropped() {
        let ctx = Ctx::new();
        let tel = Telemetry::new();
        let mut sbs = [(ControllerId::new(0), sb(tel.clone()))];
        let issued = lose_every_reply(&ctx, &mut sbs)[0];
        assert!(issued > 0);
        let sb = &sbs[0].1;
        let c = sb.polls().counters();
        assert_eq!(c.retries, issued as u64 * u64::from(MAX_RETRIES));
        assert_eq!(c.gave_up, issued as u64);
        assert_eq!(c.timeouts, c.retries + c.gave_up);
        assert_eq!(sb.polls().outstanding(), 0);
        assert_eq!(row(&tel, "retry/sb_stats_timeouts"), Some(c.timeouts));
        assert_eq!(row(&tel, "retry/sb_stats_gave_up"), Some(c.gave_up));
    }

    #[test]
    fn every_instance_tracker_reports_into_one_row() {
        let ctx = Ctx::new();
        let tel = Telemetry::new();
        let athena = Athena::with_telemetry(AthenaConfig::default(), tel.clone());
        let mut sbs: Vec<_> = (0..3)
            .map(|i| {
                let c = ControllerId::new(i);
                (c, athena.southbound(c))
            })
            .collect();
        let issued = lose_every_reply(&ctx, &mut sbs);
        assert!(issued.iter().all(|&n| n > 0), "{issued:?}");
        let sum = |f: fn(&RetryCounters) -> u64| {
            sbs.iter()
                .map(|(_, sb)| f(&sb.polls().counters()))
                .sum::<u64>()
        };
        let gave_up = sum(|c| c.gave_up);
        assert_eq!(gave_up, issued.iter().sum::<usize>() as u64);
        assert_eq!(
            row(&tel, "retry/sb_stats_timeouts"),
            Some(sum(|c| c.timeouts))
        );
        assert_eq!(row(&tel, "retry/sb_stats_gave_up"), Some(gave_up));
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
        let later = SimTime::from_secs(5) + BACKOFF_CAP;
        let out = sb.on_tick(&moved.borrow(ControllerId::new(0)), later);
        assert!(marked_stats_requests(&out).is_empty());
        let c = sb.polls().counters();
        assert_eq!(c.gave_up, issued as u64);
        assert_eq!(c.retries, 0);
        assert_eq!(sb.polls().outstanding(), 0);
    }

    /// What one deployment observed while a batch of records went
    /// through it: the interleaved handler / alert log, `(published,
    /// dispatched)`, alerts raised, documents stored.
    type Observed = (Vec<String>, (u64, u64), u64, usize);

    /// Runs `drive` over a fresh Athena with one event handler
    /// (`FLOW_PACKET_COUNT>=50`) and one online validator (threshold
    /// 100 on switch 1), each logging when it fires. Also returns how
    /// many documents the store held each time one of them fired.
    fn observe_run(
        store_enabled: bool,
        drive: impl FnOnce(&Athena, Vec<FeatureRecord>),
    ) -> (Observed, Vec<usize>) {
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
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let note = {
            let (log, seen) = (Arc::clone(&log), Arc::clone(&seen));
            let features = athena.runtime().store.collection("features");
            move |line: String| {
                log.lock().unwrap().push(line);
                seen.lock().unwrap().push(features.count(&Filter::All));
            }
        };
        let handler_note = note.clone();
        athena.add_event_handler(
            &Query::parse("FLOW_PACKET_COUNT>=50").unwrap(),
            Box::new(move |r| handler_note(format!("handler sw={}", r.index().switch.raw()))),
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
        athena.add_online_validator(
            &Query::parse("switch==1").unwrap(),
            model,
            Box::new(move |r| {
                let packets = r.field("FLOW_PACKET_COUNT").unwrap_or(0.0);
                note(format!("alert packets={packets}"));
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
        let seen = seen.lock().unwrap().clone();
        ((observed, counters, athena.total_alerts(), stored), seen)
    }

    fn record(switch: u64, packets: f64) -> FeatureRecord {
        let mut r = FeatureRecord::new(crate::FeatureIndex::switch(Dpid::new(switch))).with_meta(
            crate::MetaData {
                message_type: crate::MessageType::FLOW_STATS,
                ..crate::MetaData::default()
            },
        );
        r.push_field("FLOW_PACKET_COUNT", packets);
        r
    }

    /// `dispatch` through the SB element (one stored body per record).
    fn via_dispatch(athena: &Athena, records: Vec<FeatureRecord>) {
        let ctx = Ctx::new();
        let mut sb = athena.southbound(ControllerId::new(0));
        sb.dispatch(records, &ctx.borrow(ControllerId::new(0)), &mut Vec::new());
    }

    /// The reference order: each consumer is called on its own.
    fn per_consumer(athena: &Athena, records: Vec<FeatureRecord>) {
        for r in &records {
            let _ = athena.runtime().feature_manager.lock().ingest(r.clone());
            athena.runtime().detector.lock().process(r);
        }
    }

    #[test]
    fn shared_document_fires_consumers_like_a_document_per_consumer() {
        for store_enabled in [true, false] {
            let (shared, seen) = observe_run(store_enabled, via_dispatch);
            let (reference, _) = observe_run(store_enabled, per_consumer);
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
            // A record that reaches both consumers is handled, then
            // alerted on.
            let both = log
                .windows(2)
                .filter(|w| w[0].starts_with("handler") && w[1].starts_with("alert"))
                .count();
            assert!(both > 0, "{log:?}");
            // The whole message is stored before its first handler runs.
            assert_eq!(seen.len(), log.len());
            assert!(seen.iter().all(|&n| n == stored), "{seen:?}");
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
        let ((_, (published, dispatched), alerts, stored), _) = shared;
        assert_eq!((published, dispatched, stored), (0, 0, 0));
        assert!(alerts > 0);
    }

    #[test]
    fn a_record_read_from_its_document_fires_handlers_like_the_record() {
        for store_enabled in [true, false] {
            let by_document = observe_run(store_enabled, |athena, records| {
                for r in &records {
                    let mut fm = athena.runtime().feature_manager.lock();
                    fm.ingest(FeatureRecord::from(r.document().clone()))
                        .unwrap();
                }
            });
            let by_record = observe_run(store_enabled, |athena, records| {
                for r in records {
                    athena.runtime().feature_manager.lock().ingest(r).unwrap();
                }
            });
            assert_eq!(by_document, by_record, "store_enabled={store_enabled}");
            assert!(by_document.0 .1 .1 > 0);
        }
    }
}
