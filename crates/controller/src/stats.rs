//! Statistics polling: one request tracker, two pollers.
//!
//! ONOS polls flow and port statistics from its mastered switches as part
//! of its management functions; the paper marks Athena's *own* requests'
//! XIDs to tell the two apart ("we mark an XID value for statistics
//! request messages"). That mark is the only difference: [`PollTracker`]
//! is the one issue / time-out / back-off / give-up machine, and its owner
//! picks the mark. [`StatsPoller`] is the ONOS side (unmarked XIDs);
//! Athena's southbound element owns a tracker with [`Xid::ATHENA_MARK`].
//!
//! A reply lost to a faulty southbound channel (see `athena-faults`)
//! times out after [`deadline_after`] its attempt and is re-issued with a
//! fresh XID, at most [`MAX_RETRIES`] times. Every issue, settle,
//! timeout, retry and give-up is counted once, in the tracker's own
//! counters: [`PollTracker::counters`] reads them as [`RetryCounters`],
//! and each owner reports the ones it declares a name for.

use athena_openflow::{MatchFields, OfMessage, StatsRequest};
use athena_telemetry::{Counter, MetricsRegistry};
use athena_types::{Dpid, PortNo, SimDuration, SimTime, Xid};
use std::collections::BTreeMap;

/// How long a request waits for its reply before its first retry.
pub const POLL_TIMEOUT: SimDuration = SimDuration::from_secs(3);
/// Re-issues per logical request before it is given up.
pub const MAX_RETRIES: u32 = 3;
/// Upper bound on the backed-off reply deadline.
pub const BACKOFF_CAP: SimDuration = SimDuration::from_secs(24);

/// The reply deadline for a request issued on its `attempt`-th try
/// (attempt 0 is the original request): `POLL_TIMEOUT * 2^attempt`,
/// clamped to [`BACKOFF_CAP`].
pub fn deadline_after(attempt: u32) -> SimDuration {
    (POLL_TIMEOUT * (1u64 << attempt.min(16))).min(BACKOFF_CAP)
}

/// One in-flight statistics request awaiting its reply.
#[derive(Debug, Clone)]
struct Outstanding {
    dpid: Dpid,
    body: StatsRequest,
    issued_at: SimTime,
    attempt: u32,
}

/// What a [`PollTracker`] has done. Every issued request is settled,
/// timed out or still outstanding; every timeout is a retry or a give-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryCounters {
    /// Requests issued, retries included.
    pub issued: u64,
    /// Requests whose reply arrived before their deadline.
    pub settled: u64,
    /// Requests whose reply deadline elapsed.
    pub timeouts: u64,
    /// Requests re-issued after a timeout.
    pub retries: u64,
    /// Requests abandoned after exhausting every retry (or whose switch
    /// the owner no longer keeps).
    pub gave_up: u64,
}

/// Tracks statistics requests from issue to reply, re-issuing timed-out
/// ones under bounded exponential backoff.
#[derive(Debug, Default)]
pub struct PollTracker {
    mark: u32,
    next_seq: u32,
    // Keyed by raw XID; a BTreeMap keeps timeout scans deterministic.
    outstanding: BTreeMap<u32, Outstanding>,
    issued: Counter,
    settled: Counter,
    timeouts: Counter,
    retries: Counter,
    gave_up: Counter,
}

impl PollTracker {
    /// A tracker whose XIDs carry `mark` (0, or [`Xid::ATHENA_MARK`]).
    pub fn new(mark: u32) -> Self {
        PollTracker {
            mark,
            ..PollTracker::default()
        }
    }

    /// The tracker's counters.
    pub fn counters(&self) -> RetryCounters {
        RetryCounters {
            issued: self.issued.get(),
            settled: self.settled.get(),
            timeouts: self.timeouts.get(),
            retries: self.retries.get(),
            gave_up: self.gave_up.get(),
        }
    }

    /// Reports the tracker's timeouts and give-ups into `m` under the
    /// `retry/*` names `timeouts` and `gave_up`.
    pub fn register_outcomes(&self, m: &MetricsRegistry, timeouts: &str, gave_up: &str) {
        use athena_telemetry::names::retry;
        m.register_counter(retry::SUBSYSTEM, timeouts, &self.timeouts);
        m.register_counter(retry::SUBSYSTEM, gave_up, &self.gave_up);
    }

    /// Requests currently awaiting a reply.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Issues a fresh request for `body` to `dpid` into `out`.
    pub fn issue(
        &mut self,
        dpid: Dpid,
        body: StatsRequest,
        now: SimTime,
        out: &mut Vec<(Dpid, OfMessage)>,
    ) {
        self.send(dpid, body, now, 0, out);
    }

    /// Settles the request a reply with `xid` answers. Returns `false`,
    /// changing nothing, for an XID that is not outstanding: never
    /// issued, carrying the other mark, already settled or timed out.
    pub fn settle(&mut self, xid: Xid) -> bool {
        let settled = self.outstanding.remove(&xid.raw()).is_some();
        self.settled.add(u64::from(settled));
        settled
    }

    /// Times out every request whose deadline has passed at `now`,
    /// re-issuing it into `out` unless it has used its [`MAX_RETRIES`]
    /// or `keep` rejects its switch, in which case it is given up.
    pub fn drain_timeouts(
        &mut self,
        now: SimTime,
        keep: impl Fn(Dpid) -> bool,
        out: &mut Vec<(Dpid, OfMessage)>,
    ) {
        let due: Vec<u32> = self
            .outstanding
            .iter()
            .filter(|(_, o)| now.saturating_since(o.issued_at) >= deadline_after(o.attempt))
            .map(|(xid, _)| *xid)
            .collect();
        for xid in due {
            let Some(o) = self.outstanding.remove(&xid) else {
                continue;
            };
            self.timeouts.inc();
            if o.attempt >= MAX_RETRIES || !keep(o.dpid) {
                self.gave_up.inc();
                continue;
            }
            self.retries.inc();
            self.send(o.dpid, o.body, now, o.attempt + 1, out);
        }
    }

    /// The next XID: the sequence stays strictly inside
    /// `[1, Xid::MAX_UNMARKED]` under the mark, so it never emits 0 or
    /// `mark | 0` and never crosses into the other mark's range.
    fn fresh_xid(&mut self) -> Xid {
        self.next_seq = Xid::next_unmarked(self.next_seq);
        Xid::new(self.next_seq | self.mark)
    }

    fn send(
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
            Outstanding {
                dpid,
                body: body.clone(),
                issued_at: now,
                attempt,
            },
        );
        self.issued.inc();
        out.push((dpid, OfMessage::StatsRequest { xid, body }));
    }
}

/// ONOS's background poller: a flow + port request per switch every
/// `interval`, with unmarked XIDs.
#[derive(Debug)]
pub struct StatsPoller {
    /// The polling period.
    interval: SimDuration,
    switches: Vec<Dpid>,
    last_poll: SimTime,
    polls: PollTracker,
}

impl StatsPoller {
    /// Creates a poller over the given switches.
    pub fn new(switches: Vec<Dpid>, interval: SimDuration) -> Self {
        StatsPoller {
            interval,
            switches,
            last_poll: SimTime::ZERO,
            polls: PollTracker::new(0),
        }
    }

    /// Reports the poller's issued-request and retry counters into `tel`.
    pub fn bind_telemetry(&self, tel: &athena_telemetry::Telemetry) {
        use athena_telemetry::names::{controller as ctl, retry};
        let (m, p) = (tel.metrics(), &self.polls);
        m.register_counter(ctl::SUBSYSTEM, ctl::STATS_POLLS_ISSUED, &p.issued);
        m.register_counter(retry::SUBSYSTEM, retry::STATS_RETRIES, &p.retries);
        p.register_outcomes(m, retry::STATS_TIMEOUTS, retry::STATS_GAVE_UP);
    }

    /// The poller's request tracker.
    pub fn polls(&self) -> &PollTracker {
        &self.polls
    }

    /// Notes a statistics reply, settling the matching in-flight request.
    /// Returns `true` if the XID was one of ours.
    pub fn on_reply(&mut self, xid: Xid) -> bool {
        self.polls.settle(xid)
    }

    /// Returns the requests due at `now`: timed-out retries plus, on the
    /// polling period, a fresh flow + port request per switch.
    pub fn poll(&mut self, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        let mut out = Vec::new();
        self.polls.drain_timeouts(now, |_| true, &mut out);
        if now < self.last_poll + self.interval && self.last_poll != SimTime::ZERO {
            return out;
        }
        self.last_poll = now;
        for &dpid in &self.switches {
            let flow = StatsRequest::Flow {
                filter: MatchFields::new(),
            };
            self.polls.issue(dpid, flow, now, &mut out);
            let port = StatsRequest::Port {
                port_no: PortNo::ANY,
            };
            self.polls.issue(dpid, port, now, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_telemetry::Telemetry;

    fn settle(p: &mut StatsPoller, msgs: &[(Dpid, OfMessage)]) {
        for (_, m) in msgs {
            p.on_reply(m.xid());
        }
    }

    #[test]
    fn polls_on_the_interval() {
        let mut p = StatsPoller::new(vec![Dpid::new(1), Dpid::new(2)], SimDuration::from_secs(5));
        // First poll fires immediately.
        let first = p.poll(SimTime::from_secs(1));
        assert_eq!(first.len(), 4);
        settle(&mut p, &first);
        // Too soon.
        assert!(p.poll(SimTime::from_secs(3)).is_empty());
        // Due again.
        assert_eq!(p.poll(SimTime::from_secs(6)).len(), 4);
        assert_eq!(p.polls().counters().issued, 8);
        assert_eq!(p.polls().counters().settled, 4);
    }

    #[test]
    fn requests_are_unmarked() {
        let mut p = StatsPoller::new(vec![Dpid::new(1)], SimDuration::from_secs(1));
        for (_, msg) in p.poll(SimTime::from_secs(1)) {
            assert!(!msg.xid().is_athena_marked());
        }
    }

    #[test]
    fn xids_wrap_without_entering_the_marked_range() {
        for mark in [0, Xid::ATHENA_MARK] {
            let mut t = PollTracker::new(mark);
            // Park the sequence one issue shy of the ceiling so the next
            // three issues straddle the wrap point.
            t.next_seq = Xid::MAX_UNMARKED - 1;
            let mut out = Vec::new();
            for _ in 0..3 {
                t.issue(Dpid::new(1), StatsRequest::Table, SimTime::ZERO, &mut out);
            }
            let xids: Vec<u32> = out.iter().map(|(_, m)| m.xid().raw()).collect();
            assert_eq!(xids, vec![Xid::MAX_UNMARKED | mark, 1 | mark, 2 | mark]);
            for &x in &xids {
                assert!(x != 0 && x != mark, "xid {x:#x} under mark {mark:#x}");
                assert_eq!(Xid::new(x).is_athena_marked(), mark != 0, "xid {x:#x}");
            }
        }
    }

    #[test]
    fn issued_polls_reach_telemetry() {
        let tel = Telemetry::new();
        let mut p = StatsPoller::new(vec![Dpid::new(1), Dpid::new(2)], SimDuration::from_secs(5));
        p.bind_telemetry(&tel);
        p.poll(SimTime::from_secs(1));
        assert_eq!(
            tel.metrics()
                .counter("controller", "stats_polls_issued")
                .get(),
            4
        );
    }

    #[test]
    fn answered_requests_do_not_retry() {
        let mut p = StatsPoller::new(vec![Dpid::new(1)], SimDuration::from_secs(100));
        let msgs = p.poll(SimTime::from_secs(1));
        assert_eq!(p.polls().outstanding(), 2);
        settle(&mut p, &msgs);
        assert_eq!(p.polls().outstanding(), 0);
        // Far past any deadline: nothing to retry.
        assert!(p.poll(SimTime::from_secs(50)).is_empty());
        let c = p.polls().counters();
        assert_eq!((c.issued, c.settled), (2, 2));
        assert_eq!((c.timeouts, c.retries, c.gave_up), (0, 0, 0));
    }

    #[test]
    fn lost_replies_retry_with_backoff_then_give_up() {
        let tel = Telemetry::new();
        let mut p = StatsPoller::new(vec![Dpid::new(1)], SimDuration::from_secs(1_000));
        p.bind_telemetry(&tel);
        let original = p.poll(SimTime::from_secs(1));
        assert_eq!(original.len(), 2);
        // Drop every reply. Deadline 1: t=1+3 → both requests re-issued.
        assert!(p.poll(SimTime::from_secs(3)).is_empty(), "not yet due");
        let retry1 = p.poll(SimTime::from_secs(4));
        assert_eq!(retry1.len(), 2);
        // Fresh XIDs on retry.
        let old: Vec<u32> = original.iter().map(|(_, m)| m.xid().raw()).collect();
        assert!(retry1.iter().all(|(_, m)| !old.contains(&m.xid().raw())));
        // Deadline 2 backs off to 6 s: due at t=10; deadline 3 to 12 s:
        // due at t=22.
        assert!(p.poll(SimTime::from_secs(9)).is_empty(), "backoff honored");
        assert_eq!(p.poll(SimTime::from_secs(10)).len(), 2);
        assert!(p.poll(SimTime::from_secs(21)).is_empty(), "backoff honored");
        assert_eq!(p.poll(SimTime::from_secs(22)).len(), 2);
        // Deadline 4 (24 s, capped): exhausted → give up, no re-issue.
        assert!(p.poll(SimTime::from_secs(45)).is_empty());
        let after = p.poll(SimTime::from_secs(46));
        assert!(after.is_empty());
        assert_eq!(p.polls().outstanding(), 0);
        let c = p.polls().counters();
        assert_eq!(c.timeouts, 8);
        assert_eq!(c.retries, 6);
        assert_eq!(c.gave_up, 2);
        assert_eq!(c.issued, 8);
        let m = tel.metrics();
        assert_eq!(m.counter("retry", "stats_retries").get(), 6);
        assert_eq!(m.counter("retry", "stats_timeouts").get(), 8);
        assert_eq!(m.counter("retry", "stats_gave_up").get(), 2);
        assert_eq!(m.counter("controller", "stats_polls_issued").get(), 8);
    }

    #[test]
    fn backoff_is_bounded_by_the_cap() {
        assert_eq!(deadline_after(0), SimDuration::from_secs(3));
        assert_eq!(deadline_after(1), SimDuration::from_secs(6));
        assert_eq!(deadline_after(3), SimDuration::from_secs(24));
        assert_eq!(deadline_after(30), SimDuration::from_secs(24));
    }

    #[test]
    fn unkept_switches_give_up_on_their_first_timeout() {
        let mut t = PollTracker::new(Xid::ATHENA_MARK);
        let mut out = Vec::new();
        for dpid in [1, 2] {
            t.issue(
                Dpid::new(dpid),
                StatsRequest::Table,
                SimTime::ZERO,
                &mut out,
            );
        }
        out.clear();
        let later = SimTime::ZERO + deadline_after(0);
        t.drain_timeouts(later, |d| d == Dpid::new(2), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Dpid::new(2));
        let c = t.counters();
        assert_eq!((c.timeouts, c.retries, c.gave_up), (2, 1, 1));
    }
}
