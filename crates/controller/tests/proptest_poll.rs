//! Poll accounting under hostile replies: random interleavings of issues,
//! ticks and replies (on time, late, duplicated, never solicited, or
//! carrying the other mark) through one [`PollTracker`] per mark, checked
//! step by step against a model of the retry policy.
//!
//! After every step: `issued == settled + timeouts + outstanding` and
//! `timeouts == retries + gave_up`; a reply the tracker is not waiting
//! for changes nothing; a poll that is never answered is given up after
//! exactly [`MAX_RETRIES`] re-issues. The shim does not shrink, so a
//! failing case panics with its mark, its operation list and the step.

use athena_controller::stats::{deadline_after, BACKOFF_CAP, MAX_RETRIES};
use athena_controller::{PollTelemetry, PollTracker, RetryCounters};
use athena_openflow::{OfMessage, StatsRequest};
use athena_types::{Dpid, SimDuration, SimTime, Xid};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One step of a case. `pick` chooses among the candidates the step has.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Issue a poll to a fresh switch.
    Issue,
    /// Advance virtual time by this many seconds and drain timeouts.
    Tick(u64),
    /// Answer a poll the tracker is waiting for.
    OnTime(usize),
    /// Answer an XID that has since timed out.
    Late(usize),
    /// Answer an XID a second time.
    Duplicate(usize),
    /// Answer an XID of this mark that was never issued.
    Unsolicited(usize),
    /// Answer an issued XID with its mark bit flipped.
    OtherMark(usize),
    /// Stop keeping a switch (its controller lost mastership).
    Unkeep(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Issue),
        Just(Op::Issue),
        (0u64..30).prop_map(Op::Tick),
        (0u64..30).prop_map(Op::Tick),
        any::<usize>().prop_map(Op::OnTime),
        any::<usize>().prop_map(Op::OnTime),
        any::<usize>().prop_map(Op::Late),
        any::<usize>().prop_map(Op::Duplicate),
        any::<usize>().prop_map(Op::Unsolicited),
        any::<usize>().prop_map(Op::OtherMark),
        any::<usize>().prop_map(Op::Unkeep),
    ]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Live,
    Settled,
    GaveUp,
}

/// One logical poll: its switch is its identity across re-issues.
#[derive(Debug)]
struct Chain {
    dpid: Dpid,
    xid: Xid,
    issued_at: SimTime,
    attempt: u32,
    state: State,
}

/// The model: every chain, every XID that timed out, the expected counts.
struct Model {
    mark: u32,
    tracker: PollTracker,
    chains: Vec<Chain>,
    timed_out: Vec<Xid>,
    unkept: BTreeSet<Dpid>,
    expect: RetryCounters,
    now: SimTime,
}

fn pick<T>(items: &[T], i: usize) -> Option<&T> {
    (!items.is_empty()).then(|| &items[i % items.len()])
}

impl Model {
    fn new(mark: u32) -> Self {
        Model {
            mark,
            tracker: PollTracker::new(mark, PollTelemetry::default()),
            chains: Vec::new(),
            timed_out: Vec::new(),
            unkept: BTreeSet::new(),
            expect: RetryCounters::default(),
            now: SimTime::ZERO,
        }
    }

    fn xids(&self, state: State) -> Vec<Xid> {
        let chains = self.chains.iter().filter(|c| c.state == state);
        chains.map(|c| c.xid).collect()
    }

    /// A reply the tracker is not waiting for must change nothing.
    fn stray(&mut self, xid: Xid) -> Result<(), String> {
        let before = (self.tracker.counters(), self.tracker.outstanding());
        if self.tracker.settle(xid) {
            return Err(format!("stray reply {xid} settled a poll"));
        }
        let after = (self.tracker.counters(), self.tracker.outstanding());
        if before != after {
            return Err(format!("stray reply {xid}: {before:?} -> {after:?}"));
        }
        Ok(())
    }

    fn own_mark(&self, xid: Xid) -> Result<(), String> {
        let raw = xid.raw();
        if raw == 0 || raw == self.mark || (raw & Xid::ATHENA_MARK) != self.mark {
            return Err(format!("xid {xid} outside mark {:#x}'s range", self.mark));
        }
        Ok(())
    }

    fn step(&mut self, op: Op) -> Result<(), String> {
        match op {
            Op::Issue => {
                let dpid = Dpid::new(self.chains.len() as u64 + 1);
                let mut out = Vec::new();
                self.tracker
                    .issue(dpid, StatsRequest::Table, self.now, &mut out);
                let [(to, OfMessage::StatsRequest { xid, .. })] = out.as_slice() else {
                    return Err(format!("one issue sent {out:?}"));
                };
                if *to != dpid {
                    return Err(format!("issue to {dpid} sent to {to}"));
                }
                self.own_mark(*xid)?;
                self.chains.push(Chain {
                    dpid,
                    xid: *xid,
                    issued_at: self.now,
                    attempt: 0,
                    state: State::Live,
                });
                self.expect.issued += 1;
            }
            Op::Tick(secs) => {
                self.now += SimDuration::from_secs(secs);
                self.tick()?;
            }
            Op::OnTime(i) => {
                let Some(&xid) = pick(&self.xids(State::Live), i) else {
                    return Ok(());
                };
                if !self.tracker.settle(xid) {
                    return Err(format!("on-time reply {xid} not settled"));
                }
                let chain = self.chains.iter_mut().find(|c| c.xid == xid);
                chain.expect("a live xid has a chain").state = State::Settled;
                self.expect.settled += 1;
            }
            Op::Late(i) => {
                if let Some(&xid) = pick(&self.timed_out, i) {
                    self.stray(xid)?;
                }
            }
            Op::Duplicate(i) => {
                if let Some(&xid) = pick(&self.xids(State::Settled), i) {
                    self.stray(xid)?;
                }
            }
            Op::Unsolicited(i) => {
                // Past every issued sequence value, or sequence 0, which
                // the sequence never takes.
                let issued = self.expect.issued as usize;
                let seq = match i % 4 {
                    0 => 0,
                    _ => (issued + 1 + i % 1_000) as u32,
                };
                self.stray(Xid::new(seq | self.mark))?;
            }
            Op::OtherMark(i) => {
                let all: Vec<Xid> = self.chains.iter().map(|c| c.xid).collect();
                let issued = [all, self.timed_out.clone()].concat();
                if let Some(xid) = pick(&issued, i) {
                    self.stray(Xid::new(xid.raw() ^ Xid::ATHENA_MARK))?;
                }
            }
            Op::Unkeep(i) => {
                if let Some(c) = pick(&self.chains, i) {
                    self.unkept.insert(c.dpid);
                }
            }
        }
        self.check()
    }

    /// Drains at `now` and holds the output to the policy.
    fn tick(&mut self) -> Result<(), String> {
        let mut out = Vec::new();
        let unkept = &self.unkept;
        self.tracker
            .drain_timeouts(self.now, |d| !unkept.contains(&d), &mut out);
        // Due polls are handled in XID order; the retried ones are
        // re-sent in that order.
        let mut due: Vec<usize> = (0..self.chains.len())
            .filter(|&i| {
                let c = &self.chains[i];
                c.state == State::Live
                    && self.now.saturating_since(c.issued_at) >= deadline_after(c.attempt)
            })
            .collect();
        due.sort_by_key(|&i| self.chains[i].xid);
        let mut sent = out.into_iter();
        for i in due {
            let c = &mut self.chains[i];
            self.timed_out.push(c.xid);
            self.expect.timeouts += 1;
            if c.attempt >= MAX_RETRIES || self.unkept.contains(&c.dpid) {
                c.state = State::GaveUp;
                self.expect.gave_up += 1;
                continue;
            }
            let Some((to, OfMessage::StatsRequest { xid, body })) = sent.next() else {
                return Err(format!("poll to {} due but not re-sent", c.dpid));
            };
            if to != c.dpid || body != StatsRequest::Table {
                return Err(format!("retry of {} went to {to} as {body:?}", c.dpid));
            }
            if self.timed_out.contains(&xid) || xid == c.xid {
                return Err(format!("retry reused {xid}"));
            }
            c.xid = xid;
            c.issued_at = self.now;
            c.attempt += 1;
            self.expect.retries += 1;
            self.expect.issued += 1;
            self.own_mark(xid)?;
        }
        let extra: Vec<_> = sent.collect();
        if !extra.is_empty() {
            return Err(format!("unexpected re-sends {extra:?}"));
        }
        Ok(())
    }

    fn check(&self) -> Result<(), String> {
        let c = self.tracker.counters();
        let outstanding = self.tracker.outstanding() as u64;
        if c != self.expect {
            return Err(format!("counters {c:?}, model {:?}", self.expect));
        }
        let live = self.chains.iter().filter(|c| c.state == State::Live);
        if outstanding != live.count() as u64 {
            return Err(format!("{outstanding} outstanding"));
        }
        if c.issued != c.settled + c.timeouts + outstanding {
            return Err(format!(
                "issue law broken: {c:?}, {outstanding} outstanding"
            ));
        }
        if c.timeouts != c.retries + c.gave_up {
            return Err(format!("timeout law broken: {c:?}"));
        }
        Ok(())
    }

    /// Lets every poll still live run out unanswered; each kept one is
    /// given up after exactly `MAX_RETRIES` re-issues.
    fn run_out(&mut self) -> Result<(), String> {
        for _ in 0..=MAX_RETRIES {
            self.now += BACKOFF_CAP;
            self.tick()?;
            self.check()?;
        }
        if self.tracker.outstanding() != 0 {
            return Err("polls outlived every retry".into());
        }
        for c in &self.chains {
            let kept = !self.unkept.contains(&c.dpid);
            if c.state == State::GaveUp && kept && c.attempt != MAX_RETRIES {
                return Err(format!("{c:?} given up after {} re-issues", c.attempt));
            }
        }
        Ok(())
    }
}

fn run(mark: u32, ops: &[Op]) {
    let mut m = Model::new(mark);
    for (n, &op) in ops.iter().enumerate() {
        if let Err(e) = m.step(op) {
            panic!("step {n} ({op:?}): {e}\ncase: mark={mark:#x} ops={ops:?}");
        }
    }
    if let Err(e) = m.run_out() {
        panic!("run-out: {e}\ncase: mark={mark:#x} ops={ops:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn unmarked_poll_accounting_survives_hostile_replies(
        ops in proptest::collection::vec(op(), 1..160)
    ) {
        run(0, &ops);
    }

    #[test]
    fn marked_poll_accounting_survives_hostile_replies(
        ops in proptest::collection::vec(op(), 1..160)
    ) {
        run(Xid::ATHENA_MARK, &ops);
    }
}

/// The two marks' trackers never answer each other's replies, even for
/// the same sequence value.
#[test]
fn the_marks_partition_the_xid_space() {
    let mut unmarked = PollTracker::new(0, PollTelemetry::default());
    let mut marked = PollTracker::new(Xid::ATHENA_MARK, PollTelemetry::default());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    unmarked.issue(Dpid::new(1), StatsRequest::Table, SimTime::ZERO, &mut a);
    marked.issue(Dpid::new(1), StatsRequest::Table, SimTime::ZERO, &mut b);
    let (xa, xb) = (a[0].1.xid(), b[0].1.xid());
    assert_eq!(xa.raw() | Xid::ATHENA_MARK, xb.raw());
    assert!(!marked.settle(xa) && !unmarked.settle(xb));
    assert!(unmarked.settle(xa) && marked.settle(xb));
}
