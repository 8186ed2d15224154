//! The chaos channel: a [`ControllerLink`] wrapper that drops, delays,
//! and duplicates southbound messages under a seeded profile.

use crate::plan::MessageFaultProfile;
use athena_controller::ControllerCluster;
use athena_dataplane::ControllerLink;
use athena_observe::Observe;
use athena_openflow::OfMessage;
use athena_telemetry::{names, Counter, Telemetry};
use athena_types::{ControllerId, Dpid, SimTime};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;

/// What the fault injector needs from a control plane: instance
/// crash/rejoin semantics and a message-fault knob. Control planes
/// without a notion of instances (test stubs) use the no-op defaults.
pub trait FaultTarget {
    /// Crashes a controller instance; returns how many switches moved.
    fn crash(&mut self, instance: ControllerId) -> usize {
        let _ = instance;
        0
    }

    /// Rejoins a crashed instance; returns how many switches moved back.
    fn rejoin(&mut self, instance: ControllerId) -> usize {
        let _ = instance;
        0
    }

    /// Replaces the active southbound message-fault profile.
    fn set_message_faults(&mut self, profile: MessageFaultProfile) {
        let _ = profile;
    }
}

impl FaultTarget for ControllerCluster {
    fn crash(&mut self, instance: ControllerId) -> usize {
        self.crash_instance(instance).len()
    }

    fn rejoin(&mut self, instance: ControllerId) -> usize {
        self.rejoin_instance(instance).len()
    }
}

impl FaultTarget for athena_dataplane::LearningControllerStub {}

/// Counters for the chaos channel's message faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MessageFaultCounters {
    /// Messages silently dropped.
    pub dropped: u64,
    /// Messages processed twice.
    duplicated: u64,
    /// Messages held back and delivered late.
    delayed: u64,
}

/// Wraps any [`ControllerLink`], injecting southbound message faults
/// (switch→controller direction) according to the active
/// [`MessageFaultProfile`]. With the default (empty) profile the wrapper
/// is transparent: no RNG draws, no behavioral change.
///
/// Delayed messages are re-delivered from [`ControllerLink::on_tick`], in
/// arrival order, once their release time passes — everything stays on
/// virtual time, so runs are deterministic under a fixed seed.
pub struct ChaosChannel<C> {
    inner: C,
    rng: StdRng,
    profile: MessageFaultProfile,
    delayed: VecDeque<(SimTime, Dpid, OfMessage)>,
    counters: MessageFaultCounters,
    dropped_tel: Counter,
    duplicated_tel: Counter,
    delayed_tel: Counter,
    observe: Observe,
}

impl<C> ChaosChannel<C> {
    /// Wraps `inner`, drawing fault decisions from `seed`. Starts with no
    /// message faults; the injector (or caller) activates a profile.
    pub fn new(inner: C, seed: u64) -> Self {
        ChaosChannel {
            inner,
            rng: StdRng::seed_from_u64(seed ^ 0xc4a0_5c4a),
            profile: MessageFaultProfile::none(),
            delayed: VecDeque::new(),
            counters: MessageFaultCounters::default(),
            dropped_tel: Counter::detached(),
            duplicated_tel: Counter::detached(),
            delayed_tel: Counter::detached(),
            observe: Observe::disabled(),
        }
    }

    /// Routes the channel's fault counters into `tel`.
    pub fn bind_telemetry(&mut self, tel: &Telemetry) {
        let m = tel.metrics();
        let sub = names::faults::SUBSYSTEM;
        self.dropped_tel = m.counter(sub, names::faults::MSGS_DROPPED);
        self.duplicated_tel = m.counter(sub, names::faults::MSGS_DUPLICATED);
        self.delayed_tel = m.counter(sub, names::faults::MSGS_DELAYED);
    }

    /// Routes causal events (drop/delay/duplicate decisions) and the
    /// late-delivery spans into `obs`.
    pub fn bind_observe(&mut self, obs: &Observe) {
        self.observe = obs.clone();
    }

    /// The wrapped control plane.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Mutable access to the wrapped control plane.
    pub fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    /// The channel's fault counters.
    pub fn counters(&self) -> MessageFaultCounters {
        self.counters
    }

    /// The active profile.
    pub fn profile(&self) -> MessageFaultProfile {
        self.profile
    }
}

impl<C: ControllerLink> ControllerLink for ChaosChannel<C> {
    fn on_message(&mut self, from: Dpid, msg: OfMessage, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        if self.profile.is_none() {
            return self.inner.on_message(from, msg, now);
        }
        // Fixed draw order (drop, delay, dup) keeps the stream aligned
        // across runs with the same seed and message sequence.
        if self.profile.drop_p > 0.0 && self.rng.random_bool(self.profile.drop_p) {
            self.counters.dropped += 1;
            self.dropped_tel.inc();
            self.observe
                .event("faults", "msg_dropped", format_args!("dpid={}", from.raw()));
            return Vec::new();
        }
        if self.profile.delay_p > 0.0 && self.rng.random_bool(self.profile.delay_p) {
            self.counters.delayed += 1;
            self.delayed_tel.inc();
            self.observe
                .event("faults", "msg_delayed", format_args!("dpid={}", from.raw()));
            self.delayed
                .push_back((now + self.profile.delay, from, msg));
            return Vec::new();
        }
        if self.profile.dup_p > 0.0 && self.rng.random_bool(self.profile.dup_p) {
            self.counters.duplicated += 1;
            self.duplicated_tel.inc();
            let span = self.observe.span_at("faults", "chaos_hop", now);
            let mut out = self.inner.on_message(from, msg.clone(), now);
            out.extend(self.inner.on_message(from, msg, now));
            span.finish(format_args!("duplicated dpid={}", from.raw()));
            return out;
        }
        self.inner.on_message(from, msg, now)
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        let mut out = Vec::new();
        while let Some((release, _, _)) = self.delayed.front() {
            if *release > now {
                break;
            }
            let Some((_, from, msg)) = self.delayed.pop_front() else {
                break;
            };
            // Late delivery starts a fresh trace root: the original
            // packet-in's context is long gone by release time.
            let span = self.observe.span_at("faults", "delayed_delivery", now);
            out.extend(self.inner.on_message(from, msg, now));
            span.finish(format_args!("dpid={}", from.raw()));
        }
        out.extend(self.inner.on_tick(now));
        out
    }
}

impl<C: FaultTarget> FaultTarget for ChaosChannel<C> {
    fn crash(&mut self, instance: ControllerId) -> usize {
        self.inner.crash(instance)
    }

    fn rejoin(&mut self, instance: ControllerId) -> usize {
        self.inner.rejoin(instance)
    }

    fn set_message_faults(&mut self, profile: MessageFaultProfile) {
        self.profile = profile;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_types::SimDuration;

    /// Records every message it sees; replies nothing.
    #[derive(Default)]
    struct Sink {
        seen: Vec<(Dpid, SimTime)>,
    }

    impl ControllerLink for Sink {
        fn on_message(
            &mut self,
            from: Dpid,
            _msg: OfMessage,
            now: SimTime,
        ) -> Vec<(Dpid, OfMessage)> {
            self.seen.push((from, now));
            Vec::new()
        }
    }

    impl FaultTarget for Sink {}

    fn hello(i: u32) -> OfMessage {
        OfMessage::Hello {
            xid: athena_types::Xid::new(i),
            version: 4,
        }
    }

    #[test]
    fn empty_profile_is_transparent() {
        let mut ch = ChaosChannel::new(Sink::default(), 1);
        for i in 1..=50 {
            ch.on_message(Dpid::new(1), hello(i), SimTime::from_secs(1));
        }
        assert_eq!(ch.inner().seen.len(), 50);
        assert_eq!(ch.counters(), MessageFaultCounters::default());
    }

    #[test]
    fn drops_are_seeded_and_counted() {
        let run = |seed| {
            let mut ch = ChaosChannel::new(Sink::default(), seed);
            ch.set_message_faults(MessageFaultProfile::drops(0.5));
            for i in 1..=200 {
                ch.on_message(Dpid::new(1), hello(i), SimTime::from_secs(1));
            }
            (ch.inner().seen.len(), ch.counters())
        };
        let (n1, c1) = run(7);
        let (n2, c2) = run(7);
        assert_eq!(n1, n2);
        assert_eq!(c1, c2);
        assert!(
            c1.dropped > 50 && c1.dropped < 150,
            "dropped {}",
            c1.dropped
        );
        assert_eq!(n1 as u64 + c1.dropped, 200);
    }

    #[test]
    fn delayed_messages_arrive_after_release() {
        let mut ch = ChaosChannel::new(Sink::default(), 3);
        ch.set_message_faults(MessageFaultProfile::delays(1.0, SimDuration::from_secs(3)));
        ch.on_message(Dpid::new(1), hello(1), SimTime::from_secs(1));
        assert!(ch.inner().seen.is_empty());
        assert_eq!(ch.delayed.len(), 1);
        // Not due yet.
        ch.on_tick(SimTime::from_secs(2));
        assert!(ch.inner().seen.is_empty());
        // Due: release = 1 + 3 = 4.
        ch.on_tick(SimTime::from_secs(4));
        assert_eq!(ch.inner().seen, vec![(Dpid::new(1), SimTime::from_secs(4))]);
        assert_eq!(ch.counters().delayed, 1);
        assert_eq!(ch.delayed.len(), 0);
    }

    #[test]
    fn duplicates_double_process() {
        let tel = Telemetry::new();
        let mut ch = ChaosChannel::new(Sink::default(), 5);
        ch.bind_telemetry(&tel);
        ch.set_message_faults(MessageFaultProfile::duplicates(1.0));
        ch.on_message(Dpid::new(2), hello(1), SimTime::from_secs(1));
        assert_eq!(ch.inner().seen.len(), 2);
        assert_eq!(ch.counters().duplicated, 1);
        assert_eq!(tel.metrics().counter("faults", "msgs_duplicated").get(), 1);
    }

    #[test]
    fn clearing_the_profile_restores_transparency() {
        let mut ch = ChaosChannel::new(Sink::default(), 9);
        ch.set_message_faults(MessageFaultProfile::drops(1.0));
        ch.on_message(Dpid::new(1), hello(1), SimTime::from_secs(1));
        assert!(ch.inner().seen.is_empty());
        ch.set_message_faults(MessageFaultProfile::none());
        ch.on_message(Dpid::new(1), hello(2), SimTime::from_secs(2));
        assert_eq!(ch.inner().seen.len(), 1);
    }
}
