//! `TimedLink`: a transparent [`ControllerLink`] wrapper that times every
//! call the dataplane makes into the control plane.
//!
//! The simulator delivers southbound messages synchronously, so a span
//! around each `on_message` / `on_packet_in_batch` / `on_tick` call is
//! the whole control-plane cost of that message — controller pipeline,
//! Athena southbound element, feature generation, store write, live
//! validators and reactor together (`controller.link_busy_s`). The
//! dataplane's self time is the step span minus these child spans.
//!
//! The wrapper forwards every call unchanged and returns the inner
//! link's replies untouched; `transparency` in the tests below is the
//! gate for that.

use crate::trace::SharedTracer;
use athena_dataplane::ControllerLink;
use athena_openflow::OfMessage;
use athena_types::{Dpid, SimTime};

/// Span names, one per message class.
pub const PACKET_IN: &str = "controller.packet_in";
pub const STATS_REPLY: &str = "controller.stats_reply";
pub const FLOW_REMOVED: &str = "controller.flow_removed";
pub const OTHER: &str = "controller.other";
pub const BATCH: &str = "controller.packet_in_batch";
pub const ON_TICK: &str = "controller.on_tick";

/// Every span name the wrapper records.
pub const LINK_SPANS: [&str; 6] = [PACKET_IN, STATS_REPLY, FLOW_REMOVED, OTHER, BATCH, ON_TICK];

/// How many messages of each class [`Capture`] keeps.
const CAPTURE_PER_CLASS: usize = 256;

/// Southbound messages and controller replies kept for the layer probes
/// (codec, feature generator). Filled during the discarded warm-up rep
/// only, so cloning never lands inside a measured span.
#[derive(Debug, Default)]
pub struct Capture {
    pub packet_ins: Vec<(Dpid, OfMessage, SimTime)>,
    pub stats_replies: Vec<(Dpid, OfMessage, SimTime)>,
    pub flow_removeds: Vec<(Dpid, OfMessage, SimTime)>,
    pub commands: Vec<(Dpid, OfMessage)>,
}

impl Capture {
    fn southbound(&mut self, from: Dpid, msg: &OfMessage, now: SimTime) {
        let class = match msg {
            OfMessage::PacketIn { .. } => &mut self.packet_ins,
            OfMessage::StatsReply { .. } => &mut self.stats_replies,
            OfMessage::FlowRemoved { .. } => &mut self.flow_removeds,
            _ => return,
        };
        if class.len() < CAPTURE_PER_CLASS {
            class.push((from, msg.clone(), now));
        }
    }

    fn replies(&mut self, cmds: &[(Dpid, OfMessage)]) {
        let room = CAPTURE_PER_CLASS.saturating_sub(self.commands.len());
        self.commands.extend(cmds.iter().take(room).cloned());
    }

    /// Every captured message, southbound classes first.
    pub fn all_messages(&self) -> Vec<&OfMessage> {
        self.packet_ins
            .iter()
            .chain(&self.stats_replies)
            .chain(&self.flow_removeds)
            .map(|(_, m, _)| m)
            .chain(self.commands.iter().map(|(_, m)| m))
            .collect()
    }
}

/// The wrapper. `C` is the real control plane (a `ControllerCluster`
/// with or without Athena attached).
pub struct TimedLink<C> {
    inner: C,
    tracer: SharedTracer,
    capture: Option<Capture>,
}

impl<C: ControllerLink> TimedLink<C> {
    pub fn new(inner: C, tracer: SharedTracer) -> Self {
        TimedLink {
            inner,
            tracer,
            capture: None,
        }
    }

    /// Starts keeping the first messages of each class.
    pub fn capturing(mut self) -> Self {
        self.capture = Some(Capture::default());
        self
    }

    /// Unwraps into the control plane and whatever was captured.
    pub fn into_parts(self) -> (C, Option<Capture>) {
        (self.inner, self.capture)
    }

    fn timed<R>(&mut self, name: &'static str, items: u32, f: impl FnOnce(&mut C) -> R) -> R {
        let id = self.tracer.borrow_mut().open_items(name, items);
        let out = f(&mut self.inner);
        self.tracer.borrow_mut().close(id);
        out
    }
}

impl<C: ControllerLink> ControllerLink for TimedLink<C> {
    fn on_message(&mut self, from: Dpid, msg: OfMessage, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        let name = match &msg {
            OfMessage::PacketIn { .. } => PACKET_IN,
            OfMessage::StatsReply { .. } => STATS_REPLY,
            OfMessage::FlowRemoved { .. } => FLOW_REMOVED,
            _ => OTHER,
        };
        if let Some(c) = &mut self.capture {
            c.southbound(from, &msg, now);
        }
        let out = self.timed(name, 1, |inner| inner.on_message(from, msg, now));
        if let Some(c) = &mut self.capture {
            c.replies(&out);
        }
        out
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        self.timed(ON_TICK, 1, |inner| inner.on_tick(now))
    }

    fn on_packet_in_batch(
        &mut self,
        batch: Vec<(Dpid, OfMessage)>,
        now: SimTime,
    ) -> Vec<(Dpid, OfMessage)> {
        if let Some(c) = &mut self.capture {
            for (from, msg) in &batch {
                c.southbound(*from, msg, now);
            }
        }
        let items = batch.len() as u32;
        let out = self.timed(BATCH, items, |inner| inner.on_packet_in_batch(batch, now));
        if let Some(c) = &mut self.capture {
            c.replies(&out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use athena_controller::ControllerCluster;
    use athena_core::{Athena, AthenaConfig};
    use athena_dataplane::{workload, Network, NetworkCounters, Topology};
    use athena_types::SimDuration;

    /// A short enterprise run; returns what the wrapper could perturb.
    fn run(wrapped: bool) -> (NetworkCounters, usize, u64, usize) {
        let topo = Topology::enterprise();
        let mut net = Network::new(topo.clone());
        let mut cluster = ControllerCluster::new(&topo);
        let athena = Athena::new(AthenaConfig::default());
        athena.attach(&mut cluster);
        net.inject_flows(workload::benign_mix_on(
            &topo,
            60,
            SimDuration::from_secs(8),
            7,
        ));
        let until = SimTime::from_secs(12);
        let (cluster, spans) = if wrapped {
            let tracer = Tracer::shared(true);
            let mut link = TimedLink::new(cluster, tracer.clone()).capturing();
            net.run_until(until, &mut link);
            let (cluster, capture) = link.into_parts();
            let capture = capture.expect("capturing");
            assert!(!capture.packet_ins.is_empty());
            assert!(!capture.stats_replies.is_empty());
            assert!(!capture.commands.is_empty());
            let n = tracer.borrow().spans().len();
            (cluster, n)
        } else {
            net.run_until(until, &mut cluster);
            (cluster, 0)
        };
        (
            net.counters(),
            athena.stored_feature_count(),
            cluster.counters().flow_mods,
            spans,
        )
    }

    #[test]
    fn transparency() {
        let (counters, stored, flow_mods, spans) = run(true);
        let (counters0, stored0, flow_mods0, _) = run(false);
        assert_eq!(counters, counters0);
        assert_eq!(stored, stored0);
        assert_eq!(flow_mods, flow_mods0);
        assert!(counters.packet_ins > 0 && stored > 0 && flow_mods > 0);
        // One span per packet-in at least, plus one on_tick per step.
        assert!(spans as u64 >= counters.packet_ins + 12);
    }
}
