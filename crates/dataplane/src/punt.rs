//! The punt discipline: the one decision [`Network`] and
//! [`ShardedNetwork`] differ in.
//!
//! Both are [`Engine`] — same shards, same walk, same segment stream,
//! same settle and credit code, same hooks. What a discipline fixes is
//! how a table miss reaches the controller, and with it when a new
//! flow's first packet is routed:
//!
//! - **[`Synchronous`]** ([`Network`]): every packet walks to completion
//!   on its own, crossing shard boundaries as it goes; each miss is
//!   resolved inline through [`ControllerLink::on_message`] under a
//!   `dataplane/packet_in` span before the walk resumes. A new flow's
//!   activation packet is routed and fully credited the moment the flow
//!   activates, i.e. before the controller's `on_tick` — so a statistics
//!   poll in that tick already sees it. This is the model every detection
//!   scenario of the paper runs on.
//! - **[`Batched`]** ([`ShardedNetwork`]): activation packets join the
//!   tick's traffic items, and all items are routed in bulk-synchronous
//!   rounds: every shard walks its packets in parallel, walks stop at
//!   shard boundaries, and each round's misses go to
//!   [`ControllerLink::on_packet_in_batch`] as one batch under a
//!   `dataplane/packet_in_batch` span — the controller pipelines it.
//!   Rounds repeat until every packet settles.
//!
//! Why both exist: a one-shard `Batched` engine is *not* `Network`. A
//! flow's activation packet and its first traffic item miss in the same
//! round and both punt, and the activation is credited after the stats
//! poll instead of before — on the ledger's `ddos_detect` (seed 20170610)
//! that is 1064 packet-ins instead of 612, 3681 flow-mods instead of
//! 2167, and a different detection rate. The discipline is therefore a
//! property of the type, never a configuration field.
//!
//! # Determinism contract
//!
//! Under either discipline every observable output is byte-identical at
//! any `ATHENA_THREADS` width: parallel phases touch shard-local state
//! only and every cross-shard step runs sequentially in a sorted order.
//! **Synchronous is also plan-invariant**: packets walk one at a time in
//! item order whatever the shard boundaries, expiry order is dpid order,
//! and settle and credit are per-link and commutative — so any
//! [`ShardPlan`](crate::ShardPlan) yields the one-shard run's bytes.
//! **Batched is fixed-plan**: shard boundaries decide which misses share
//! a round and so a punt batch, exactly like region placement would on a
//! real distributed controller.

use crate::network::ControllerLink;
use crate::shard::{Engine, Outcome, PacketState};

/// How many times a table miss may punt to the controller per hop
/// before the packet is dropped, under either discipline.
pub(crate) const MAX_PUNT_RETRIES: usize = 1;

/// The unsharded-semantics network: [`Engine`] under [`Synchronous`].
pub type Network = Engine<Synchronous>;

/// The batched, round-based network: [`Engine`] under [`Batched`].
///
/// The name says how misses travel, not how many shards there are:
/// `new` / `with_config` build **one** shard on either type. Pass
/// [`ShardPlan::auto`](crate::ShardPlan::auto) to
/// [`with_plan`](Engine::with_plan) to partition the topology.
pub type ShardedNetwork = Engine<Batched>;

/// How an [`Engine`] resolves table misses; implemented by
/// [`Synchronous`] and [`Batched`] only.
pub trait PuntDiscipline: sealed::Discipline {}

/// Inline punts, activation routed at activation time. See the [module
/// docs](self).
#[derive(Debug, Clone, Copy)]
pub struct Synchronous;

/// One punt batch per routing round, activation routed with the tick's
/// traffic. See the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct Batched;

impl PuntDiscipline for Synchronous {}
impl PuntDiscipline for Batched {}

pub(crate) mod sealed {
    use super::{ControllerLink, Engine};

    /// What a discipline decides. Unnameable outside the crate, which
    /// seals [`PuntDiscipline`](super::PuntDiscipline).
    pub trait Discipline: Sized {
        /// A new flow's activation packet has just joined `net.items`.
        fn activated<C: ControllerLink>(net: &mut Engine<Self>, ctrl: &mut C);

        /// Routes every item of `net.items`, appending the hops taken to
        /// `net.stream` and marking the items that reached a host.
        fn route<C: ControllerLink>(net: &mut Engine<Self>, ctrl: &mut C);
    }
}

impl sealed::Discipline for Synchronous {
    /// Routed and credited now — before `on_tick` and the tick's traffic.
    fn activated<C: ControllerLink>(net: &mut Engine<Self>, ctrl: &mut C) {
        Self::route(net, ctrl);
        net.credit_inline();
    }

    fn route<C: ControllerLink>(net: &mut Engine<Self>, ctrl: &mut C) {
        let now = net.now;
        let mut handoffs = 0u64;
        for item in 0..net.items.len() {
            let Some(mut st) = net.packet(item) else {
                continue;
            };
            while let Some(shard) = net.shards.get(st.at.shard) {
                match shard.walk(&mut st, now, &mut net.stream) {
                    Outcome::Delivered => {
                        if let Some(it) = net.items.get_mut(item) {
                            it.delivered = true;
                        }
                        break;
                    }
                    Outcome::Failed => break,
                    Outcome::Handoff => handoffs += 1,
                    Outcome::Miss => {
                        let Some((dpid, msg)) = net.packet_in(&st) else {
                            break;
                        };
                        let xid = msg.xid();
                        // Root of the causal chain: everything the
                        // controller does in response (pipeline, store
                        // writes, verdicts) joins this trace.
                        let span = net.observe.span_at("dataplane", "packet_in", now);
                        let cmds = ctrl.on_message(dpid, msg, now);
                        net.apply_commands(cmds, ctrl);
                        span.finish(format_args!("dpid={} xid={}", dpid.raw(), xid.raw()));
                        st.punts += 1;
                    }
                }
            }
        }
        net.tel.routing_rounds.add(u64::from(!net.items.is_empty()));
        net.tel.cross_shard_handoffs.add(handoffs);
    }
}

impl sealed::Discipline for Batched {
    /// Nothing yet: the packet is routed with the tick's traffic.
    fn activated<C: ControllerLink>(_net: &mut Engine<Self>, _ctrl: &mut C) {}

    fn route<C: ControllerLink>(net: &mut Engine<Self>, ctrl: &mut C) {
        let now = net.now;
        // Inboxes fill in item order and the merge below walks shards in
        // index order, so a round's output order is a pure function of
        // its input.
        let mut next: Vec<PacketState> = (0..net.items.len())
            .filter_map(|item| net.packet(item))
            .collect();
        let (mut rounds, mut handoffs) = (0u64, 0u64);
        while !next.is_empty() {
            rounds += 1;
            for st in next.drain(..) {
                if let Some(shard) = net.shards.get_mut(st.at.shard) {
                    shard.inbox.push(st);
                }
            }
            net.each_shard(move |s| s.walk_inbox(now));
            let mut punts: Vec<PacketState> = Vec::new();
            for shard in &mut net.shards {
                net.stream.append(&mut shard.hops);
                for (st, outcome) in shard.outbox.drain(..) {
                    match outcome {
                        Outcome::Delivered => {
                            if let Some(it) = net.items.get_mut(st.item) {
                                it.delivered = true;
                            }
                        }
                        Outcome::Failed => {}
                        Outcome::Miss => punts.push(st),
                        Outcome::Handoff => {
                            handoffs += 1;
                            next.push(st);
                        }
                    }
                }
            }
            if !punts.is_empty() {
                // One batch per round: xids assigned in item order, one
                // span for the whole batch, commands applied in the
                // order the controller returned them.
                punts.sort_by_key(|st| st.item);
                let batch: Vec<_> = punts.iter().filter_map(|st| net.packet_in(st)).collect();
                let n = batch.len() as u64;
                let span = net.observe.span_at("dataplane", "packet_in_batch", now);
                let cmds = ctrl.on_packet_in_batch(batch, now);
                net.apply_commands(cmds, ctrl);
                span.finish(format_args!("{n} packet-ins"));
                net.tel.punt_batches.inc();
                net.tel.batched_packet_ins.add(n);
                for mut st in punts {
                    st.punts += 1;
                    next.push(st);
                }
            }
            // Each item has at most one packet in flight, so the item
            // index is a unique, deterministic next-round order.
            next.sort_by_key(|st| st.item);
        }
        net.tel.routing_rounds.add(rounds);
        net.tel.cross_shard_handoffs.add(handoffs);
    }
}
