//! The control channel's contract and the simulator's configuration:
//! [`ControllerLink`] (what a controller looks like to the data plane),
//! [`NetworkConfig`] / [`ExpiryMode`], [`NetworkCounters`], and the
//! reference [`LearningControllerStub`]. The engine that drives them is
//! [`crate::shard::Engine`].

use crate::punt::PuntDiscipline;
use crate::shard::Engine;
use crate::topology::{HostSpec, Topology};
use athena_openflow::{Action, OfMessage, PacketHeader};
use athena_types::{Dpid, FiveTuple, Ipv4Addr, PortNo, SimDuration, SimTime, Xid};
use std::collections::HashMap;

/// The data plane's view of its controllers.
///
/// The simulator delivers southbound messages (packet-ins, flow-removed,
/// stats replies) synchronously and applies whatever commands come back.
/// [`ControllerLink::on_tick`] lets the control plane act on its own
/// schedule (statistics polling).
pub trait ControllerLink {
    /// Handles one southbound message; returns commands to apply.
    fn on_message(&mut self, from: Dpid, msg: OfMessage, now: SimTime) -> Vec<(Dpid, OfMessage)>;

    /// Called once per simulation tick; returns commands to apply (e.g.
    /// statistics requests).
    fn on_tick(&mut self, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        let _ = now;
        Vec::new()
    }

    /// Handles a batch of packet-ins punted in one tick, returning the
    /// concatenated commands in batch order.
    ///
    /// The default loops [`ControllerLink::on_message`], so every
    /// controller is batch-capable; implementations that can amortize
    /// per-message overhead (span setup, journalling, counter traffic)
    /// override it — see `athena-controller`'s `ControllerCluster`. An
    /// override must produce the same commands, in the same order, as
    /// the sequential loop.
    fn on_packet_in_batch(
        &mut self,
        batch: Vec<(Dpid, OfMessage)>,
        now: SimTime,
    ) -> Vec<(Dpid, OfMessage)> {
        let mut out = Vec::new();
        for (dpid, msg) in batch {
            out.extend(self.on_message(dpid, msg, now));
        }
        out
    }
}

/// How the per-tick flow-expiry pass finds due entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExpiryMode {
    /// Hierarchical timing-wheel wake-ups: O(due switches) per tick.
    #[default]
    Wheel,
    /// The test oracle: scan every switch's full table every tick,
    /// O(total flows). `tests/proptest_wheel.rs` holds the wheel to the
    /// FLOW_REMOVED stream this produces; nothing else selects it, and it
    /// is not a benchmark baseline.
    Scan,
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// The traffic-crediting tick.
    pub tick: SimDuration,
    /// When set, every southbound message is encoded to its OpenFlow wire
    /// form and decoded back before delivery (and the round-trip is
    /// asserted lossless) — the control channel then exercises the real
    /// codec, at the cost of the encode/decode work.
    pub wire_mode: Option<athena_openflow::OfVersion>,
    /// How flow expiry locates due entries each tick.
    pub expiry: ExpiryMode,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            tick: SimDuration::from_secs(1),
            wire_mode: None,
            expiry: ExpiryMode::Wheel,
        }
    }
}

/// Counters the simulator exposes after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetworkCounters {
    /// Packet-in messages sent to the control plane.
    pub packet_ins: u64,
    /// Flow-removed messages sent to the control plane.
    pub flow_removeds: u64,
    /// Bytes delivered end-to-end.
    pub delivered_bytes: u64,
    /// Bytes dropped (congestion or no route).
    pub dropped_bytes: u64,
}

/// Round-trips a message through the OpenFlow wire codec when wire mode
/// is enabled, asserting losslessness.
pub(crate) fn via_wire(msg: OfMessage, wire: Option<athena_openflow::OfVersion>) -> OfMessage {
    match wire {
        None => msg,
        Some(v) => {
            let bytes = athena_openflow::encode_message(&msg, v);
            match athena_openflow::decode_message(&bytes) {
                Ok((decoded, _)) => {
                    debug_assert_eq!(decoded, msg, "codec round-trip must be lossless");
                    decoded
                }
                Err(e) => {
                    // A decode failure is a codec bug; surface it under
                    // test but degrade to the in-memory message in release
                    // rather than taking down the whole simulation.
                    debug_assert!(false, "wire round-trip decode failed: {e}");
                    msg
                }
            }
        }
    }
}

/// Applies header-rewrite actions to a packet (set-field actions).
pub(crate) fn apply_rewrites(actions: &[Action], mut pkt: PacketHeader) -> PacketHeader {
    for a in actions {
        match a {
            Action::SetEthSrc(m) => pkt.eth_src = *m,
            Action::SetEthDst(m) => pkt.eth_dst = *m,
            Action::SetIpSrc(ip) => pkt.ip_src = Some(*ip),
            Action::SetIpDst(ip) => pkt.ip_dst = Some(*ip),
            Action::SetTpSrc(p) => pkt.tp_src = Some(*p),
            Action::SetTpDst(p) => pkt.tp_dst = Some(*p),
            _ => {}
        }
    }
    pkt
}

/// Adjacency: `dpid -> [(out port, neighbor, neighbor's in port)]`.
type Adjacency = HashMap<Dpid, Vec<(PortNo, Dpid, PortNo)>>;

/// A minimal reactive shortest-path controller used by the data-plane
/// crate's own tests and examples. The full distributed controller lives
/// in `athena-controller`.
///
/// On each `PACKET_IN` it looks up the destination host and installs
/// exact-match forwarding rules (with an idle timeout) along a shortest
/// path. When several shortest paths exist (fat-tree/Clos fabrics) the
/// per-hop choice is ECMP: a deterministic hash of the five-tuple picks
/// among the equal-cost next hops, so flows spread across the fabric
/// instead of all collapsing onto the first path BFS happens to find —
/// on a unique-shortest-path topology this reduces to plain BFS.
#[derive(Debug, Clone)]
pub struct LearningControllerStub {
    topology: Topology,
    /// Idle timeout for installed rules.
    pub idle_timeout: SimDuration,
    installs: u64,
    /// Host lookup by IP, built once — a linear scan over the host list
    /// per PACKET_IN melts down at 100k-host scale.
    host_of: HashMap<Ipv4Addr, usize>,
    /// Adjacency built once; `Topology::shortest_path` rebuilds it per
    /// call, which dominates punt handling on large fabrics.
    adj: Adjacency,
    /// Hop-distance maps keyed by destination switch, built lazily (one
    /// BFS per distinct destination edge switch, then O(path) per punt).
    dist_cache: HashMap<Dpid, HashMap<Dpid, u32>>,
}

impl LearningControllerStub {
    /// Creates a stub for the given network.
    pub fn new<P: PuntDiscipline>(net: &Engine<P>) -> Self {
        Self::for_topology(net.topology().clone())
    }

    /// Creates a stub for a topology directly (no engine needed).
    pub fn for_topology(topology: Topology) -> Self {
        let mut host_of = HashMap::new();
        for (i, h) in topology.hosts.iter().enumerate() {
            host_of.entry(h.ip).or_insert(i);
        }
        let adj = topology.adjacency();
        LearningControllerStub {
            topology,
            idle_timeout: SimDuration::from_secs(30),
            installs: 0,
            host_of,
            adj,
            dist_cache: HashMap::new(),
        }
    }

    /// FNV-1a over the five-tuple — the deterministic ECMP flow hash.
    fn flow_hash(ft: &FiveTuple) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for word in [
            u64::from(ft.src.raw()),
            u64::from(ft.dst.raw()),
            u64::from(ft.src_port),
            u64::from(ft.dst_port),
            u64::from(ft.proto.number()),
        ] {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Hop distances from every switch to `to` (BFS over the cached
    /// adjacency), computed once per destination.
    fn ensure_dists<'a>(
        cache: &'a mut HashMap<Dpid, HashMap<Dpid, u32>>,
        adj: &Adjacency,
        to: Dpid,
    ) -> &'a HashMap<Dpid, u32> {
        cache.entry(to).or_insert_with(|| {
            let mut dist: HashMap<Dpid, u32> = HashMap::from([(to, 0)]);
            let mut queue = std::collections::VecDeque::from([to]);
            while let Some(cur) = queue.pop_front() {
                let d = dist.get(&cur).copied().unwrap_or(0);
                for (_, next, _) in adj.get(&cur).into_iter().flatten() {
                    if !dist.contains_key(next) {
                        dist.insert(*next, d + 1);
                        queue.push_back(*next);
                    }
                }
            }
            dist
        })
    }

    /// A shortest path `from -> to`, ECMP-balanced: at each hop the
    /// flow hash (mixed with the hop index) picks among the equal-cost
    /// downhill neighbours in adjacency order. Deterministic per flow.
    fn walk_ecmp(
        adj: &Adjacency,
        dist: &HashMap<Dpid, u32>,
        from: Dpid,
        to: Dpid,
        h: u64,
    ) -> Option<Vec<(Dpid, PortNo)>> {
        dist.get(&from)?;
        let mut path = Vec::new();
        let mut cur = from;
        let mut hop = 0u32;
        while cur != to {
            let d = dist.get(&cur).copied()?;
            let candidates: Vec<(PortNo, Dpid)> = adj
                .get(&cur)
                .into_iter()
                .flatten()
                .filter(|(_, next, _)| dist.get(next).copied() == Some(d - 1))
                .map(|(port, next, _)| (*port, *next))
                .collect();
            if candidates.is_empty() {
                return None;
            }
            let pick = (h.rotate_left(hop * 8) as usize) % candidates.len();
            let (port, next) = candidates.get(pick).copied()?;
            path.push((cur, port));
            cur = next;
            hop += 1;
        }
        Some(path)
    }

    /// The `FlowMod` install sequence for one punted flow: the ECMP path
    /// hop by hop, then delivery out the destination host port.
    fn install_cmds(
        adj: &Adjacency,
        dist: &HashMap<Dpid, u32>,
        from: Dpid,
        ft: FiveTuple,
        dst: HostSpec,
        idle: SimDuration,
    ) -> Vec<(Dpid, OfMessage)> {
        let h = Self::flow_hash(&ft);
        let Some(path) = Self::walk_ecmp(adj, dist, from, dst.switch, h) else {
            return Vec::new();
        };
        let m = athena_openflow::MatchFields::exact_five_tuple(ft);
        let mut cmds = Vec::with_capacity(path.len() + 1);
        for (hop, port) in &path {
            cmds.push((
                *hop,
                OfMessage::FlowMod {
                    xid: Xid::new(0),
                    body: athena_openflow::FlowMod::add(m, 100, vec![Action::Output(*port)])
                        .with_idle_timeout(idle),
                },
            ));
        }
        cmds.push((
            dst.switch,
            OfMessage::FlowMod {
                xid: Xid::new(0),
                body: athena_openflow::FlowMod::add(m, 100, vec![Action::Output(dst.port)])
                    .with_idle_timeout(idle),
            },
        ));
        cmds
    }

    /// Looks up the punted packet's destination host, if the message is
    /// a `PACKET_IN` for a known destination.
    fn punt_dst(&self, msg: &OfMessage) -> Option<(FiveTuple, HostSpec)> {
        let OfMessage::PacketIn { body, .. } = msg else {
            return None;
        };
        let ft = body.header.five_tuple()?;
        let dst = self
            .host_of
            .get(&ft.dst)
            .and_then(|i| self.topology.hosts.get(*i))
            .copied()?;
        Some((ft, dst))
    }

    /// Number of flow rules installed so far.
    pub fn installs(&self) -> u64 {
        self.installs
    }
}

impl ControllerLink for LearningControllerStub {
    fn on_message(&mut self, from: Dpid, msg: OfMessage, _now: SimTime) -> Vec<(Dpid, OfMessage)> {
        let Some((ft, dst)) = self.punt_dst(&msg) else {
            return Vec::new();
        };
        let dist = Self::ensure_dists(&mut self.dist_cache, &self.adj, dst.switch);
        let cmds = Self::install_cmds(&self.adj, dist, from, ft, dst, self.idle_timeout);
        self.installs += cmds.len() as u64;
        cmds
    }
}
