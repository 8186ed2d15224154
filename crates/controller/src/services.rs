//! Core controller services: mastership, host location, shortest paths,
//! flow-rule bookkeeping with per-application attribution.

use athena_dataplane::Topology;
use athena_openflow::{FlowMod, FlowRemoved};
use athena_types::{AppId, ControllerId, Dpid, Ipv4Addr, PortNo, SimTime};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::OnceLock;

/// Maps each switch to the controller instance that masters it.
///
/// # Examples
///
/// ```
/// use athena_controller::MastershipService;
/// use athena_dataplane::Topology;
/// use athena_types::Dpid;
///
/// let topo = Topology::enterprise();
/// let m = MastershipService::from_topology(&topo);
/// assert!(m.master_of(Dpid::new(1)).is_some());
/// assert_eq!(m.instances().len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MastershipService {
    masters: HashMap<Dpid, ControllerId>,
    // Topology-preferred masters, reclaimed when a crashed instance
    // rejoins (ONOS's "mastership balancing" on node return).
    preferred: HashMap<Dpid, ControllerId>,
    all: BTreeSet<ControllerId>,
    down: BTreeSet<ControllerId>,
}

impl MastershipService {
    /// Builds the mastership map from the topology's assignments.
    pub fn from_topology(topo: &Topology) -> Self {
        let masters: HashMap<Dpid, ControllerId> = topo
            .switches
            .iter()
            .map(|s| (s.dpid, s.controller))
            .collect();
        MastershipService {
            preferred: masters.clone(),
            all: masters.values().copied().collect(),
            masters,
            down: BTreeSet::new(),
        }
    }

    /// The master instance of a switch.
    pub fn master_of(&self, dpid: Dpid) -> Option<ControllerId> {
        self.masters.get(&dpid).copied()
    }

    /// Switches mastered by an instance.
    pub fn switches_of(&self, c: ControllerId) -> Vec<Dpid> {
        let mut v: Vec<Dpid> = self
            .masters
            .iter()
            .filter(|(_, m)| **m == c)
            .map(|(d, _)| *d)
            .collect();
        v.sort();
        v
    }

    /// All distinct controller instances (including crashed ones — the
    /// cluster membership, not the live view; see
    /// [`MastershipService::alive_instances`]).
    pub fn instances(&self) -> Vec<ControllerId> {
        self.all.iter().copied().collect()
    }

    /// Instances currently up.
    pub fn alive_instances(&self) -> Vec<ControllerId> {
        self.all.difference(&self.down).copied().collect()
    }

    /// `true` if the instance has not crashed (unknown instances are
    /// considered alive, matching ONOS's optimistic membership view).
    pub fn is_alive(&self, c: ControllerId) -> bool {
        !self.down.contains(&c)
    }

    /// Reassigns a switch's mastership (failover).
    pub fn reassign(&mut self, dpid: Dpid, to: ControllerId) {
        self.masters.insert(dpid, to);
    }

    /// Marks an instance down and re-elects masters for its switches:
    /// each orphaned switch moves, round-robin in dpid order, to the
    /// surviving instances — deterministic, like ONOS's leadership
    /// election over a sorted candidate list. Returns the reassigned
    /// switches (empty if the instance held nothing, was already down,
    /// or no instance survives to take over).
    pub fn crash(&mut self, c: ControllerId) -> Vec<Dpid> {
        if !self.down.insert(c) {
            return Vec::new();
        }
        self.all.insert(c);
        let orphans = self.switches_of(c);
        let alive = self.alive_instances();
        if alive.is_empty() {
            return Vec::new();
        }
        for (i, dpid) in orphans.iter().enumerate() {
            self.masters.insert(*dpid, alive[i % alive.len()]);
        }
        orphans
    }

    /// Marks a crashed instance up again and hands back the switches it
    /// is the topology-preferred master of. Returns the reclaimed
    /// switches (empty if it was not down).
    pub fn rejoin(&mut self, c: ControllerId) -> Vec<Dpid> {
        if !self.down.remove(&c) {
            return Vec::new();
        }
        let mut reclaimed: Vec<Dpid> = self
            .preferred
            .iter()
            .filter(|(_, m)| **m == c)
            .map(|(d, _)| *d)
            .collect();
        reclaimed.sort();
        for dpid in &reclaimed {
            self.masters.insert(*dpid, c);
        }
        reclaimed
    }

    /// The current mastership map and down-set, sorted — the persistable
    /// part of the service (preferences and membership come back from the
    /// topology on restart).
    pub fn snapshot(&self) -> (Vec<(Dpid, ControllerId)>, Vec<ControllerId>) {
        let mut masters: Vec<(Dpid, ControllerId)> =
            self.masters.iter().map(|(d, c)| (*d, *c)).collect();
        masters.sort();
        (masters, self.down.iter().copied().collect())
    }

    /// Overwrites the mastership map and down-set from a snapshot taken
    /// by [`MastershipService::snapshot`] on an equally built service.
    pub fn restore(&mut self, masters: &[(Dpid, ControllerId)], down: &[ControllerId]) {
        for (d, c) in masters {
            self.masters.insert(*d, *c);
            self.all.insert(*c);
        }
        self.down = down.iter().copied().collect();
        self.all.extend(down.iter().copied());
    }
}

/// Host-location service.
///
/// Locations are seeded from the topology (the equivalent of ONOS's host
/// discovery via ARP/proxy-ARP, which the flow-level simulator does not
/// replay) and refreshed by packet-in observations.
#[derive(Debug, Clone, Default)]
pub struct HostService {
    by_ip: HashMap<Ipv4Addr, (Dpid, PortNo)>,
}

impl HostService {
    /// Seeds host locations from the topology.
    pub fn from_topology(topo: &Topology) -> Self {
        HostService {
            by_ip: topo
                .hosts
                .iter()
                .map(|h| (h.ip, (h.switch, h.port)))
                .collect(),
        }
    }

    /// Where a host attaches, if known.
    pub fn location_of(&self, ip: Ipv4Addr) -> Option<(Dpid, PortNo)> {
        self.by_ip.get(&ip).copied()
    }

    /// Learns (or refreshes) a host location from an observed packet.
    pub fn learn(&mut self, ip: Ipv4Addr, dpid: Dpid, port: PortNo) {
        self.by_ip.insert(ip, (dpid, port));
    }

    /// Number of known hosts.
    pub fn host_count(&self) -> usize {
        self.by_ip.len()
    }
}

/// Shortest-path service over the controller's topology view.
///
/// The view never changes after construction, so the adjacency is built
/// once and each source's breadth-first tree is computed on first use
/// and kept. Paths are exactly [`Topology::shortest_path`]'s: neighbours
/// are visited in link order and a switch keeps the predecessor that
/// discovered it first, which a search that stops at the destination
/// and one that runs to completion agree on.
///
/// # Examples
///
/// ```
/// use athena_controller::PathService;
/// use athena_dataplane::Topology;
/// use athena_types::Dpid;
///
/// let topo = Topology::enterprise();
/// let paths = PathService::from_topology(&topo);
/// let (from, to) = (Dpid::new(7), Dpid::new(18));
/// assert_eq!(paths.shortest_path(from, to), topo.shortest_path(from, to));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PathService {
    index: HashMap<Dpid, usize>,
    /// Per linked switch: its dpid and `(egress port, neighbour)` pairs
    /// in link order.
    nodes: Vec<(Dpid, Vec<(PortNo, usize)>)>,
    trees: Vec<OnceLock<Tree>>,
}

/// One source's breadth-first tree: per switch, its predecessor and the
/// predecessor's egress port toward it (`None` if unreached).
type Tree = Vec<Option<(usize, PortNo)>>;

impl PathService {
    /// Builds the adjacency from the topology's links.
    pub fn from_topology(topo: &Topology) -> Self {
        let mut svc = PathService::default();
        for l in &topo.links {
            let (a, b) = (svc.node(l.a.0), svc.node(l.b.0));
            for (from, port, to) in [(a, l.a.1, b), (b, l.b.1, a)] {
                if let Some((_, out)) = svc.nodes.get_mut(from) {
                    out.push((port, to));
                }
            }
        }
        svc.trees = vec![OnceLock::new(); svc.nodes.len()];
        svc
    }

    fn node(&mut self, dpid: Dpid) -> usize {
        *self.index.entry(dpid).or_insert_with(|| {
            self.nodes.push((dpid, Vec::new()));
            self.nodes.len() - 1
        })
    }

    /// Shortest path (hop count) between two switches as a list of
    /// `(dpid, egress port)` hops, excluding the destination switch.
    /// Returns `None` if unreachable.
    pub fn shortest_path(&self, from: Dpid, to: Dpid) -> Option<Vec<(Dpid, PortNo)>> {
        self.route(from, to, &HashSet::new())
    }

    /// Up to `k` link-disjoint shortest paths between two switches: the
    /// shortest path, then the shortest avoiding its hops, and so on.
    pub fn disjoint_paths(&self, from: Dpid, to: Dpid, k: usize) -> Vec<Vec<(Dpid, PortNo)>> {
        let mut paths = Vec::new();
        let mut excluded = HashSet::new();
        for _ in 0..k {
            let Some(path) = self.route(from, to, &excluded) else {
                break;
            };
            excluded.extend(path.iter().copied());
            paths.push(path);
        }
        paths
    }

    fn route(
        &self,
        from: Dpid,
        to: Dpid,
        excluded: &HashSet<(Dpid, PortNo)>,
    ) -> Option<Vec<(Dpid, PortNo)>> {
        if from == to {
            return Some(Vec::new());
        }
        let (from, to) = (*self.index.get(&from)?, *self.index.get(&to)?);
        let detour;
        let tree = if excluded.is_empty() {
            self.trees
                .get(from)?
                .get_or_init(|| self.tree(from, excluded))
        } else {
            detour = self.tree(from, excluded);
            &detour
        };
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            let (prev, port) = (*tree.get(cur)?)?;
            path.push((self.nodes.get(prev)?.0, port));
            cur = prev;
        }
        path.reverse();
        Some(path)
    }

    /// Breadth-first tree from `from` over the hops not in `excluded`.
    fn tree(&self, from: usize, excluded: &HashSet<(Dpid, PortNo)>) -> Tree {
        let mut tree = vec![None; self.nodes.len()];
        let mut queue = VecDeque::from([from]);
        while let Some(cur) = queue.pop_front() {
            let Some((dpid, out)) = self.nodes.get(cur) else {
                continue;
            };
            for (port, next) in out {
                if *next == from || excluded.contains(&(*dpid, *port)) {
                    continue;
                }
                if let Some(slot @ None) = tree.get_mut(*next) {
                    *slot = Some((cur, *port));
                    queue.push_back(*next);
                }
            }
        }
        tree
    }
}

/// A record of one installed flow rule.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRuleRecord {
    /// The switch holding the rule.
    pub dpid: Dpid,
    /// The installing application.
    pub app: AppId,
    /// The rule's cookie (carries the app id in its upper bits).
    pub cookie: u64,
    /// When it was installed.
    pub installed_at: SimTime,
    /// Latest packet count reported by statistics polling.
    pub packet_count: u64,
    /// Latest byte count reported by statistics polling.
    pub byte_count: u64,
}

/// Flow-rule bookkeeping: which application installed what, where —
/// ONOS's `FlowRuleService`, which the paper explicitly leverages
/// "to extract application information per flow".
#[derive(Debug, Clone, Default)]
pub struct FlowRuleService {
    records: HashMap<u64, FlowRuleRecord>, // keyed by cookie
    installs: u64,
    removals: u64,
    next_seq: u64,
}

impl FlowRuleService {
    /// Creates an empty service.
    pub fn new() -> Self {
        FlowRuleService::default()
    }

    /// Stamps a flow-mod with a fresh app-attributed cookie and records
    /// it. Returns the stamped flow-mod.
    pub fn register(&mut self, app: AppId, mut fm: FlowMod, dpid: Dpid, now: SimTime) -> FlowMod {
        self.next_seq += 1;
        fm.cookie = FlowMod::cookie_for_app(app, self.next_seq);
        self.installs += 1;
        self.records.insert(
            fm.cookie,
            FlowRuleRecord {
                dpid,
                app,
                cookie: fm.cookie,
                installed_at: now,
                packet_count: 0,
                byte_count: 0,
            },
        );
        fm
    }

    /// Records a rule installed through the interceptor/proxy path (the
    /// rule already carries its cookie; the Athena Reactor stamps its own
    /// app id). This is what keeps the controller's view consistent when
    /// Athena issues mitigation rules.
    pub fn record_external(&mut self, fm: &FlowMod, dpid: Dpid, now: SimTime) {
        self.installs += 1;
        self.records.insert(
            fm.cookie,
            FlowRuleRecord {
                dpid,
                app: fm.app_id(),
                cookie: fm.cookie,
                installed_at: now,
                packet_count: 0,
                byte_count: 0,
            },
        );
    }

    /// Refreshes a rule's counters from a statistics reply (ONOS updates
    /// its flow-rule store from every poll — the baseline per-entry work
    /// Figure 11 measures).
    pub fn note_stats(&mut self, cookie: u64, packet_count: u64, byte_count: u64) {
        if let Some(r) = self.records.get_mut(&cookie) {
            r.packet_count = packet_count;
            r.byte_count = byte_count;
        }
    }

    /// Processes a flow-removed notification, retiring the record.
    pub fn on_flow_removed(&mut self, fr: &FlowRemoved) {
        if self.records.remove(&fr.cookie).is_some() {
            self.removals += 1;
        }
    }

    /// The application that installed the rule with this cookie, if
    /// tracked (falls back to decoding the cookie).
    pub fn app_of_cookie(&self, cookie: u64) -> AppId {
        self.records
            .get(&cookie)
            .map_or_else(|| AppId::new((cookie >> 48) as u32), |r| r.app)
    }

    /// Live rules installed by an application.
    pub fn rules_of_app(&self, app: AppId) -> Vec<&FlowRuleRecord> {
        self.records.values().filter(|r| r.app == app).collect()
    }

    /// Live rules on a switch.
    pub fn rules_on(&self, dpid: Dpid) -> Vec<&FlowRuleRecord> {
        self.records.values().filter(|r| r.dpid == dpid).collect()
    }

    /// `(installs, removals)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.installs, self.removals)
    }

    /// Number of live tracked rules.
    pub fn live_count(&self) -> usize {
        self.records.len()
    }

    /// All live rule records, sorted by cookie (a canonical view for
    /// checkpoints).
    pub fn snapshot_records(&self) -> Vec<FlowRuleRecord> {
        let mut out: Vec<FlowRuleRecord> = self.records.values().cloned().collect();
        out.sort_by_key(|r| r.cookie);
        out
    }

    /// `(installs, removals, next_seq)` — the counters a checkpoint must
    /// carry alongside the records.
    pub fn snapshot_counters(&self) -> (u64, u64, u64) {
        (self.installs, self.removals, self.next_seq)
    }

    /// Overwrites records and counters from a checkpoint snapshot.
    pub fn restore(&mut self, records: Vec<FlowRuleRecord>, counters: (u64, u64, u64)) {
        self.records = records.into_iter().map(|r| (r.cookie, r)).collect();
        self.installs = counters.0;
        self.removals = counters.1;
        self.next_seq = counters.2;
    }

    /// Re-admits one rule record during WAL replay, counting it as an
    /// install and advancing `next_seq` past the cookie's sequence bits so
    /// post-recovery cookies stay unique.
    pub fn restore_record(&mut self, rec: FlowRuleRecord) {
        self.next_seq = self.next_seq.max(rec.cookie & 0x0000_ffff_ffff_ffff);
        self.installs += 1;
        self.records.insert(rec.cookie, rec);
    }

    /// Re-applies one rule removal during WAL replay (absent cookies are
    /// a no-op, mirroring [`FlowRuleService::on_flow_removed`]).
    pub fn restore_removal(&mut self, cookie: u64) {
        if self.records.remove(&cookie).is_some() {
            self.removals += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_openflow::MatchFields;

    #[test]
    fn mastership_partitions_enterprise() {
        let topo = Topology::enterprise();
        let m = MastershipService::from_topology(&topo);
        let instances = m.instances();
        assert_eq!(instances.len(), 3);
        let total: usize = instances.iter().map(|c| m.switches_of(*c).len()).sum();
        assert_eq!(total, 18);
        // Every instance masters exactly 6 switches (2 cores + 4 edges).
        for c in instances {
            assert_eq!(m.switches_of(c).len(), 6);
        }
    }

    #[test]
    fn mastership_failover() {
        let topo = Topology::enterprise();
        let mut m = MastershipService::from_topology(&topo);
        m.reassign(Dpid::new(1), ControllerId::new(2));
        assert_eq!(m.master_of(Dpid::new(1)), Some(ControllerId::new(2)));
    }

    #[test]
    fn crash_re_elects_round_robin_and_rejoin_reclaims() {
        let topo = Topology::enterprise();
        let mut m = MastershipService::from_topology(&topo);
        let c0 = ControllerId::new(0);
        let orphans = m.crash(c0);
        assert_eq!(orphans.len(), 6);
        assert!(!m.is_alive(c0));
        assert_eq!(m.alive_instances().len(), 2);
        // Membership still reports the full cluster.
        assert_eq!(m.instances().len(), 3);
        // Nothing is left mastered by the dead instance, and survivors
        // split its switches evenly (6 orphans over 2 instances).
        assert!(m.switches_of(c0).is_empty());
        for c in m.alive_instances() {
            assert_eq!(m.switches_of(c).len(), 9);
        }
        // Crashing twice is a no-op.
        assert!(m.crash(c0).is_empty());
        // Rejoin hands back exactly the topology-preferred set.
        let mut reclaimed = m.rejoin(c0);
        reclaimed.sort();
        assert_eq!(reclaimed, orphans);
        assert_eq!(m.switches_of(c0), orphans);
        for c in m.instances() {
            assert_eq!(m.switches_of(c).len(), 6);
        }
        // Rejoining an instance that never crashed is a no-op.
        assert!(m.rejoin(c0).is_empty());
    }

    #[test]
    fn crash_is_deterministic() {
        let topo = Topology::enterprise();
        let mut a = MastershipService::from_topology(&topo);
        let mut b = MastershipService::from_topology(&topo);
        a.crash(ControllerId::new(1));
        b.crash(ControllerId::new(1));
        for s in &topo.switches {
            assert_eq!(a.master_of(s.dpid), b.master_of(s.dpid));
        }
    }

    #[test]
    fn last_instance_crash_leaves_switches_orphaned_but_consistent() {
        let topo = Topology::enterprise();
        let mut m = MastershipService::from_topology(&topo);
        m.crash(ControllerId::new(0));
        m.crash(ControllerId::new(1));
        let last = m.crash(ControllerId::new(2));
        // No survivor: nothing could be reassigned.
        assert!(last.is_empty());
        assert!(m.alive_instances().is_empty());
        // Rejoin restores the preferred mapping.
        for c in [0u32, 1, 2] {
            m.rejoin(ControllerId::new(c));
        }
        for c in m.instances() {
            assert_eq!(m.switches_of(c).len(), 6);
        }
    }

    #[test]
    fn host_service_seeds_and_learns() {
        let topo = Topology::linear(2, 2);
        let mut h = HostService::from_topology(&topo);
        assert_eq!(h.host_count(), 4);
        let ip = topo.hosts[0].ip;
        assert_eq!(
            h.location_of(ip),
            Some((topo.hosts[0].switch, topo.hosts[0].port))
        );
        // A moved host is re-learned.
        h.learn(ip, Dpid::new(2), PortNo::new(9));
        assert_eq!(h.location_of(ip), Some((Dpid::new(2), PortNo::new(9))));
    }

    #[test]
    fn path_service_equals_the_topology_search_on_every_ordered_pair() {
        for topo in [
            Topology::linear(5, 1),
            Topology::enterprise(),
            Topology::nae(),
            Topology::fat_tree(4),
        ] {
            let paths = PathService::from_topology(&topo);
            // One dpid no switch has: unreachable from and to everything.
            let dpids: Vec<Dpid> = topo
                .switches
                .iter()
                .map(|s| s.dpid)
                .chain([Dpid::new(9_999)])
                .collect();
            for from in &dpids {
                for to in &dpids {
                    assert_eq!(
                        paths.shortest_path(*from, *to),
                        topo.shortest_path(*from, *to),
                        "{from} -> {to}"
                    );
                }
            }
        }
        // A partitioned view: the far side is unreachable, not a panic.
        let mut split = Topology::linear(4, 1);
        split.links.remove(1);
        let paths = PathService::from_topology(&split);
        assert_eq!(paths.shortest_path(Dpid::new(1), Dpid::new(4)), None);
        assert_eq!(
            paths
                .shortest_path(Dpid::new(3), Dpid::new(4))
                .map(|p| p.len()),
            Some(1)
        );
    }

    #[test]
    fn nae_topology_yields_two_disjoint_paths() {
        let paths = PathService::from_topology(&Topology::nae()).disjoint_paths(
            Dpid::new(1),
            Dpid::new(4),
            2,
        );
        assert_eq!(paths.len(), 2);
        // Paths share no (switch, port) hop.
        let a: HashSet<_> = paths[0].iter().collect();
        assert!(paths[1].iter().all(|h| !a.contains(h)));
    }

    #[test]
    fn flow_rule_attribution_roundtrip() {
        let mut svc = FlowRuleService::new();
        let app = AppId::new(5);
        let fm = svc.register(
            app,
            FlowMod::add(MatchFields::new(), 1, vec![]),
            Dpid::new(3),
            SimTime::ZERO,
        );
        assert_eq!(fm.app_id(), app);
        assert_eq!(svc.app_of_cookie(fm.cookie), app);
        assert_eq!(svc.rules_of_app(app).len(), 1);
        assert_eq!(svc.rules_on(Dpid::new(3)).len(), 1);
        assert_eq!(svc.live_count(), 1);

        svc.on_flow_removed(&FlowRemoved {
            match_fields: MatchFields::new(),
            cookie: fm.cookie,
            priority: 1,
            reason: athena_openflow::FlowRemovedReason::IdleTimeout,
            duration: athena_types::SimDuration::from_secs(1),
            packet_count: 0,
            byte_count: 0,
        });
        assert_eq!(svc.live_count(), 0);
        assert_eq!(svc.counters(), (1, 1));
        // Untracked cookies still decode the app id.
        assert_eq!(svc.app_of_cookie(7 << 48), AppId::new(7));
    }
}
