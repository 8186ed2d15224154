//! Topology descriptions and builders, including the paper's evaluation
//! topologies, and [`Routes`], the shortest paths over one.

use athena_types::{ControllerId, Dpid, HostId, Ipv4Addr, LinkId, PortNo};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::OnceLock;

/// A switch in the topology.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchSpec {
    /// The datapath id.
    pub dpid: Dpid,
    /// Number of ports (numbered from 1).
    pub n_ports: u32,
    /// The controller instance that masters this switch.
    pub controller: ControllerId,
}

/// A bidirectional link between two switch ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// One endpoint.
    pub a: (Dpid, PortNo),
    /// The other endpoint.
    pub b: (Dpid, PortNo),
    /// Capacity per direction in bits per second.
    pub capacity_bps: u64,
}

/// A host attached to an access switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostSpec {
    /// The host id.
    pub id: HostId,
    /// The host's IPv4 address.
    pub ip: Ipv4Addr,
    /// The switch it attaches to.
    pub switch: Dpid,
    /// The switch port it attaches to.
    pub port: PortNo,
}

/// A full network description.
///
/// # Examples
///
/// ```
/// use athena_dataplane::Topology;
/// let t = Topology::enterprise();
/// assert_eq!(t.switches.len(), 18);
/// assert_eq!(t.unidirectional_link_count(), 48);
/// assert_eq!(t.controller_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Topology {
    /// The switches.
    pub switches: Vec<SwitchSpec>,
    /// The (bidirectional) inter-switch links.
    pub links: Vec<LinkSpec>,
    /// The hosts.
    pub hosts: Vec<HostSpec>,
}

/// Default link capacity: 1 Gb/s.
pub const DEFAULT_CAPACITY_BPS: u64 = 1_000_000_000;

impl Topology {
    /// A linear chain of `n` switches, each with `hosts_per_switch` hosts.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn linear(n: usize, hosts_per_switch: usize) -> Self {
        assert!(n > 0, "need at least one switch");
        let mut t = Topology::default();
        for i in 0..n {
            t.switches.push(SwitchSpec {
                dpid: Dpid::new(i as u64 + 1),
                n_ports: (2 + hosts_per_switch) as u32,
                controller: ControllerId::new(0),
            });
        }
        for i in 0..n.saturating_sub(1) {
            // Port 1 = "east" toward the next switch, port 2 = "west".
            t.links.push(LinkSpec {
                a: (Dpid::new(i as u64 + 1), PortNo::new(1)),
                b: (Dpid::new(i as u64 + 2), PortNo::new(2)),
                capacity_bps: DEFAULT_CAPACITY_BPS,
            });
        }
        let mut host_id = 0u64;
        for i in 0..n {
            for h in 0..hosts_per_switch {
                host_id += 1;
                t.hosts.push(HostSpec {
                    id: HostId::new(host_id),
                    ip: Ipv4Addr::new(10, 0, i as u8, (h + 1) as u8),
                    switch: Dpid::new(i as u64 + 1),
                    port: PortNo::new((3 + h) as u32),
                });
            }
        }
        t
    }

    /// The paper's Figure 7 enterprise evaluation topology: 18 switches
    /// (6 "physical" cores, 12 "OVS" edges), 48 unidirectional links, and
    /// three controller domains of 6 switches each.
    ///
    /// Structure: 6 core switches in a ring with chords (full mesh among
    /// domain neighbours), each core with 2 edge switches, each edge with
    /// `hosts_per_edge` hosts.
    pub fn enterprise() -> Self {
        Self::enterprise_with_hosts(4)
    }

    /// [`Topology::enterprise`] with a custom host count per edge switch.
    fn enterprise_with_hosts(hosts_per_edge: usize) -> Self {
        let mut t = Topology::default();
        // Core switches 1..=6, two per controller domain.
        for c in 0..6u64 {
            t.switches.push(SwitchSpec {
                dpid: Dpid::new(c + 1),
                n_ports: 8,
                controller: ControllerId::new((c / 2) as u32),
            });
        }
        // Edge switches 7..=18, distributed under the cores.
        for e in 0..12u64 {
            let core = e / 2; // two edges per core
            t.switches.push(SwitchSpec {
                dpid: Dpid::new(7 + e),
                n_ports: (2 + hosts_per_edge) as u32,
                controller: ControllerId::new((core / 2) as u32),
            });
        }
        // Core ring: 1-2, 2-3, 3-4, 4-5, 5-6, 6-1 on ports 1/2.
        for c in 0..6u64 {
            let next = (c + 1) % 6;
            t.links.push(LinkSpec {
                a: (Dpid::new(c + 1), PortNo::new(1)),
                b: (Dpid::new(next + 1), PortNo::new(2)),
                capacity_bps: DEFAULT_CAPACITY_BPS,
            });
        }
        // Chords across the ring for path diversity: 1-4, 2-5, 3-6 on
        // ports 3/3.
        for c in 0..3u64 {
            t.links.push(LinkSpec {
                a: (Dpid::new(c + 1), PortNo::new(3)),
                b: (Dpid::new(c + 4), PortNo::new(3)),
                capacity_bps: DEFAULT_CAPACITY_BPS,
            });
        }
        // Edge uplinks: edge switch port 1 to its core (ports 5/6 on the
        // core), plus a crosslink from each edge to the neighbouring core
        // (port 7/8) for the first edge of each core: total so far
        // 6 + 3 + 12 = 21 bidirectional links; add 3 more edge crosslinks
        // to reach the paper's 24 bidirectional (48 unidirectional) links.
        for e in 0..12u64 {
            let core = e / 2 + 1;
            let core_port = if e % 2 == 0 { 5 } else { 6 };
            t.links.push(LinkSpec {
                a: (Dpid::new(7 + e), PortNo::new(1)),
                b: (Dpid::new(core), PortNo::new(core_port)),
                capacity_bps: DEFAULT_CAPACITY_BPS,
            });
        }
        // Edge crosslinks: pair edges of adjacent cores (7-9, 11-13,
        // 15-17) on port 2 of each edge.
        for &(x, y) in &[(7u64, 9u64), (11, 13), (15, 17)] {
            t.links.push(LinkSpec {
                a: (Dpid::new(x), PortNo::new(2)),
                b: (Dpid::new(y), PortNo::new(2)),
                capacity_bps: DEFAULT_CAPACITY_BPS,
            });
        }
        // Hosts on edge switches.
        let mut host_id = 0u64;
        for e in 0..12u64 {
            for h in 0..hosts_per_edge {
                host_id += 1;
                t.hosts.push(HostSpec {
                    id: HostId::new(host_id),
                    ip: Ipv4Addr::new(10, (e + 1) as u8, 0, (h + 1) as u8),
                    switch: Dpid::new(7 + e),
                    port: PortNo::new((3 + h) as u32),
                });
            }
        }
        t
    }

    /// The paper's Figure 8 NAE topology: edge switches S1 and S5, core
    /// switches S2, S3, S6, S7, an FTP/web server pod behind S4, and an
    /// inline security device hanging off S6.
    ///
    /// Paths from S1 to S4: the "load-balanced" upper path S1-S2-S3-S4 and
    /// lower path S1-S6-S7-S4; the security app forces FTP through
    /// S6 (where the inspection device sits), saturating the lower path.
    pub fn nae() -> Self {
        let mut t = Topology::default();
        for d in 1..=7u64 {
            t.switches.push(SwitchSpec {
                dpid: Dpid::new(d),
                n_ports: 8,
                controller: ControllerId::new(0),
            });
        }
        let link = |a: u64, ap: u32, b: u64, bp: u32| LinkSpec {
            a: (Dpid::new(a), PortNo::new(ap)),
            b: (Dpid::new(b), PortNo::new(bp)),
            capacity_bps: 100_000_000, // 100 Mb/s so saturation is visible
        };
        t.links = vec![
            link(1, 1, 2, 1), // upper path
            link(2, 2, 3, 1),
            link(3, 2, 4, 1),
            link(1, 2, 6, 1), // lower path
            link(6, 2, 7, 1),
            link(7, 2, 4, 2),
            link(5, 1, 6, 3), // second edge joins at S6
            link(2, 3, 6, 4), // cross link between paths
        ];
        // Hosts: clients behind S1 and S5, servers behind S4; the
        // security device is modeled as a host on S6 (the waypoint).
        let mut hosts = Vec::new();
        for h in 0..4u64 {
            hosts.push(HostSpec {
                id: HostId::new(h + 1),
                ip: Ipv4Addr::new(10, 0, 1, (h + 1) as u8),
                switch: Dpid::new(1),
                port: PortNo::new((4 + h) as u32),
            });
        }
        for h in 0..4u64 {
            hosts.push(HostSpec {
                id: HostId::new(h + 5),
                ip: Ipv4Addr::new(10, 0, 5, (h + 1) as u8),
                switch: Dpid::new(5),
                port: PortNo::new((4 + h) as u32),
            });
        }
        // Servers: FTP at 10.0.4.1, web at 10.0.4.2.
        hosts.push(HostSpec {
            id: HostId::new(9),
            ip: Ipv4Addr::new(10, 0, 4, 1),
            switch: Dpid::new(4),
            port: PortNo::new(4),
        });
        hosts.push(HostSpec {
            id: HostId::new(10),
            ip: Ipv4Addr::new(10, 0, 4, 2),
            switch: Dpid::new(4),
            port: PortNo::new(5),
        });
        // The inline security device.
        hosts.push(HostSpec {
            id: HostId::new(11),
            ip: Ipv4Addr::new(10, 0, 6, 1),
            switch: Dpid::new(6),
            port: PortNo::new(5),
        });
        t.hosts = hosts;
        t
    }

    /// A `k`-ary fat-tree (Clos) datacenter fabric with the canonical
    /// `k/2` hosts per edge switch (`k^3/4` hosts total).
    ///
    /// See [`Topology::fat_tree_with_hosts`] for the layout.
    ///
    /// # Panics
    ///
    /// Panics if `k` is odd or less than 2.
    pub fn fat_tree(k: usize) -> Self {
        Self::fat_tree_with_hosts(k, k / 2)
    }

    /// A `k`-ary fat-tree with `hosts_per_edge` hosts on every edge
    /// switch (`k^2/4 * hosts_per_edge` hosts total) — the scale knob
    /// the 100k-host benchmarks turn without inflating the switch count.
    ///
    /// Layout (dpids are pod-contiguous so a contiguous dpid-range
    /// partition puts whole pods in one shard):
    /// - pod `p` (`0..k`) owns dpids `p*k+1 ..= p*k+k`: first the `k/2`
    ///   edge switches, then the `k/2` aggregation switches;
    /// - the `(k/2)^2` core switches follow at `k*k+1 ..`;
    /// - edge ports `1..=k/2` go up to the pod's aggs, host ports start
    ///   at `k/2+1`; agg ports `1..=k/2` go down to edges, `k/2+1..=k`
    ///   up to cores; core port `p+1` serves pod `p`.
    ///
    /// Host placement is deterministic: hosts are numbered pod-major,
    /// host `i` (0-based) gets IP `10.x.y.z` with `x.y.z` the octets of
    /// `i`, attached to consecutive host ports of its edge switch. Each
    /// pod is one controller domain; cores belong to controller 0.
    ///
    /// # Panics
    ///
    /// Panics if `k` is odd or less than 2, or `hosts_per_edge == 0`.
    pub fn fat_tree_with_hosts(k: usize, hosts_per_edge: usize) -> Self {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be even");
        assert!(hosts_per_edge > 0, "need at least one host per edge");
        let half = k / 2;
        let mut t = Topology::default();
        let edge_dpid = |p: usize, e: usize| Dpid::new((p * k + e + 1) as u64);
        let agg_dpid = |p: usize, a: usize| Dpid::new((p * k + half + a + 1) as u64);
        let core_dpid = |c: usize| Dpid::new((k * k + c + 1) as u64);
        for p in 0..k {
            for e in 0..half {
                t.switches.push(SwitchSpec {
                    dpid: edge_dpid(p, e),
                    n_ports: (half + hosts_per_edge) as u32,
                    controller: ControllerId::new(p as u32),
                });
            }
            for a in 0..half {
                t.switches.push(SwitchSpec {
                    dpid: agg_dpid(p, a),
                    n_ports: k as u32,
                    controller: ControllerId::new(p as u32),
                });
            }
        }
        for c in 0..half * half {
            t.switches.push(SwitchSpec {
                dpid: core_dpid(c),
                n_ports: k as u32,
                controller: ControllerId::new(0),
            });
        }
        // Edge e -> agg a inside each pod: edge port a+1, agg port e+1.
        for p in 0..k {
            for e in 0..half {
                for a in 0..half {
                    t.links.push(LinkSpec {
                        a: (edge_dpid(p, e), PortNo::new((a + 1) as u32)),
                        b: (agg_dpid(p, a), PortNo::new((e + 1) as u32)),
                        capacity_bps: DEFAULT_CAPACITY_BPS,
                    });
                }
            }
        }
        // Agg a of every pod -> cores a*k/2 .. (a+1)*k/2: agg port
        // k/2+j+1 for core offset j, core port p+1 for pod p.
        for p in 0..k {
            for a in 0..half {
                for j in 0..half {
                    t.links.push(LinkSpec {
                        a: (agg_dpid(p, a), PortNo::new((half + j + 1) as u32)),
                        b: (core_dpid(a * half + j), PortNo::new((p + 1) as u32)),
                        capacity_bps: DEFAULT_CAPACITY_BPS,
                    });
                }
            }
        }
        let mut host_i = 0u64;
        for p in 0..k {
            for e in 0..half {
                for h in 0..hosts_per_edge {
                    t.hosts.push(HostSpec {
                        id: HostId::new(host_i + 1),
                        ip: Ipv4Addr::new(
                            10,
                            (host_i >> 16) as u8,
                            (host_i >> 8) as u8,
                            host_i as u8,
                        ),
                        switch: edge_dpid(p, e),
                        port: PortNo::new((half + h + 1) as u32),
                    });
                    host_i += 1;
                }
            }
        }
        t
    }

    /// Number of unidirectional links (the paper counts each direction).
    pub fn unidirectional_link_count(&self) -> usize {
        self.links.len() * 2
    }

    /// Number of distinct controller instances.
    pub fn controller_count(&self) -> usize {
        let mut ids: Vec<ControllerId> = self.switches.iter().map(|s| s.controller).collect();
        ids.sort();
        ids.dedup();
        ids.len()
    }

    /// All host ids.
    pub fn host_ids(&self) -> Vec<HostId> {
        self.hosts.iter().map(|h| h.id).collect()
    }

    /// Looks up a host by id.
    pub fn host(&self, id: HostId) -> Option<&HostSpec> {
        self.hosts.iter().find(|h| h.id == id)
    }

    /// Looks up a host by IP address.
    pub fn host_by_ip(&self, ip: Ipv4Addr) -> Option<&HostSpec> {
        self.hosts.iter().find(|h| h.ip == ip)
    }

    /// The unidirectional link leaving `(dpid, port)`, if that port is an
    /// inter-switch port.
    pub fn link_from(&self, dpid: Dpid, port: PortNo) -> Option<LinkId> {
        for l in &self.links {
            if l.a == (dpid, port) {
                return Some(LinkId::new(l.a.0, l.a.1, l.b.0, l.b.1));
            }
            if l.b == (dpid, port) {
                return Some(LinkId::new(l.b.0, l.b.1, l.a.0, l.a.1));
            }
        }
        None
    }
}

/// Shortest-path routes over one topology: the one route computation.
///
/// The adjacency is built once, in link order over a dense switch index,
/// and each source's breadth-first tree is computed on its first read and
/// kept. A switch keeps the predecessor that discovered it first, so a
/// path does not depend on which reads came before it. Links are
/// bidirectional, so the depth of a switch in `to`'s tree is its distance
/// to `to`, which is what an equal-cost walk toward `to` descends.
///
/// # Examples
///
/// ```
/// use athena_dataplane::{Routes, Topology};
/// use athena_types::Dpid;
///
/// let routes = Routes::new(&Topology::linear(3, 1));
/// let path = routes.shortest_path(Dpid::new(1), Dpid::new(3)).unwrap();
/// assert_eq!(path.len(), 2);
/// assert_eq!(routes.ecmp_path(Dpid::new(1), Dpid::new(3), 7), Some(path));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Routes {
    index: HashMap<Dpid, usize>,
    /// Per linked switch: its dpid and `(egress port, neighbour)` pairs
    /// in link order.
    nodes: Vec<(Dpid, Vec<(PortNo, usize)>)>,
    trees: Vec<OnceLock<Tree>>,
}

/// One source's breadth-first tree: per switch, its depth and the hop
/// that reached it, the predecessor and its egress port (`None` if
/// unreached; the source has depth 0 and no hop).
type Tree = Vec<Option<(u32, Option<(usize, PortNo)>)>>;

impl Routes {
    /// Builds the adjacency from the topology's links.
    pub fn new(topo: &Topology) -> Self {
        let mut routes = Routes::default();
        for l in &topo.links {
            let (a, b) = (routes.node(l.a.0), routes.node(l.b.0));
            for (from, port, to) in [(a, l.a.1, b), (b, l.b.1, a)] {
                if let Some((_, out)) = routes.nodes.get_mut(from) {
                    out.push((port, to));
                }
            }
        }
        routes.trees = vec![OnceLock::new(); routes.nodes.len()];
        routes
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

    /// A shortest path `from -> to`, ECMP-balanced: at each hop the
    /// flow `hash` (rotated by the hop index) picks among the neighbours
    /// one step nearer `to`, in link order. Deterministic per hash; on a
    /// unique-shortest-path topology it is [`Routes::shortest_path`].
    pub fn ecmp_path(&self, from: Dpid, to: Dpid, hash: u64) -> Option<Vec<(Dpid, PortNo)>> {
        if from == to {
            return Some(Vec::new());
        }
        let (mut cur, to) = (*self.index.get(&from)?, *self.index.get(&to)?);
        let tree = self.tree_of(to)?;
        let depth = |n: usize| tree.get(n).copied().flatten().map(|(d, _)| d);
        let mut d = depth(cur)?;
        let mut path = Vec::with_capacity(d as usize);
        while d > 0 {
            let (dpid, out) = self.nodes.get(cur)?;
            d -= 1;
            let nearer = || out.iter().filter(|(_, next)| depth(*next) == Some(d));
            let turn = (path.len() as u32) * 8;
            let pick = (hash.rotate_left(turn) as usize).checked_rem(nearer().count())?;
            let (port, next) = nearer().nth(pick)?;
            path.push((*dpid, *port));
            cur = *next;
        }
        Some(path)
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
            self.tree_of(from)?
        } else {
            detour = self.tree(from, excluded);
            &detour
        };
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            let (prev, port) = (*tree.get(cur)?)?.1?;
            path.push((self.nodes.get(prev)?.0, port));
            cur = prev;
        }
        path.reverse();
        Some(path)
    }

    /// `from`'s tree over every link, computed on its first read.
    fn tree_of(&self, from: usize) -> Option<&Tree> {
        let tree = self.trees.get(from)?;
        Some(tree.get_or_init(|| self.tree(from, &HashSet::new())))
    }

    /// Breadth-first tree from `from` over the hops not in `excluded`.
    fn tree(&self, from: usize, excluded: &HashSet<(Dpid, PortNo)>) -> Tree {
        let mut tree = vec![None; self.nodes.len()];
        if let Some(slot) = tree.get_mut(from) {
            *slot = Some((0, None));
        }
        let mut queue = VecDeque::from([(from, 0)]);
        while let Some((cur, depth)) = queue.pop_front() {
            let Some((dpid, out)) = self.nodes.get(cur) else {
                continue;
            };
            for (port, next) in out {
                if excluded.contains(&(*dpid, *port)) {
                    continue;
                }
                if let Some(slot @ None) = tree.get_mut(*next) {
                    *slot = Some((depth + 1, Some((cur, *port))));
                    queue.push_back((*next, depth + 1));
                }
            }
        }
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_topology_shape() {
        let t = Topology::linear(4, 2);
        assert_eq!(t.switches.len(), 4);
        assert_eq!(t.links.len(), 3);
        assert_eq!(t.hosts.len(), 8);
        assert_eq!(t.controller_count(), 1);
    }

    #[test]
    fn enterprise_matches_table_vi() {
        let t = Topology::enterprise();
        // Table VI: 18 OF switches, 48 links, 3 controller instances.
        assert_eq!(t.switches.len(), 18);
        assert_eq!(t.unidirectional_link_count(), 48);
        assert_eq!(t.controller_count(), 3);
        // 6 "physical" cores + 12 "OVS" edges.
        let cores = t.switches.iter().filter(|s| s.dpid.raw() <= 6).count();
        assert_eq!(cores, 6);
    }

    #[test]
    fn enterprise_is_fully_connected() {
        let t = Topology::enterprise();
        let routes = Routes::new(&t);
        for s in &t.switches {
            for d in &t.switches {
                assert!(
                    routes.shortest_path(s.dpid, d.dpid).is_some(),
                    "{} -> {} unreachable",
                    s.dpid,
                    d.dpid
                );
            }
        }
    }

    #[test]
    fn nae_topology_has_two_paths_to_servers() {
        let t = Topology::nae();
        assert_eq!(t.switches.len(), 7);
        let upper = Routes::new(&t)
            .shortest_path(Dpid::new(1), Dpid::new(4))
            .unwrap();
        assert_eq!(upper.len(), 3); // both candidate paths are 3 hops
                                    // The FTP server exists.
        assert!(t.host_by_ip(Ipv4Addr::new(10, 0, 4, 1)).is_some());
    }

    #[test]
    fn shortest_path_endpoints() {
        let t = Routes::new(&Topology::linear(3, 1));
        assert_eq!(t.shortest_path(Dpid::new(1), Dpid::new(1)), Some(vec![]));
        let p = t.shortest_path(Dpid::new(1), Dpid::new(3)).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].0, Dpid::new(1));
        assert_eq!(p[1].0, Dpid::new(2));
        assert_eq!(t.shortest_path(Dpid::new(1), Dpid::new(99)), None);
        assert_eq!(t.ecmp_path(Dpid::new(99), Dpid::new(1), 0), None);
    }

    #[test]
    fn a_partitioned_view_routes_each_side_only() {
        let mut split = Topology::linear(4, 1);
        split.links.remove(1);
        let routes = Routes::new(&split);
        assert_eq!(routes.shortest_path(Dpid::new(1), Dpid::new(4)), None);
        assert_eq!(routes.ecmp_path(Dpid::new(1), Dpid::new(4), 0), None);
        assert!(routes
            .disjoint_paths(Dpid::new(1), Dpid::new(4), 2)
            .is_empty());
        assert_eq!(
            routes
                .shortest_path(Dpid::new(3), Dpid::new(4))
                .map(|p| p.len()),
            Some(1)
        );
    }

    #[test]
    fn nae_topology_yields_two_disjoint_paths() {
        let paths = Routes::new(&Topology::nae()).disjoint_paths(Dpid::new(1), Dpid::new(4), 2);
        assert_eq!(paths.len(), 2);
        // Paths share no (switch, port) hop.
        let a: HashSet<_> = paths[0].iter().collect();
        assert!(paths[1].iter().all(|h| !a.contains(h)));
    }

    #[test]
    fn a_read_does_not_depend_on_the_reads_before_it() {
        let t = Topology::fat_tree(4);
        let dpids: Vec<Dpid> = t.switches.iter().map(|s| s.dpid).collect();
        let (warm, cold) = (Routes::new(&t), Routes::new(&t));
        for from in &dpids {
            for to in &dpids {
                warm.ecmp_path(*to, *from, 3);
                let path = warm.shortest_path(*from, *to);
                assert_eq!(path, Routes::new(&t).shortest_path(*from, *to));
                assert_eq!(warm.ecmp_path(*from, *to, 3), cold.ecmp_path(*from, *to, 3));
            }
        }
    }

    #[test]
    fn link_lookup_both_directions() {
        let t = Topology::linear(2, 0);
        let fwd = t.link_from(Dpid::new(1), PortNo::new(1)).unwrap();
        assert_eq!(fwd.dst, Dpid::new(2));
        let back = t.link_from(Dpid::new(2), PortNo::new(2)).unwrap();
        assert_eq!(back.dst, Dpid::new(1));
        assert!(t.link_from(Dpid::new(1), PortNo::new(9)).is_none());
    }

    #[test]
    fn host_lookup() {
        let t = Topology::linear(2, 2);
        let h = t.host(HostId::new(1)).unwrap();
        assert_eq!(t.host_by_ip(h.ip).unwrap().id, h.id);
        assert!(t.host(HostId::new(999)).is_none());
    }

    #[test]
    fn fat_tree_shape() {
        let t = Topology::fat_tree(4);
        // 4 pods x (2 edge + 2 agg) + 4 cores.
        assert_eq!(t.switches.len(), 20);
        // Edge-agg: 4 pods x 2x2; agg-core: 8 aggs x 2.
        assert_eq!(t.links.len(), 32);
        // k^3/4 hosts.
        assert_eq!(t.hosts.len(), 16);
        // One controller domain per pod (cores fold into pod 0's).
        assert_eq!(t.controller_count(), 4);
        // Pod-contiguous dpids: pod 0 = 1..=4, cores start at k*k+1.
        assert!(t.switches[..4].iter().all(|s| s.dpid.raw() <= 4));
        assert!(t.switches.iter().any(|s| s.dpid.raw() == 17));
    }

    #[test]
    fn fat_tree_hosts_are_unique_and_reachable() {
        let t = Topology::fat_tree_with_hosts(4, 3);
        assert_eq!(t.hosts.len(), 4 * 2 * 3);
        let mut ips: Vec<Ipv4Addr> = t.hosts.iter().map(|h| h.ip).collect();
        ips.sort();
        ips.dedup();
        assert_eq!(ips.len(), t.hosts.len(), "host IPs must be unique");
        let mut ports: Vec<(Dpid, PortNo)> = t.hosts.iter().map(|h| (h.switch, h.port)).collect();
        ports.sort();
        ports.dedup();
        assert_eq!(ports.len(), t.hosts.len(), "host ports must be unique");
        // Host ports never collide with uplink ports (1..=k/2).
        assert!(t.hosts.iter().all(|h| h.port.raw() > 2));
        // Cross-pod reachability via agg + core layers.
        let first = t.hosts.first().unwrap();
        let last = t.hosts.last().unwrap();
        let path = Routes::new(&t)
            .shortest_path(first.switch, last.switch)
            .unwrap();
        assert_eq!(path.len(), 4, "edge-agg-core-agg-edge is four hops");
    }

    #[test]
    fn fat_tree_is_deterministic() {
        assert_eq!(Topology::fat_tree(6), Topology::fat_tree(6));
    }
}
