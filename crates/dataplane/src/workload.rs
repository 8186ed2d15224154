//! Workload generators: benign traffic mixes and the paper's attack
//! scenarios.
//!
//! - [`benign_mix`] — web/FTP/DNS flows with heavy-tailed sizes and
//!   bidirectional pair flows,
//! - [`ddos_flood`] — the Figure 6 scenario: many spoofed, short,
//!   unidirectional, high-packet-rate flows converging on one victim
//!   (modeled on Braga et al., the paper's comparison point),
//! - [`crossfire`] — the LFA scenario: many individually low-rate,
//!   protocol-conforming flows whose paths converge on target links,
//! - [`flash_crowd`] — a benign anomaly: a legitimate surge toward one
//!   server.
//!
//! Generators are deterministic given their seed.

use crate::flow::FlowSpec;
use crate::topology::{HostSpec, Routes, Topology};
use athena_types::{FiveTuple, HostId, Ipv4Addr, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};
use rand_distr::{Distribution, Exp, Pareto, Zipf};

/// Well-known service ports generated by the benign mix.
const SERVICE_PORTS: [u16; 5] = [80, 443, 21, 53, 25];

/// Generates `n_flows` benign flows among the given hosts over `duration`.
///
/// Destinations are Zipf-skewed (a few popular servers), flow sizes are
/// Pareto heavy-tailed, inter-arrivals exponential, and most TCP flows are
/// bidirectional (pair flows) — the statistical profile volume-based
/// anomaly detectors expect of normal traffic.
///
/// # Panics
///
/// Panics if fewer than two hosts are supplied.
pub fn benign_mix(
    hosts: &[HostId],
    n_flows: usize,
    duration: SimDuration,
    seed: u64,
) -> Vec<FlowSpec> {
    assert!(hosts.len() >= 2, "benign mix needs at least two hosts");
    let mut rng = StdRng::seed_from_u64(seed);
    let arrival =
        Exp::new((n_flows as f64 / duration.as_secs_f64()).max(1e-9)).expect("positive rate");
    let size = Pareto::<f64>::new(20_000.0, 1.3).expect("valid pareto"); // bytes
    let popularity = Zipf::new((hosts.len() - 1) as f64, 1.1).expect("valid zipf");

    let mut flows = Vec::with_capacity(n_flows);
    let mut t = 0.0f64;
    for i in 0..n_flows {
        t += arrival.sample(&mut rng);
        let start = SimTime::from_micros((t * 1e6) as u64);
        // Zipf-popular destination, uniform source distinct from it.
        let dst_rank = popularity.sample(&mut rng) as usize;
        let dst = hosts[dst_rank.min(hosts.len() - 1)];
        let src = loop {
            let c = *hosts.choose(&mut rng).expect("non-empty");
            if c != dst {
                break c;
            }
        };
        let port = *SERVICE_PORTS.choose(&mut rng).expect("non-empty");
        let bytes = size.sample(&mut rng).min(50_000_000.0);
        // Flow lasts 1-30 s; rate derived from size.
        let dur_s = rng.random_range(1.0..30.0);
        let rate_bps = ((bytes * 8.0) / dur_s).max(8_000.0) as u64;
        let ft = FiveTuple::tcp(
            ip_of(hosts, src),
            rng.random_range(32_768..61_000),
            ip_of(hosts, dst),
            port,
        );
        let reverse = if port == 53 {
            1.0 // DNS request/response symmetric
        } else if port == 21 || port == 80 || port == 443 {
            rng.random_range(0.02..0.2) // requests vs. content
        } else {
            0.05
        };
        let f = FlowSpec::new(ft, start, SimDuration::from_secs_f64(dur_s), rate_bps)
            .bidirectional(reverse)
            .with_packet_size(if port == 53 { 128 } else { 1400 });
        flows.push(f);
        let _ = i;
    }
    flows
}

// The generators key flows by host IPs; this helper keeps them decoupled
// from the topology by deriving the conventional 10.x address from the id
// when no topology is supplied. Topology-aware callers should use
// [`benign_mix_on`] and friends instead.
fn ip_of(_hosts: &[HostId], id: HostId) -> Ipv4Addr {
    Ipv4Addr::from_raw(0x0a00_0000 | (id.raw() as u32 & 0x00ff_ffff))
}

/// [`benign_mix`] using a topology's real host addresses.
pub fn benign_mix_on(
    topo: &Topology,
    n_flows: usize,
    duration: SimDuration,
    seed: u64,
) -> Vec<FlowSpec> {
    let mut flows = benign_mix(&topo.host_ids(), n_flows, duration, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for f in &mut flows {
        let src = random_host(topo, &mut rng);
        let dst = loop {
            let d = random_host(topo, &mut rng);
            if d.id != src.id {
                break d;
            }
        };
        f.five_tuple.src = src.ip;
        f.five_tuple.dst = dst.ip;
    }
    flows
}

fn random_host<'a>(topo: &'a Topology, rng: &mut StdRng) -> &'a HostSpec {
    &topo.hosts[rng.random_range(0..topo.hosts.len())]
}

/// Parameters for the DDoS flood generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdosParams {
    /// Number of attack flows (each with a spoofed source).
    pub n_flows: usize,
    /// Real ingress hosts the spoofed traffic enters through.
    pub n_bots: usize,
    /// Aggregate attack rate in bits per second.
    pub total_rate_bps: u64,
    /// When the attack starts.
    pub start: SimTime,
    /// How long the attack lasts.
    pub duration: SimDuration,
}

impl Default for DdosParams {
    fn default() -> Self {
        DdosParams {
            n_flows: 400,
            n_bots: 20,
            total_rate_bps: 400_000_000,
            start: SimTime::from_secs(5),
            duration: SimDuration::from_secs(60),
        }
    }
}

/// Generates a flooding DDoS against `victim`: many short, unidirectional,
/// small-packet flows with spoofed sources entering at the bot hosts.
///
/// Spoofed sources reuse the bots' access switches (traffic must enter
/// somewhere real) but carry random source addresses — producing the
/// unidirectional, low-byte-per-packet, short-duration profile of
/// Table V.
pub fn ddos_flood(
    topo: &Topology,
    victim: Ipv4Addr,
    params: DdosParams,
    seed: u64,
) -> Vec<FlowSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bots: Vec<&HostSpec> = topo
        .hosts
        .iter()
        .filter(|h| h.ip != victim)
        .take(params.n_bots.max(1))
        .collect();
    let per_flow_rate = (params.total_rate_bps / params.n_flows.max(1) as u64).max(8_000);
    let mut flows = Vec::with_capacity(params.n_flows);
    for _ in 0..params.n_flows {
        let bot = bots[rng.random_range(0..bots.len())];
        // Spoof the low octet of the bot's address so the flow still
        // enters at the bot's switch (same /24 routing in our simulator
        // keys on exact IP, so we spoof ports instead and keep the bot IP
        // with randomized high ports — matching what OpenFlow-visible
        // spoofing looks like when ingress filtering is present).
        let ft = FiveTuple::udp(
            bot.ip,
            rng.random_range(1024..u16::MAX),
            victim,
            rng.random_range(1..1024),
        );
        let start = params.start
            + SimDuration::from_micros(rng.random_range(0..params.duration.as_micros().max(1)) / 2);
        let dur = SimDuration::from_secs_f64(rng.random_range(0.5..5.0));
        flows.push(
            FlowSpec::new(ft, start, dur, per_flow_rate)
                .with_packet_size(rng.random_range(64..128))
                .malicious(),
        );
    }
    flows
}

/// Parameters for the Crossfire-style link-flooding generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossfireParams {
    /// Number of bot flows.
    pub n_flows: usize,
    /// Per-flow rate in bits per second (individually low).
    pub per_flow_rate_bps: u64,
    /// When the attack starts.
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
}

impl Default for CrossfireParams {
    fn default() -> Self {
        CrossfireParams {
            n_flows: 200,
            per_flow_rate_bps: 1_000_000,
            start: SimTime::from_secs(10),
            duration: SimDuration::from_secs(60),
        }
    }
}

/// Generates a Crossfire-style link-flooding attack: many low-rate,
/// protocol-conforming flows from bot hosts to *decoy* hosts chosen so
/// their shortest paths cross the target link.
pub fn crossfire(
    topo: &Topology,
    target_link_src: athena_types::Dpid,
    target_link_dst: athena_types::Dpid,
    params: CrossfireParams,
    seed: u64,
) -> Vec<FlowSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Decoys: hosts whose path from some bot traverses target_src ->
    // target_dst consecutively.
    let routes = Routes::new(topo);
    let mut pairs: Vec<(&HostSpec, &HostSpec)> = Vec::new();
    for bot in &topo.hosts {
        for decoy in &topo.hosts {
            if bot.id == decoy.id {
                continue;
            }
            if let Some(path) = routes.shortest_path(bot.switch, decoy.switch) {
                let hops: Vec<athena_types::Dpid> = path
                    .iter()
                    .map(|(d, _)| *d)
                    .chain(std::iter::once(decoy.switch))
                    .collect();
                if hops
                    .windows(2)
                    .any(|w| w[0] == target_link_src && w[1] == target_link_dst)
                {
                    pairs.push((bot, decoy));
                }
            }
        }
    }
    if pairs.is_empty() {
        return Vec::new();
    }
    let mut flows = Vec::with_capacity(params.n_flows);
    for _ in 0..params.n_flows {
        let (bot, decoy) = pairs[rng.random_range(0..pairs.len())];
        let ft = FiveTuple::tcp(bot.ip, rng.random_range(1024..u16::MAX), decoy.ip, 80);
        let jitter = SimDuration::from_micros(rng.random_range(0..2_000_000));
        flows.push(
            FlowSpec::new(
                ft,
                params.start + jitter,
                params.duration,
                params.per_flow_rate_bps,
            )
            .bidirectional(0.05) // looks like normal web traffic
            .with_packet_size(1200)
            .malicious(),
        );
    }
    flows
}

/// Generates a vertical port scan: one scanner probing many destination
/// ports on a target with tiny, unanswered flows.
pub fn port_scan(
    scanner: Ipv4Addr,
    target: Ipv4Addr,
    n_ports: u16,
    start: SimTime,
    seed: u64,
) -> Vec<FlowSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_ports)
        .map(|i| {
            let ft = FiveTuple::tcp(scanner, 40_000 + i, target, 1 + (i * 37) % 10_000);
            let jitter = SimDuration::from_micros(rng.random_range(0..3_000_000));
            FlowSpec::new(
                ft,
                start + jitter,
                SimDuration::from_secs(1),
                16_000, // a few probe packets
            )
            .with_packet_size(64)
            .malicious()
        })
        .collect()
}

/// Generates a flash crowd: a benign surge of many clients fetching from
/// one server.
pub fn flash_crowd(
    topo: &Topology,
    server: Ipv4Addr,
    n_clients: usize,
    start: SimTime,
    duration: SimDuration,
    seed: u64,
) -> Vec<FlowSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let clients: Vec<&HostSpec> = topo.hosts.iter().filter(|h| h.ip != server).collect();
    let mut flows = Vec::with_capacity(n_clients);
    for _ in 0..n_clients {
        let c = clients[rng.random_range(0..clients.len())];
        let ft = FiveTuple::tcp(c.ip, rng.random_range(32_768..61_000), server, 80);
        let jitter = SimDuration::from_micros(rng.random_range(0..5_000_000));
        flows.push(
            FlowSpec::new(ft, start + jitter, duration, 2_000_000)
                .bidirectional(0.1)
                .with_packet_size(1400),
        );
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_types::Dpid;

    #[test]
    fn benign_mix_is_deterministic_and_bidirectional() {
        let hosts: Vec<HostId> = (1..=10).map(HostId::new).collect();
        let a = benign_mix(&hosts, 100, SimDuration::from_secs(30), 42);
        let b = benign_mix(&hosts, 100, SimDuration::from_secs(30), 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|f| !f.malicious));
        let bidir = a.iter().filter(|f| f.reverse_ratio > 0.0).count();
        assert!(bidir > 90, "{bidir} bidirectional flows");
        // No self-flows.
        assert!(a.iter().all(|f| f.five_tuple.src != f.five_tuple.dst));
    }

    #[test]
    fn ddos_profile_matches_table_v() {
        let topo = Topology::enterprise();
        let victim = topo.hosts[0].ip;
        let flows = ddos_flood(&topo, victim, DdosParams::default(), 7);
        assert_eq!(flows.len(), 400);
        for f in &flows {
            assert!(f.malicious);
            assert_eq!(f.reverse_ratio, 0.0, "unidirectional");
            assert!(f.packet_size < 128, "small packets");
            assert!(f.duration <= SimDuration::from_secs(5), "short flows");
            assert_eq!(f.five_tuple.dst, victim);
        }
    }

    #[test]
    fn crossfire_flows_cross_the_target_link() {
        let topo = Topology::linear(4, 2);
        let flows = crossfire(
            &topo,
            Dpid::new(2),
            Dpid::new(3),
            CrossfireParams {
                n_flows: 50,
                ..CrossfireParams::default()
            },
            3,
        );
        assert_eq!(flows.len(), 50);
        // Each flow's path indeed crosses 2 -> 3.
        let routes = Routes::new(&topo);
        for f in &flows {
            let src = topo.host_by_ip(f.five_tuple.src).unwrap();
            let dst = topo.host_by_ip(f.five_tuple.dst).unwrap();
            let path = routes.shortest_path(src.switch, dst.switch).unwrap();
            let hops: Vec<Dpid> = path
                .iter()
                .map(|(d, _)| *d)
                .chain(std::iter::once(dst.switch))
                .collect();
            assert!(
                hops.windows(2)
                    .any(|w| w[0] == Dpid::new(2) && w[1] == Dpid::new(3)),
                "{hops:?}"
            );
        }
    }

    #[test]
    fn crossfire_with_impossible_target_is_empty() {
        let topo = Topology::linear(2, 1);
        let flows = crossfire(
            &topo,
            Dpid::new(2),
            Dpid::new(99),
            CrossfireParams::default(),
            1,
        );
        assert!(flows.is_empty());
    }

    #[test]
    fn flash_crowd_targets_one_server_benignly() {
        let topo = Topology::enterprise();
        let server = topo.hosts[5].ip;
        let flows = flash_crowd(
            &topo,
            server,
            80,
            SimTime::from_secs(3),
            SimDuration::from_secs(20),
            9,
        );
        assert_eq!(flows.len(), 80);
        assert!(flows.iter().all(|f| !f.malicious));
        assert!(flows.iter().all(|f| f.five_tuple.dst == server));
        assert!(flows.iter().all(|f| f.five_tuple.src != server));
    }

    #[test]
    fn benign_mix_on_uses_topology_addresses() {
        let topo = Topology::enterprise();
        let flows = benign_mix_on(&topo, 50, SimDuration::from_secs(20), 11);
        for f in &flows {
            assert!(topo.host_by_ip(f.five_tuple.src).is_some());
            assert!(topo.host_by_ip(f.five_tuple.dst).is_some());
        }
    }
}
