//! The attack-family taxonomy: base (training) families and unseen
//! (held-out) mutants.
//!
//! Base families are the paper's evaluation scenarios — DDoS flood,
//! vertical port scan, Crossfire-style LFA, and the benign flash crowd.
//! Unseen families are seed-deterministic mutations and blends of those
//! generators: rate-scaled floods, slow-and-low scans, amplification/
//! reflection floods, control-channel saturation against the controller
//! itself, and a flood/scan blend. Every generated attack carries its
//! ground-truth flow labels and a `held_out` flag so the ML layer trains
//! only on base attacks and is tested on the mutants.

use crate::mutate::MutationParams;
use athena_dataplane::workload::{self, CrossfireParams, DdosParams};
use athena_dataplane::{FlowSpec, Topology};
use athena_types::{Dpid, FiveTuple, Ipv4Addr, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// One attack family of the generalization suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackFamily {
    /// Base: the Figure 6 flooding DDoS (spoofed UDP toward one victim).
    Ddos,
    /// Base: a vertical TCP port scan from one scanner.
    PortScan,
    /// Base: the Crossfire-style link-flooding attack.
    Lfa,
    /// Base: a benign flash crowd (volume anomaly, not an attack).
    FlashCrowd,
    /// Unseen: the DDoS flood with mutated rate/duration operators.
    RateScaledDdos,
    /// Unseen: the port scan stretched slow-and-low below rate triggers.
    SlowLowScan,
    /// Unseen: an amplification/reflection flood (small spoofed requests,
    /// large reflected responses converging on the victim).
    AmplificationFlood,
    /// Unseen: control-channel saturation — a storm of unique micro-flows
    /// whose table misses flood the controller with packet-ins.
    ControlSaturation,
    /// Unseen: a blended flood + scan composite.
    BlendedFloodScan,
}

/// Parameters shared by every family's generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackConfig {
    /// The victim/target/server address.
    pub target: Ipv4Addr,
    /// When the attack starts.
    pub start: SimTime,
    /// How long the attack window lasts.
    pub duration: SimDuration,
    /// Attack size (flows, probes, or clients depending on the family).
    pub n_flows: usize,
}

impl AttackConfig {
    /// The evaluation-matrix defaults against `target`.
    pub fn new(target: Ipv4Addr) -> Self {
        AttackConfig {
            target,
            start: SimTime::from_secs(8),
            duration: SimDuration::from_secs(22),
            n_flows: 150,
        }
    }
}

/// A generated, labeled attack trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratedAttack {
    /// The family that produced the trace.
    pub family: AttackFamily,
    /// The mutation-operator draw (identity for base families).
    pub params: MutationParams,
    /// The flows, each carrying its ground-truth `malicious` label.
    pub flows: Vec<FlowSpec>,
}

impl GeneratedAttack {
    /// Whether this trace must be excluded from training splits.
    pub fn held_out(&self) -> bool {
        self.family.is_held_out()
    }

    /// The family's stable snake_case tag.
    pub fn name(&self) -> &'static str {
        self.family.tag()
    }

    /// The ground-truth malicious 5-tuples, sorted and deduplicated.
    pub fn malicious_tuples(&self) -> Vec<FiveTuple> {
        let mut tuples: Vec<FiveTuple> = self
            .flows
            .iter()
            .filter(|f| f.malicious)
            .map(|f| f.five_tuple)
            .collect();
        tuples.sort_unstable();
        tuples.dedup();
        tuples
    }

    /// The canonical byte-comparable form of the trace (JSON of the flow
    /// list, in generation order) — the property suite's determinism key.
    pub fn trace_json(&self) -> String {
        serde_json::to_string(&self.flows).unwrap_or_default()
    }
}

impl AttackFamily {
    /// Every family, base families first.
    pub fn all() -> &'static [AttackFamily] {
        &[
            AttackFamily::Ddos,
            AttackFamily::PortScan,
            AttackFamily::Lfa,
            AttackFamily::FlashCrowd,
            AttackFamily::RateScaledDdos,
            AttackFamily::SlowLowScan,
            AttackFamily::AmplificationFlood,
            AttackFamily::ControlSaturation,
            AttackFamily::BlendedFloodScan,
        ]
    }

    /// The base (training) families.
    pub fn base() -> &'static [AttackFamily] {
        &AttackFamily::all()[..4]
    }

    /// The unseen (held-out) families.
    pub fn unseen() -> &'static [AttackFamily] {
        &AttackFamily::all()[4..]
    }

    /// Whether the family is excluded from training splits.
    pub fn is_held_out(self) -> bool {
        !matches!(
            self,
            AttackFamily::Ddos
                | AttackFamily::PortScan
                | AttackFamily::Lfa
                | AttackFamily::FlashCrowd
        )
    }

    /// Whether the family's flows are attack traffic (the flash crowd is
    /// the one benign anomaly in the taxonomy).
    pub fn is_malicious(self) -> bool {
        !matches!(self, AttackFamily::FlashCrowd)
    }

    /// The stable snake_case tag used in reports and JSON artifacts.
    pub fn tag(self) -> &'static str {
        match self {
            AttackFamily::Ddos => "ddos_flood",
            AttackFamily::PortScan => "port_scan",
            AttackFamily::Lfa => "crossfire_lfa",
            AttackFamily::FlashCrowd => "flash_crowd",
            AttackFamily::RateScaledDdos => "rate_scaled_ddos",
            AttackFamily::SlowLowScan => "slow_low_scan",
            AttackFamily::AmplificationFlood => "amplification_flood",
            AttackFamily::ControlSaturation => "control_saturation",
            AttackFamily::BlendedFloodScan => "blended_flood_scan",
        }
    }

    /// The topology the family's canonical deployment runs on: the LFA
    /// needs the linear core whose bottleneck the decoy paths share;
    /// everything else runs on the enterprise fabric.
    pub fn canonical_topology(self) -> Topology {
        match self {
            AttackFamily::Lfa => Topology::linear(4, 6),
            _ => Topology::enterprise(),
        }
    }

    /// Generates the family's labeled trace, deterministic in `seed`.
    pub fn generate(self, topo: &Topology, cfg: &AttackConfig, seed: u64) -> GeneratedAttack {
        let tag_seed = seed ^ (0x57ac_0000 + self as u64);
        let mut rng = StdRng::seed_from_u64(tag_seed);
        let (params, flows) = match self {
            AttackFamily::Ddos => (
                MutationParams::identity(),
                workload::ddos_flood(topo, cfg.target, ddos_params(cfg, 1.0, 1.0), tag_seed),
            ),
            AttackFamily::PortScan => (
                MutationParams::identity(),
                workload::port_scan(
                    scanner_for(topo, cfg.target),
                    cfg.target,
                    cfg.n_flows.min(u16::MAX as usize) as u16,
                    cfg.start,
                    tag_seed,
                ),
            ),
            AttackFamily::Lfa => {
                // The linear topology's bottleneck link.
                let (a, b) = (Dpid::new(2), Dpid::new(3));
                (
                    MutationParams::identity(),
                    workload::crossfire(
                        topo,
                        a,
                        b,
                        CrossfireParams {
                            n_flows: cfg.n_flows,
                            per_flow_rate_bps: 6_000_000,
                            start: cfg.start,
                            duration: cfg.duration,
                        },
                        tag_seed,
                    ),
                )
            }
            AttackFamily::FlashCrowd => (
                MutationParams::identity(),
                workload::flash_crowd(
                    topo,
                    cfg.target,
                    cfg.n_flows,
                    cfg.start,
                    cfg.duration,
                    tag_seed,
                ),
            ),
            AttackFamily::RateScaledDdos => {
                // Rate-scaled mutant: the same flood shape, pushed harder
                // and stretched — outside the trained volume envelope.
                let params = MutationParams::sample(
                    &mut rng,
                    (1.5, 4.0),
                    (1.2, 2.0),
                    (1.0, 1.0),
                    (0.0, 0.0),
                );
                let mut flows = workload::ddos_flood(
                    topo,
                    cfg.target,
                    ddos_params(cfg, 1.0, 1.0),
                    tag_seed ^ 0xd1,
                );
                params.apply(&mut flows, &mut rng);
                (params, flows)
            }
            AttackFamily::SlowLowScan => {
                // Slow-and-low mutant: the probe schedule is stretched far
                // past the scan window and each probe trickles.
                let params = MutationParams::sample(
                    &mut rng,
                    (0.25, 0.5),
                    (2.0, 8.0),
                    (1.0, 1.0),
                    (0.0, 5.0),
                );
                let mut flows = workload::port_scan(
                    scanner_for(topo, cfg.target),
                    cfg.target,
                    cfg.n_flows.min(u16::MAX as usize) as u16,
                    cfg.start,
                    tag_seed ^ 0xd2,
                );
                let stretch = cfg.duration.as_secs_f64() * params.duration_scale;
                for f in &mut flows {
                    let offset = rng.random_range(0.0..stretch.max(1.0));
                    f.start = cfg.start + SimDuration::from_secs_f64(offset);
                }
                params.apply(&mut flows, &mut rng);
                (params, flows)
            }
            AttackFamily::AmplificationFlood => {
                let params = MutationParams::sample(
                    &mut rng,
                    (1.0, 2.0),
                    (1.0, 1.0),
                    (2.0, 4.0),
                    (0.0, 0.0),
                );
                let flows = amplification_flood(topo, cfg, &params, &mut rng);
                (params, flows)
            }
            AttackFamily::ControlSaturation => (
                MutationParams::identity(),
                control_saturation(topo, cfg, &mut rng),
            ),
            AttackFamily::BlendedFloodScan => {
                let params = MutationParams::sample(
                    &mut rng,
                    (0.5, 1.5),
                    (1.0, 1.0),
                    (1.0, 1.0),
                    (0.0, 2.0),
                );
                let mut flows = workload::ddos_flood(
                    topo,
                    cfg.target,
                    ddos_params(&half(cfg), 1.0, 1.0),
                    tag_seed ^ 0xd3,
                );
                flows.extend(workload::port_scan(
                    scanner_for(topo, cfg.target),
                    cfg.target,
                    (cfg.n_flows / 2).min(u16::MAX as usize) as u16,
                    cfg.start,
                    tag_seed ^ 0xd4,
                ));
                params.apply(&mut flows, &mut rng);
                (params, flows)
            }
        };
        GeneratedAttack {
            family: self,
            params,
            flows,
        }
    }
}

fn ddos_params(cfg: &AttackConfig, rate_scale: f64, duration_scale: f64) -> DdosParams {
    DdosParams {
        n_flows: cfg.n_flows,
        n_bots: 20,
        total_rate_bps: (400_000_000f64 * rate_scale) as u64,
        start: cfg.start,
        duration: SimDuration::from_secs_f64(cfg.duration.as_secs_f64() * duration_scale),
    }
}

fn half(cfg: &AttackConfig) -> AttackConfig {
    AttackConfig {
        n_flows: (cfg.n_flows / 2).max(1),
        ..*cfg
    }
}

/// The first host that is not the target — the scanner/bot ingress.
fn scanner_for(topo: &Topology, target: Ipv4Addr) -> Ipv4Addr {
    topo.hosts
        .iter()
        .map(|h| h.ip)
        .find(|ip| *ip != target)
        .unwrap_or(target)
}

/// Reflection flood: bots send tiny spoofed requests to reflector service
/// ports; the reflectors answer the victim with amplified responses. Both
/// legs are ground-truth malicious.
fn amplification_flood(
    topo: &Topology,
    cfg: &AttackConfig,
    params: &MutationParams,
    rng: &mut StdRng,
) -> Vec<FlowSpec> {
    let others: Vec<Ipv4Addr> = topo
        .hosts
        .iter()
        .map(|h| h.ip)
        .filter(|ip| *ip != cfg.target)
        .collect();
    if others.len() < 2 {
        return Vec::new();
    }
    let n_reflectors = others.len().min(12);
    let reflectors = &others[..n_reflectors];
    let bots = &others[n_reflectors / 2..];
    let amp_packet = ((1200f64 * params.packet_size_scale) as u32).clamp(64, 1500);
    let response_rate = (2_000_000f64 * params.rate_scale) as u64;
    let mut flows = Vec::with_capacity(cfg.n_flows);
    for i in 0..cfg.n_flows {
        let offset =
            SimDuration::from_micros(rng.random_range(0..cfg.duration.as_micros().max(1)) / 2);
        let dur = SimDuration::from_secs_f64(rng.random_range(1.0..4.0));
        if i % 3 == 0 {
            // The trigger leg: a tiny spoofed request into a reflector.
            let bot = bots[rng.random_range(0..bots.len())];
            let reflector = reflectors[rng.random_range(0..reflectors.len())];
            let ft = FiveTuple::udp(bot, rng.random_range(1024..u16::MAX), reflector, 123);
            flows.push(
                FlowSpec::new(ft, cfg.start + offset, dur, 64_000)
                    .with_packet_size(64)
                    .malicious(),
            );
        } else {
            // The amplified leg: a large reflected response at the victim.
            let reflector = reflectors[rng.random_range(0..reflectors.len())];
            let ft = FiveTuple::udp(reflector, 123, cfg.target, rng.random_range(1024..u16::MAX));
            flows.push(
                FlowSpec::new(ft, cfg.start + offset, dur, response_rate)
                    .with_packet_size(amp_packet)
                    .malicious(),
            );
        }
    }
    flows
}

/// Control-channel saturation: every flow is a unique micro-flow, so each
/// one misses every flow table it touches and punts to the controller —
/// the attack's target is the control plane's packet-in path, not a host.
fn control_saturation(topo: &Topology, cfg: &AttackConfig, rng: &mut StdRng) -> Vec<FlowSpec> {
    let hosts: Vec<Ipv4Addr> = topo.hosts.iter().map(|h| h.ip).collect();
    if hosts.len() < 2 {
        return Vec::new();
    }
    let mut flows = Vec::with_capacity(cfg.n_flows);
    for i in 0..cfg.n_flows {
        let src = hosts[rng.random_range(0..hosts.len())];
        let dst = loop {
            let d = hosts[rng.random_range(0..hosts.len())];
            if d != src {
                break d;
            }
        };
        // Ports derived from the flow index guarantee tuple uniqueness:
        // every activation is a fresh table miss.
        let src_port = 1024 + (i % 60_000) as u16;
        let dst_port = 1 + ((i * 131) % 50_000) as u16;
        let offset = SimDuration::from_micros(rng.random_range(0..cfg.duration.as_micros().max(1)));
        flows.push(
            FlowSpec::new(
                FiveTuple::udp(src, src_port, dst, dst_port),
                cfg.start + offset,
                SimDuration::from_secs_f64(0.4),
                64_000,
            )
            .with_packet_size(64)
            .malicious(),
        );
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_is_partitioned() {
        assert_eq!(AttackFamily::all().len(), 9);
        assert_eq!(AttackFamily::base().len(), 4);
        assert_eq!(AttackFamily::unseen().len(), 5);
        for f in AttackFamily::base() {
            assert!(!f.is_held_out(), "{f:?}");
        }
        for f in AttackFamily::unseen() {
            assert!(f.is_held_out(), "{f:?}");
        }
    }

    #[test]
    fn every_family_generates_a_deterministic_labeled_trace() {
        for &family in AttackFamily::all() {
            let topo = family.canonical_topology();
            let cfg = AttackConfig {
                n_flows: 60,
                ..AttackConfig::new(topo.hosts[0].ip)
            };
            let a = family.generate(&topo, &cfg, 42);
            let b = family.generate(&topo, &cfg, 42);
            assert_eq!(a, b, "{family:?} not seed-deterministic");
            assert!(!a.flows.is_empty(), "{family:?} generated nothing");
            assert!(a.params.in_bounds(), "{family:?} params out of bounds");
            if family.is_malicious() {
                assert!(
                    a.flows.iter().all(|f| f.malicious),
                    "{family:?} attack flows must be labeled malicious"
                );
                assert!(!a.malicious_tuples().is_empty());
            } else {
                assert!(
                    a.flows.iter().all(|f| !f.malicious),
                    "{family:?} benign anomaly must not carry attack labels"
                );
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let topo = AttackFamily::Ddos.canonical_topology();
        let cfg = AttackConfig::new(topo.hosts[0].ip);
        let a = AttackFamily::Ddos.generate(&topo, &cfg, 1);
        let b = AttackFamily::Ddos.generate(&topo, &cfg, 2);
        assert_ne!(a.trace_json(), b.trace_json());
    }

    #[test]
    fn control_saturation_tuples_are_unique() {
        let topo = Topology::enterprise();
        let cfg = AttackConfig {
            n_flows: 200,
            ..AttackConfig::new(topo.hosts[0].ip)
        };
        let a = AttackFamily::ControlSaturation.generate(&topo, &cfg, 7);
        let tuples = a.malicious_tuples();
        assert_eq!(tuples.len(), a.flows.len(), "every micro-flow is unique");
    }

    #[test]
    fn unseen_mutants_depart_from_their_base() {
        let topo = Topology::enterprise();
        let cfg = AttackConfig::new(topo.hosts[0].ip);
        let base = AttackFamily::Ddos.generate(&topo, &cfg, 5);
        let mutant = AttackFamily::RateScaledDdos.generate(&topo, &cfg, 5);
        assert_ne!(base.trace_json(), mutant.trace_json());
        assert!(mutant.params.rate_scale > 1.0);
    }
}
