//! Shared deployment harness for the end-to-end suites.
//!
//! Every e2e scenario starts the same way: build a topology, wire a
//! `Network` to a `ControllerCluster`, attach Athena, inject seeded
//! workloads, and advance virtual time. This module owns that
//! boilerplate so each suite only states what is *different* about its
//! scenario. Each integration test is its own crate, so unused helpers
//! are expected per-suite.
#![allow(dead_code)]

use athena::controller::ControllerCluster;
use athena::core::{Athena, AthenaConfig};
use athena::dataplane::{workload, FlowSpec, Network, NetworkConfig, ShardPlan, Topology};
use athena::types::{Ipv4Addr, SimDuration, SimTime};

/// A live simulated SDN with Athena attached: network, controller
/// cluster, and the framework instance, plus the topology they share.
pub struct Deployment {
    pub topo: Topology,
    pub net: Network,
    pub cluster: ControllerCluster,
    pub athena: Athena,
}

impl Deployment {
    /// Advances the simulation to `secs` of virtual time.
    pub fn run_until_secs(&mut self, secs: u64) {
        self.net
            .run_until(SimTime::from_secs(secs), &mut self.cluster);
    }

    /// Injects a seeded benign background mix across the topology.
    pub fn inject_benign(&mut self, n_flows: usize, duration_secs: u64, seed: u64) {
        let flows = workload::benign_mix_on(
            &self.topo,
            n_flows,
            SimDuration::from_secs(duration_secs),
            seed,
        );
        self.net.inject_flows(flows);
    }

    /// Injects an arbitrary pre-built flow list.
    pub fn inject(&mut self, flows: Vec<FlowSpec>) {
        self.net.inject_flows(flows);
    }

    /// Injects a DDoS flood toward `victim` (paper scenario 1 shape).
    pub fn inject_ddos(&mut self, victim: Ipv4Addr, start_secs: u64, n_flows: usize, seed: u64) {
        let flows = workload::ddos_flood(
            &self.topo,
            victim,
            workload::DdosParams {
                start: SimTime::from_secs(start_secs),
                duration: SimDuration::from_secs(22),
                n_flows,
                ..workload::DdosParams::default()
            },
            seed,
        );
        self.net.inject_flows(flows);
    }
}

/// Deploys Athena on `topo`, its network sharded by `plan` (any plan
/// gives the one-shard run's bytes — `Network` is plan-invariant), with
/// extra controller configuration (e.g. NAE processors) applied before
/// attach.
pub fn deploy_on_with(
    topo: Topology,
    plan: ShardPlan,
    configure: impl FnOnce(&mut ControllerCluster),
) -> Deployment {
    let net = Network::with_plan(topo.clone(), NetworkConfig::default(), plan);
    let mut cluster = ControllerCluster::new(&topo);
    configure(&mut cluster);
    let athena = Athena::new(AthenaConfig::default());
    athena.attach(&mut cluster);
    Deployment {
        topo,
        net,
        cluster,
        athena,
    }
}

/// Deploys Athena on `topo` with the default controller cluster.
pub fn deploy_on(topo: Topology) -> Deployment {
    let plan = ShardPlan::partition(&topo, 1);
    deploy_on_with(topo, plan, |_| {})
}

/// Deploys Athena on the enterprise topology.
pub fn deploy_enterprise() -> Deployment {
    deploy_on(Topology::enterprise())
}

/// The canonical scenario-1 deployment: enterprise topology, benign mix
/// (seed 101) plus a flood toward `hosts[0]` (seed 102), advanced to
/// 35 s. Returns the deployment and the victim address.
pub fn ddos_scenario(n_benign: usize, n_attack: usize) -> (Deployment, Ipv4Addr) {
    let mut d = deploy_enterprise();
    let victim = d.topo.hosts[0].ip;
    d.inject_benign(n_benign, 30, 101);
    d.inject_ddos(victim, 8, n_attack, 102);
    d.run_until_secs(35);
    (d, victim)
}
