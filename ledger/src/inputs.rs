//! Seed → inputs. Everything the workloads feed the program is generated
//! here from `--seed`; the program itself receives only the generated
//! flows and packet-ins. The same seed gives the same inputs, a
//! different seed different ones (see the tests).

use athena_dataplane::workload::{self, DdosParams};
use athena_dataplane::{FlowSpec, Topology};
use athena_types::{Ipv4Addr, SimDuration, SimTime};

/// The default `--seed`.
pub const DEFAULT_SEED: u64 = 20_170_610;

/// Independent sub-seed `stream` of `seed` (splitmix64 finalizer), so the
/// generators of one workload never share a random stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a digest of a string, as 16 hex digits: for inputs and simulated
/// outputs that are compared by eye between runs.
pub fn digest_str(s: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of a flow list (order-sensitive).
pub fn flows_digest(flows: &[FlowSpec]) -> String {
    digest_str(&format!("{flows:?}"))
}

/// Paper scenario 1 on the enterprise topology: a benign mix, a flood
/// toward `victim` from t = 8 s, and a second, smaller wave from t = 40 s
/// for the online validator.
#[derive(Debug, Clone)]
pub struct DdosInputs {
    pub topo: Topology,
    pub victim: Ipv4Addr,
    /// Benign mix + first flood, injected at t = 0.
    pub wave1: Vec<FlowSpec>,
    /// Second flood, injected after the model is deployed.
    pub wave2: Vec<FlowSpec>,
}

impl DdosInputs {
    pub fn digest(&self) -> String {
        digest_str(&format!(
            "{}|{}",
            flows_digest(&self.wave1),
            flows_digest(&self.wave2)
        ))
    }
}

// A quarter of the 600 / 1250 / 625 flows ISSUE 12 sized the scenario at.
// At full size a rep holds ~2 GB resident and this 2-core microVM spends
// more time in page faults than in the program (34 s sys of a 64 s run,
// reps 5–14 s); at a quarter a rep is steady to a few percent within a
// run and a run fits nine of them. The mix stays close: ~80 feature
// records per packet-in against ~60, flood flows twice the benign ones.
pub const DDOS_BENIGN_FLOWS: usize = 150;
pub const DDOS_WAVE1_FLOWS: usize = 312;
pub const DDOS_WAVE2_FLOWS: usize = 156;
/// Virtual second the second wave starts at.
pub const DDOS_WAVE2_START: u64 = 40;

pub fn ddos_inputs(seed: u64) -> DdosInputs {
    let topo = Topology::enterprise();
    let victim = topo.hosts[0].ip;
    let flood = |start: u64, n_flows: usize, stream: u64| {
        workload::ddos_flood(
            &topo,
            victim,
            DdosParams {
                start: SimTime::from_secs(start),
                duration: SimDuration::from_secs(22),
                n_flows,
                ..DdosParams::default()
            },
            sub_seed(seed, stream),
        )
    };
    let mut wave1 = workload::benign_mix_on(
        &topo,
        DDOS_BENIGN_FLOWS,
        SimDuration::from_secs(30),
        sub_seed(seed, 1),
    );
    wave1.extend(flood(8, DDOS_WAVE1_FLOWS, 2));
    let wave2 = flood(DDOS_WAVE2_START, DDOS_WAVE2_FLOWS, 3);
    DdosInputs {
        topo,
        victim,
        wave1,
        wave2,
    }
}

/// The scale engine's fabric: k = 8 fat-tree, 313 hosts per edge switch
/// (10 016 hosts, 80 switches), under a 3 000-flow benign mix.
#[derive(Debug, Clone)]
pub struct FatTreeInputs {
    pub topo: Topology,
    pub flows: Vec<FlowSpec>,
}

pub const FAT_TREE_FLOWS: usize = 3000;

pub fn fat_tree_inputs(seed: u64) -> FatTreeInputs {
    let topo = Topology::fat_tree_with_hosts(8, 313);
    let flows = workload::benign_mix_on(
        &topo,
        FAT_TREE_FLOWS,
        SimDuration::from_secs(8),
        sub_seed(seed, 4),
    );
    FatTreeInputs { topo, flows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        let a = ddos_inputs(11);
        let b = ddos_inputs(11);
        let c = ddos_inputs(12);
        assert_eq!(a.wave1, b.wave1);
        assert_eq!(a.wave2, b.wave2);
        assert_eq!(flows_digest(&a.wave1), flows_digest(&b.wave1));
        assert_ne!(a.wave1, c.wave1);
        assert_ne!(flows_digest(&a.wave1), flows_digest(&c.wave1));
        assert_ne!(flows_digest(&a.wave2), flows_digest(&c.wave2));
        assert_eq!(a.wave1.len(), DDOS_BENIGN_FLOWS + DDOS_WAVE1_FLOWS);
        assert_eq!(a.wave2.len(), DDOS_WAVE2_FLOWS);
        assert!(a.wave2.iter().all(|f| f.start >= SimTime::from_secs(40)));
    }

    #[test]
    fn sub_seeds_differ_per_stream_and_per_seed() {
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
        assert_eq!(sub_seed(9, 3), sub_seed(9, 3));
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        assert_eq!(digest_str("abc"), digest_str("abc"));
        assert_ne!(digest_str("abc"), digest_str("acb"));
        let a = ddos_inputs(5);
        let mut rev = a.wave2.clone();
        rev.reverse();
        assert_ne!(flows_digest(&a.wave2), flows_digest(&rev));
    }
}
