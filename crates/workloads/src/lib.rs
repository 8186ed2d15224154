//! # athena-workloads — the unseen-attack generalization suite
//!
//! The paper evaluates Athena on attacks its detectors were trained on.
//! This crate closes the generalization gap: it wraps the base dataplane
//! workload generators (DDoS flood, port scan, Crossfire LFA, flash
//! crowd) in an [`AttackFamily`] taxonomy and adds seed-deterministic
//! *unseen* variants — rate-scaled floods, slow-and-low scans,
//! amplification/reflection floods, control-channel saturation, and
//! flood/scan blends — built by applying bounded [`mutate`] operators to
//! the base traces. Every [`GeneratedAttack`] carries ground-truth flow
//! labels and a held-out flag, so the ML layer trains only on base
//! families ([`training_split`]) and is evaluated on the mutants.
//!
//! The evaluation-matrix harness in `crates/bench` consumes this crate to
//! run every (attack × Table-IV algorithm) cell.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod family;
pub mod mutate;

pub use family::{AttackConfig, AttackFamily, GeneratedAttack};
pub use mutate::{MutationBounds, MutationParams, BOUNDS};

/// Splits generated attacks into the training set (base families only)
/// and the held-out evaluation set. The ML layer must never see a
/// held-out trace at fit time — the property suite enforces this.
pub fn training_split(
    attacks: &[GeneratedAttack],
) -> (Vec<&GeneratedAttack>, Vec<&GeneratedAttack>) {
    let (held, train): (Vec<&GeneratedAttack>, Vec<&GeneratedAttack>) =
        attacks.iter().partition(|a| a.held_out());
    (train, held)
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_dataplane::Topology;

    #[test]
    fn training_split_excludes_held_out_families() {
        let topo = Topology::enterprise();
        let cfg = AttackConfig {
            n_flows: 20,
            ..AttackConfig::new(topo.hosts[0].ip)
        };
        let attacks: Vec<GeneratedAttack> = AttackFamily::all()
            .iter()
            .map(|f| f.generate(&topo, &cfg, 11))
            .collect();
        let (train, held) = training_split(&attacks);
        assert_eq!(train.len(), AttackFamily::base().len());
        assert_eq!(held.len(), AttackFamily::unseen().len());
        assert!(train.iter().all(|a| !a.held_out()));
        assert!(held.iter().all(|a| a.held_out()));
    }
}
