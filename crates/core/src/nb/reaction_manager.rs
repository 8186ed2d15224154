//! The Reaction Manager (paper §III-A 2C): mitigation strategies.
//!
//! Athena supports two reactions: **Block** (drop a host's traffic) and
//! **Quarantine** (redirect a host into a honeynet). The manager turns
//! reaction requests into the flow-rule plans the SB Attack Reactor
//! pushes through the Athena proxy.

use athena_openflow::{Action, FlowMod, MatchFields};
use athena_types::EtherType;
use athena_types::{Dpid, Ipv4Addr, PortNo};
use serde::{Deserialize, Serialize};

/// A mitigation action (the `Reactions (r)` parameter of Table III).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Reaction {
    /// Drop all traffic from the targeted hosts.
    Block {
        /// The hosts to block.
        targets: Vec<Ipv4Addr>,
    },
    /// Redirect the targeted hosts' traffic to a honeynet destination.
    Quarantine {
        /// The hosts to quarantine.
        targets: Vec<Ipv4Addr>,
        /// The honeynet address traffic is rewritten to.
        destination: Ipv4Addr,
    },
}

impl Reaction {
    /// The targeted hosts.
    pub fn targets(&self) -> &[Ipv4Addr] {
        match self {
            Reaction::Block { targets } | Reaction::Quarantine { targets, .. } => targets,
        }
    }
}

/// A planned rule installation: which switch gets which flow-mod.
#[derive(Debug, Clone, PartialEq)]
pub struct ReactionRule {
    /// The switch to install on.
    pub dpid: Dpid,
    /// The rule.
    pub flow_mod: FlowMod,
}

/// Priority used by mitigation rules (above every application).
pub const MITIGATION_PRIORITY: u16 = 60_000;

/// Plans and counts reactions.
#[derive(Debug, Clone, Default)]
pub struct ReactionManager {
    blocks: u64,
    quarantines: u64,
}

impl ReactionManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        ReactionManager::default()
    }

    /// `(blocks, quarantines)` issued so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.blocks, self.quarantines)
    }

    /// Plans the rules for a reaction. `locate` resolves a host to its
    /// access switch and port; `next_hop` gives the egress port from a
    /// switch *toward* a host (the honeynet path for quarantine — the
    /// honeypot usually sits on a different switch than the suspect).
    pub fn plan(
        &mut self,
        reaction: &Reaction,
        locate: impl Fn(Ipv4Addr) -> Option<(Dpid, PortNo)>,
        next_hop: impl Fn(Dpid, Ipv4Addr) -> Option<PortNo>,
    ) -> Vec<ReactionRule> {
        let mut rules = Vec::new();
        match reaction {
            Reaction::Block { targets } => {
                for t in targets {
                    let Some((dpid, _)) = locate(*t) else {
                        continue;
                    };
                    self.blocks += 1;
                    rules.push(ReactionRule {
                        dpid,
                        flow_mod: FlowMod::add(
                            MatchFields::new()
                                .with_eth_type(EtherType::Ipv4)
                                .with_ip_src(*t, 32),
                            MITIGATION_PRIORITY,
                            Vec::new(), // empty action list = drop
                        ),
                    });
                }
            }
            Reaction::Quarantine {
                targets,
                destination,
            } => {
                for t in targets {
                    let Some((dpid, _)) = locate(*t) else {
                        continue;
                    };
                    // Egress from the suspect's access switch toward the
                    // honeynet.
                    let Some(out_port) = next_hop(dpid, *destination) else {
                        continue;
                    };
                    self.quarantines += 1;
                    // Rewrite the destination to the honeynet and forward
                    // toward it; transit switches need matching rules too,
                    // so install the rewritten-destination path hop by hop.
                    rules.push(ReactionRule {
                        dpid,
                        flow_mod: FlowMod::add(
                            MatchFields::new()
                                .with_eth_type(EtherType::Ipv4)
                                .with_ip_src(*t, 32),
                            MITIGATION_PRIORITY,
                            vec![Action::SetIpDst(*destination), Action::Output(out_port)],
                        ),
                    });
                }
            }
        }
        rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn locate(ip: Ipv4Addr) -> Option<(Dpid, PortNo)> {
        // Hosts 10.0.0.x live on switch x.
        let o = ip.octets();
        (o[0] == 10).then(|| (Dpid::new(u64::from(o[3])), PortNo::new(4)))
    }

    // Toward any host: its access port when local, else the "uplink".
    fn next_hop(from: Dpid, dest: Ipv4Addr) -> Option<PortNo> {
        let (dst_switch, dst_port) = locate(dest)?;
        Some(if from == dst_switch {
            dst_port
        } else {
            PortNo::new(1)
        })
    }

    #[test]
    fn block_installs_drop_rules_at_access_switches() {
        let mut rm = ReactionManager::new();
        let reaction = Reaction::Block {
            targets: vec![Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)],
        };
        let rules = rm.plan(&reaction, locate, next_hop);
        assert_eq!(rules.len(), 2);
        for r in &rules {
            assert!(Action::is_drop(&r.flow_mod.actions));
            assert_eq!(r.flow_mod.priority, MITIGATION_PRIORITY);
        }
        assert_eq!(rules[0].dpid, Dpid::new(1));
        assert_eq!(rm.counters(), (2, 0));
    }

    #[test]
    fn quarantine_rewrites_to_honeynet() {
        let mut rm = ReactionManager::new();
        let honeypot = Ipv4Addr::new(10, 0, 0, 9);
        let reaction = Reaction::Quarantine {
            targets: vec![Ipv4Addr::new(10, 0, 0, 3)],
            destination: honeypot,
        };
        let rules = rm.plan(&reaction, locate, next_hop);
        assert_eq!(rules.len(), 1);
        assert!(rules[0]
            .flow_mod
            .actions
            .contains(&Action::SetIpDst(honeypot)));
        assert_eq!(rm.counters(), (0, 1));
    }

    #[test]
    fn unknown_hosts_are_skipped() {
        let mut rm = ReactionManager::new();
        let reaction = Reaction::Block {
            targets: vec![Ipv4Addr::new(192, 168, 0, 1)],
        };
        assert!(rm.plan(&reaction, locate, next_hop).is_empty());
        assert_eq!(rm.counters(), (0, 0));
    }
}
