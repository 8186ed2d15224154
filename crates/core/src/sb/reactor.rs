//! The Attack Reactor (paper §III-A 1D): mitigation enforcement.
//!
//! Translates queued [`Reaction`]s into flow rules and hands them to the
//! Athena Proxy (the interceptor command path), "to avoid consistency
//! issues that might arise from issuing control messages to the data
//! plane without involving the controller".

use crate::nb::reaction_manager::{Reaction, ReactionManager};
use athena_openflow::{FlowMod, OfMessage};
use athena_types::{AppId, Dpid, Ipv4Addr, PortNo, Xid};
use std::collections::HashSet;

/// The application id mitigation rules are attributed to.
pub const ATHENA_APP: AppId = AppId::new(9);

/// Queues reactions and emits their flow rules through the proxy.
#[derive(Debug, Default)]
pub struct AttackReactor {
    manager: ReactionManager,
    queue: Vec<Reaction>,
    already_mitigated: HashSet<Ipv4Addr>,
    rules_issued: u64,
}

impl AttackReactor {
    /// Creates an empty reactor.
    pub fn new() -> Self {
        AttackReactor::default()
    }

    /// Queues a reaction. Hosts already mitigated are filtered out so a
    /// chatty validator does not reinstall rules every event.
    pub fn enqueue(&mut self, reaction: Reaction) {
        let fresh: Vec<Ipv4Addr> = reaction
            .targets()
            .iter()
            .filter(|t| !self.already_mitigated.contains(t))
            .copied()
            .collect();
        if fresh.is_empty() {
            return;
        }
        self.already_mitigated.extend(fresh.iter().copied());
        let filtered = match reaction {
            Reaction::Block { .. } => Reaction::Block { targets: fresh },
            Reaction::Quarantine { destination, .. } => Reaction::Quarantine {
                targets: fresh,
                destination,
            },
        };
        self.queue.push(filtered);
    }

    /// Hosts mitigated so far.
    pub fn mitigated_hosts(&self) -> Vec<Ipv4Addr> {
        let mut v: Vec<Ipv4Addr> = self.already_mitigated.iter().copied().collect();
        v.sort();
        v
    }

    /// `(blocks, quarantines)` counters.
    pub fn counters(&self) -> (u64, u64) {
        self.manager.counters()
    }

    /// Drains the queue into proxy commands, resolving host locations
    /// with `locate` and honeynet paths with `next_hop`.
    pub fn drain(
        &mut self,
        locate: impl Fn(Ipv4Addr) -> Option<(Dpid, PortNo)> + Copy,
        next_hop: impl Fn(Dpid, Ipv4Addr) -> Option<PortNo> + Copy,
    ) -> Vec<(Dpid, OfMessage)> {
        let mut out = Vec::new();
        for reaction in self.queue.drain(..) {
            for rule in self.manager.plan(&reaction, locate, next_hop) {
                self.rules_issued += 1;
                let fm: FlowMod = rule.flow_mod.with_app(ATHENA_APP);
                out.push((
                    rule.dpid,
                    OfMessage::FlowMod {
                        xid: Xid::athena_marked(self.rules_issued as u32),
                        body: fm,
                    },
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn locate(ip: Ipv4Addr) -> Option<(Dpid, PortNo)> {
        Some((Dpid::new(u64::from(ip.octets()[3])), PortNo::new(1)))
    }

    fn next_hop(_from: Dpid, _dest: Ipv4Addr) -> Option<PortNo> {
        Some(PortNo::new(9))
    }

    #[test]
    fn enqueue_then_drain_emits_attributed_rules() {
        let mut r = AttackReactor::new();
        r.enqueue(Reaction::Block {
            targets: vec![Ipv4Addr::new(10, 0, 0, 1)],
        });
        let cmds = r.drain(locate, next_hop);
        assert_eq!(cmds.len(), 1);
        let OfMessage::FlowMod { body, xid } = &cmds[0].1 else {
            panic!("expected flow mod");
        };
        assert_eq!(body.app_id(), ATHENA_APP);
        assert!(xid.is_athena_marked());
        assert_eq!(r.rules_issued, 1);
        // Queue is drained.
        assert!(r.drain(locate, next_hop).is_empty());
    }

    #[test]
    fn duplicate_targets_are_mitigated_once() {
        let mut r = AttackReactor::new();
        let block = Reaction::Block {
            targets: vec![Ipv4Addr::new(10, 0, 0, 2)],
        };
        r.enqueue(block.clone());
        r.enqueue(block);
        assert_eq!(r.drain(locate, next_hop).len(), 1);
        assert_eq!(r.mitigated_hosts().len(), 1);
    }

    #[test]
    fn mixed_reactions_count_separately() {
        let mut r = AttackReactor::new();
        r.enqueue(Reaction::Block {
            targets: vec![Ipv4Addr::new(10, 0, 0, 1)],
        });
        r.enqueue(Reaction::Quarantine {
            targets: vec![Ipv4Addr::new(10, 0, 0, 2)],
            destination: Ipv4Addr::new(10, 0, 0, 9),
        });
        let cmds = r.drain(locate, next_hop);
        assert_eq!(cmds.len(), 2);
        assert_eq!(r.counters(), (1, 1));
    }
}
