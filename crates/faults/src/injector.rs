//! The fault injector: drives a [`FaultPlan`] against the live system
//! from the dataplane event loop.

use crate::chaos::FaultTarget;
use crate::plan::{FaultKind, FaultPlan};
use athena_dataplane::{ControllerLink, Engine, PuntDiscipline};
use athena_store::StoreCluster;
use athena_telemetry::{Counter, Telemetry};
use athena_types::SimTime;

/// Counters for applied fault events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Total events applied.
    pub injected: u64,
    /// Link down/degrade/restore events applied.
    pub link_events: u64,
    /// Switch reboots applied.
    pub switch_reboots: u64,
    /// Controller crash/rejoin events applied.
    pub controller_events: u64,
    /// Store node down/up transitions applied.
    pub store_events: u64,
    /// Message-fault profile changes applied.
    pub message_profile_changes: u64,
}

/// Applies a [`FaultPlan`]'s events to the network, control plane, and
/// (optionally) store as virtual time passes.
///
/// Drive it between ticks — [`run_with_faults`] does — so every tick sees
/// a consistent fault state; under a fixed plan seed the whole run is
/// deterministic.
pub struct FaultInjector {
    plan: FaultPlan,
    cursor: usize,
    store: Option<StoreCluster>,
    counters: FaultCounters,
    injected_tel: Counter,
    reboot_tel: Counter,
    controller_tel: Counter,
    profile_tel: Counter,
}

impl FaultInjector {
    /// Creates an injector over a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            cursor: 0,
            store: None,
            counters: FaultCounters::default(),
            injected_tel: Counter::detached(),
            reboot_tel: Counter::detached(),
            controller_tel: Counter::detached(),
            profile_tel: Counter::detached(),
        }
    }

    /// Attaches a store cluster handle (clones share state, so pass a
    /// clone of the one the system under test uses) for
    /// [`FaultKind::StoreNodeDown`]/[`FaultKind::StoreNodeUp`] events.
    pub fn with_store(mut self, store: StoreCluster) -> Self {
        self.store = Some(store);
        self
    }

    /// Routes the injector's `faults/*` counters into `tel`.
    pub fn bind_telemetry(&mut self, tel: &Telemetry) {
        use athena_telemetry::names;
        let m = tel.metrics();
        let sub = names::faults::SUBSYSTEM;
        self.injected_tel = m.counter(sub, names::faults::INJECTED);
        self.reboot_tel = m.counter(sub, names::faults::SWITCH_REBOOTS);
        self.controller_tel = m.counter(sub, names::faults::CONTROLLER_EVENTS);
        self.profile_tel = m.counter(sub, names::faults::MESSAGE_PROFILE_CHANGES);
    }

    /// The plan being driven.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters for events applied so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// `true` once every scheduled event has been applied.
    pub fn finished(&self) -> bool {
        self.cursor >= self.plan.events().len()
    }

    /// Applies every event due at or before `now`. Returns how many were
    /// applied.
    pub fn apply_due<P: PuntDiscipline, T: FaultTarget>(
        &mut self,
        now: SimTime,
        net: &mut Engine<P>,
        ctrl: &mut T,
    ) -> usize {
        let mut applied = 0;
        while let Some(ev) = self.plan.events().get(self.cursor) {
            if ev.at > now {
                break;
            }
            let kind = ev.kind;
            self.cursor += 1;
            applied += 1;
            self.counters.injected += 1;
            self.injected_tel.inc();
            match kind {
                FaultKind::LinkDown { a, b } => {
                    net.set_link_state(a, b, 0.0);
                    self.counters.link_events += 1;
                }
                FaultKind::LinkDegrade { a, b, factor } => {
                    net.set_link_state(a, b, factor);
                    self.counters.link_events += 1;
                }
                FaultKind::LinkRestore { a, b } => {
                    net.set_link_state(a, b, 1.0);
                    self.counters.link_events += 1;
                }
                FaultKind::SwitchReboot { dpid } => {
                    net.reboot_switch(dpid);
                    self.counters.switch_reboots += 1;
                    self.reboot_tel.inc();
                }
                FaultKind::ControllerCrash { instance } => {
                    ctrl.crash(instance);
                    self.counters.controller_events += 1;
                    self.controller_tel.inc();
                }
                FaultKind::ControllerRejoin { instance } => {
                    ctrl.rejoin(instance);
                    self.counters.controller_events += 1;
                    self.controller_tel.inc();
                }
                FaultKind::StoreNodeDown { node } => {
                    if let Some(store) = &self.store {
                        store.set_node_up(node, false);
                    }
                    self.counters.store_events += 1;
                }
                FaultKind::StoreNodeUp { node } => {
                    if let Some(store) = &self.store {
                        store.set_node_up(node, true);
                    }
                    self.counters.store_events += 1;
                }
                FaultKind::MessageFaults { profile } => {
                    ctrl.set_message_faults(profile);
                    self.counters.message_profile_changes += 1;
                    self.profile_tel.inc();
                }
            }
        }
        applied
    }
}

/// Runs the simulation to `until`, applying due fault events before each
/// tick — the chaos-matrix main loop. Equivalent to
/// [`Engine::run_until`] plus fault injection (gauges are flushed at the
/// end, as `run_until` does).
pub fn run_with_faults<P: PuntDiscipline, C: ControllerLink + FaultTarget>(
    net: &mut Engine<P>,
    until: SimTime,
    ctrl: &mut C,
    injector: &mut FaultInjector,
) {
    while net.now() < until {
        injector.apply_due(net.now(), net, ctrl);
        net.step(ctrl);
    }
    injector.apply_due(net.now(), net, ctrl);
    net.flush_gauges();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosChannel;
    use crate::plan::{MessageFaultProfile, Scenario};
    use athena_controller::ControllerCluster;
    use athena_dataplane::{workload, Network, Topology};
    use athena_types::{ControllerId, SimDuration};

    fn harness() -> (Network, ControllerCluster, Topology) {
        let topo = Topology::enterprise();
        let net = Network::new(topo.clone());
        let cluster = ControllerCluster::new(&topo);
        (net, cluster, topo)
    }

    #[test]
    fn events_apply_at_their_scheduled_times() {
        let (mut net, mut cluster, _) = harness();
        let plan = FaultPlan::new(1)
            .at(
                SimTime::from_secs(3),
                FaultKind::ControllerCrash {
                    instance: ControllerId::new(0),
                },
            )
            .at(
                SimTime::from_secs(6),
                FaultKind::ControllerRejoin {
                    instance: ControllerId::new(0),
                },
            );
        let mut inj = FaultInjector::new(plan);
        while net.now() < SimTime::from_secs(4) {
            inj.apply_due(net.now(), &mut net, &mut cluster);
            net.step(&mut cluster);
        }
        assert!(!cluster.instance_alive(ControllerId::new(0)));
        assert!(!inj.finished());
        run_with_faults(&mut net, SimTime::from_secs(8), &mut cluster, &mut inj);
        assert!(cluster.instance_alive(ControllerId::new(0)));
        assert!(inj.finished());
        assert_eq!(inj.counters().controller_events, 2);
        assert_eq!(inj.counters().injected, 2);
    }

    #[test]
    fn link_and_switch_events_reach_the_dataplane() {
        let (mut net, mut cluster, topo) = harness();
        net.inject_flows(workload::benign_mix_on(
            &topo,
            40,
            SimDuration::from_secs(20),
            11,
        ));
        let plan =
            Scenario::SwitchReboot.plan(&topo, 0, 5, SimTime::from_secs(6), SimTime::from_secs(12));
        let mut inj = FaultInjector::new(plan);
        run_with_faults(&mut net, SimTime::from_secs(10), &mut cluster, &mut inj);
        assert_eq!(inj.counters().switch_reboots, 1);
        assert!(net.delivered_bytes() > 0);
    }

    #[test]
    fn store_events_flip_node_state_through_the_shared_handle() {
        let (mut net, mut cluster, _) = harness();
        let store = StoreCluster::new(3, 2);
        let plan = FaultPlan::new(2)
            .at(SimTime::from_secs(2), FaultKind::StoreNodeDown { node: 1 })
            .at(SimTime::from_secs(5), FaultKind::StoreNodeUp { node: 1 });
        let mut inj = FaultInjector::new(plan).with_store(store.clone());
        run_with_faults(&mut net, SimTime::from_secs(3), &mut cluster, &mut inj);
        assert!(!store.node_is_up(1));
        run_with_faults(&mut net, SimTime::from_secs(6), &mut cluster, &mut inj);
        assert!(store.node_is_up(1));
        assert_eq!(inj.counters().store_events, 2);
    }

    #[test]
    fn message_profile_events_reach_the_chaos_channel() {
        let tel = Telemetry::new();
        let (mut net, cluster, topo) = harness();
        let mut chaos = ChaosChannel::new(cluster, 13);
        chaos.bind_telemetry(&tel);
        net.inject_flows(workload::benign_mix_on(
            &topo,
            40,
            SimDuration::from_secs(12),
            13,
        ));
        let plan = FaultPlan::new(13)
            .at(
                SimTime::from_secs(3),
                FaultKind::MessageFaults {
                    profile: MessageFaultProfile::drops(0.5),
                },
            )
            .at(
                SimTime::from_secs(9),
                FaultKind::MessageFaults {
                    profile: MessageFaultProfile::none(),
                },
            );
        let mut inj = FaultInjector::new(plan);
        inj.bind_telemetry(&tel);
        run_with_faults(&mut net, SimTime::from_secs(12), &mut chaos, &mut inj);
        assert!(chaos.counters().dropped > 0, "no drops recorded");
        assert!(chaos.profile().is_none(), "profile not cleared");
        let m = tel.metrics();
        assert_eq!(m.counter("faults", "message_profile_changes").get(), 2);
        assert_eq!(m.counter("faults", "injected").get(), 2);
        assert_eq!(
            m.counter("faults", "msgs_dropped").get(),
            chaos.counters().dropped
        );
    }

    #[test]
    fn whole_run_is_deterministic_under_a_seed() {
        let run = || {
            let topo = Topology::enterprise();
            let mut net = Network::new(topo.clone());
            let cluster = ControllerCluster::new(&topo);
            let mut chaos = ChaosChannel::new(cluster, 21);
            net.inject_flows(workload::benign_mix_on(
                &topo,
                60,
                SimDuration::from_secs(15),
                21,
            ));
            let plan = Scenario::MessageDrop.plan(
                &topo,
                0,
                21,
                SimTime::from_secs(4),
                SimTime::from_secs(10),
            );
            let mut inj = FaultInjector::new(plan);
            run_with_faults(&mut net, SimTime::from_secs(15), &mut chaos, &mut inj);
            (
                net.counters(),
                chaos.counters(),
                chaos.inner().counters(),
                inj.counters(),
            )
        };
        assert_eq!(run(), run());
    }
}
