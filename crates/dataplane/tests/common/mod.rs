//! The engine digest shared by `golden_engine.rs`, `proptest_plan.rs`
//! and — through `#[path]`, because a `ControllerCluster` scenario cannot
//! live in this crate without a dependency cycle — the root suite's
//! `tests/e2e_wire_mode.rs`.
//!
//! One string per run that moves if anything an engine can show moves:
//! the counters, every message that crossed the control channel in either
//! direction (xids included, so the order punts and FLOW_REMOVEDs were
//! issued in is pinned too), every switch's flow and port statistics, and
//! every link's delivered and dropped bytes.
#![allow(dead_code)]

use athena_dataplane::{ControllerLink, Engine, PuntDiscipline};
use athena_openflow::{MatchFields, OfMessage, StatsRequest};
use athena_types::{Dpid, PortNo, SimTime};

/// FNV-1a over the `Debug` text of whatever is written to it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, text: &str) {
        for b in text.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Wraps a controller and hashes the whole conversation: each southbound
/// message as it arrives, each command batch as it is returned.
pub struct Recorder<C> {
    pub inner: C,
    wire: Fnv,
}

impl<C> Recorder<C> {
    pub fn new(inner: C) -> Self {
        Recorder {
            inner,
            wire: Fnv::default(),
        }
    }

    fn sent(&mut self, cmds: &[(Dpid, OfMessage)]) {
        for (dpid, msg) in cmds {
            self.wire.write(&format!("<{}{msg:?}", dpid.raw()));
        }
    }
}

impl<C: ControllerLink> ControllerLink for Recorder<C> {
    fn on_message(&mut self, from: Dpid, msg: OfMessage, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        self.wire.write(&format!(">{}{msg:?}", from.raw()));
        let cmds = self.inner.on_message(from, msg, now);
        self.sent(&cmds);
        cmds
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        let cmds = self.inner.on_tick(now);
        self.sent(&cmds);
        cmds
    }
}

/// The run's digest: readable counters, then the conversation and state
/// hashes.
pub fn digest<P: PuntDiscipline, C>(net: &Engine<P>, ctrl: &Recorder<C>) -> String {
    let mut state = Fnv::default();
    let now = net.now();
    for s in &net.topology().switches {
        let Some(sw) = net.switch(s.dpid) else {
            continue;
        };
        let flows = sw.stats(
            &StatsRequest::Flow {
                filter: MatchFields::new(),
            },
            now,
        );
        let ports = sw.stats(
            &StatsRequest::Port {
                port_no: PortNo::ANY,
            },
            now,
        );
        state.write(&format!("{}{flows:?}{ports:?}", s.dpid.raw()));
    }
    for l in net.links() {
        state.write(&format!(
            "{:?}{}/{}",
            l.id,
            l.delivered_bytes(),
            l.dropped_bytes()
        ));
    }
    format!(
        "{:?}|active={}|wire={:016x}|state={:016x}",
        net.counters(),
        net.active_flows().len(),
        ctrl.wire.0,
        state.0
    )
}
