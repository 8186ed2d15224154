//! The seam Athena's southbound element hooks into.
//!
//! The paper modifies ONOS's `OpenFlowController` "to get OpenFlow control
//! messages directly" and uses proxy stubs "that work like general network
//! applications" for issuing mitigation rules. [`MessageInterceptor`] is
//! that seam: interceptors observe every southbound message *after* the
//! controller's own processing, and whatever commands they return flow
//! through the normal command path (the Athena Proxy), so the controller's
//! internal state stays consistent.

use crate::services::{FlowRuleService, HostService, MastershipService};
use athena_dataplane::Routes;
use athena_openflow::OfMessage;
use athena_types::{ControllerId, Dpid, SimTime};

/// Read access to controller state for interceptors.
pub struct InterceptCtx<'a> {
    /// The controller instance the message arrived at.
    pub controller: ControllerId,
    /// The cluster's flow-rule bookkeeping (per-app attribution).
    pub flow_rules: &'a FlowRuleService,
    /// Host locations.
    pub hosts: &'a HostService,
    /// Switch mastership.
    pub mastership: &'a MastershipService,
    /// Shortest paths over the topology view.
    pub paths: &'a Routes,
}

/// An observer of the southbound message stream (Athena's SB interface).
pub trait MessageInterceptor: Send {
    /// The interceptor's name.
    fn name(&self) -> &str;

    /// Observes one southbound message. Returned commands are applied to
    /// the data plane through the controller (the Athena Proxy path).
    fn on_southbound(
        &mut self,
        ctx: &InterceptCtx<'_>,
        from: Dpid,
        msg: &OfMessage,
        now: SimTime,
    ) -> Vec<(Dpid, OfMessage)>;

    /// Called once per simulation tick; may issue commands (e.g. Athena's
    /// own marked statistics requests).
    fn on_tick(&mut self, ctx: &InterceptCtx<'_>, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        let (_, _) = (ctx, now);
        Vec::new()
    }
}

/// An interceptor that counts messages — useful for tests and as the
/// trivial example of the seam.
#[derive(Debug, Default)]
pub struct CountingInterceptor {
    /// Messages observed.
    pub seen: u64,
}

impl MessageInterceptor for CountingInterceptor {
    fn name(&self) -> &str {
        "counting"
    }

    fn on_southbound(
        &mut self,
        _ctx: &InterceptCtx<'_>,
        _from: Dpid,
        _msg: &OfMessage,
        _now: SimTime,
    ) -> Vec<(Dpid, OfMessage)> {
        self.seen += 1;
        Vec::new()
    }
}
