//! Figure 9 — the NAE analysis: per-switch packet counts over time while
//! the LB app and the security app compete. The paper's figure shows a
//! sawtooth (soft-timeout expiry) until the security app activates, then
//! the takeover: the waypoint switch saturates while the balanced path
//! starves.

use athena_apps::NaeMonitor;
use athena_bench::{compare_row, header};
use athena_controller::apps::{LoadBalancer, SecurityApp};
use athena_controller::ControllerCluster;
use athena_core::{Athena, AthenaConfig};
use athena_dataplane::{FlowSpec, Network, Topology};
use athena_types::{Dpid, FiveTuple, Ipv4Addr, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const ACTIVATE_AT: u64 = 120;
const RUN_FOR: u64 = 240;

fn main() {
    println!(
        "{}",
        header("Figure 9 — NAE: per-switch packet counts, LB vs security app")
    );
    let topo = Topology::nae();
    let mut net = Network::new(topo.clone());
    let mut cluster = ControllerCluster::new(&topo);
    cluster.add_processor(Box::new(LoadBalancer::new((
        Ipv4Addr::new(10, 0, 4, 0),
        24,
    ))));
    cluster.add_processor(Box::new(
        SecurityApp::new(Dpid::new(6)).activate_at(SimTime::from_secs(ACTIVATE_AT)),
    ));
    let athena = Athena::new(AthenaConfig::default());
    athena.attach(&mut cluster);
    let monitor = NaeMonitor::new();
    monitor.deploy(&athena);

    // FTP-dominated client traffic ("the network is dominated by FTP
    // flows"), arriving continuously.
    let ftp = Ipv4Addr::new(10, 0, 4, 1);
    let web = Ipv4Addr::new(10, 0, 4, 2);
    let mut rng = StdRng::seed_from_u64(41);
    let mut flows = Vec::new();
    for t in (0..RUN_FOR - 10).step_by(2) {
        // Clients behind S1 only: both candidate paths (via S3 and via
        // S6) are available to them, so the LB can actually balance.
        let client = topo.hosts[rng.random_range(0..4)].ip;
        let (server, port) = if rng.random_range(0.0..1.0) < 0.8 {
            (ftp, 21)
        } else {
            (web, 80)
        };
        flows.push(
            FlowSpec::new(
                FiveTuple::tcp(client, rng.random_range(30_000..60_000), server, port),
                SimTime::from_secs(t),
                SimDuration::from_secs(8),
                4_000_000,
            )
            .bidirectional(0.1),
        );
    }
    net.inject_flows(flows);
    net.run_until(SimTime::from_secs(RUN_FOR), &mut cluster);

    let series = monitor.series();
    println!(
        "{}",
        athena.show_series("per-switch packet counts (S3 vs S6)", &series)
    );
    println!("CSV:\n{}", athena.ui().to_csv(&series));

    // Quantify the takeover: mean per-sample packet share of S6 before
    // and after activation.
    let violations = monitor.check_sla();
    let share = |from: u64, to: u64| -> (f64, f64) {
        let mut s3 = 0.0;
        let mut s6 = 0.0;
        for (label, pts) in &series {
            for (t, v) in pts {
                if *t >= from as f64 && *t < to as f64 {
                    if label.contains("003") {
                        s3 += v;
                    } else {
                        s6 += v;
                    }
                }
            }
        }
        (s3, s6)
    };
    let (b3, b6) = share(10, ACTIVATE_AT);
    let (a3, a6) = share(ACTIVATE_AT, RUN_FOR);
    let before_ratio = b6 / (b3 + b6).max(1.0);
    let after_ratio = a6 / (a3 + a6).max(1.0);

    println!("{}", header("paper vs measured"));
    println!(
        "{}",
        compare_row(
            "Before activation",
            "balanced across S3/S6 (sawtooth)",
            &format!("S6 share {:.0}%", before_ratio * 100.0),
        )
    );
    println!(
        "{}",
        compare_row(
            "After activation (03:58 in paper)",
            "security app takes over; S3 starves",
            &format!("S6 share {:.0}%", after_ratio * 100.0),
        )
    );
    println!(
        "{}",
        compare_row(
            "SLA violations detected",
            "alerted via Athena UI manager",
            &format!(
                "{} (first at {:?}s)",
                violations.len(),
                violations.first().map(|v| v.at.as_secs_f64())
            ),
        )
    );

    assert!(
        before_ratio > 0.3 && before_ratio < 0.7,
        "pre-activation should be roughly balanced: {before_ratio}"
    );
    assert!(
        after_ratio > 0.8,
        "post-activation S6 must dominate: {after_ratio}"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.at >= SimTime::from_secs(ACTIVATE_AT)),
        "SLA violations must appear after activation"
    );
    println!("\nshape verified: balanced -> takeover at t={ACTIVATE_AT}s, SLA alarms raised");
}
