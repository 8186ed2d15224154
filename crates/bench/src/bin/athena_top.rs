//! `athena-top` — the health view of a full Athena deployment under
//! chaos, plus the observe-layer overhead sweep.
//!
//! Runs the chaos-matrix DDoS scenario (controller crash at 10 s,
//! rejoin at 20 s) with the observe pipeline bound everywhere, printing
//! the live health table (series, rates, firing alerts) every 5 virtual
//! seconds — a `top` for the simulated SDN. Then sweeps
//! `ATHENA_THREADS` ∈ {1, 2, 4, 8}, timing each width with the observe
//! layer off and on; simulated outcomes and the deterministic alert
//! stream must be byte-identical at every width. Results land in
//! `BENCH_obs.json` (override `ATHENA_OBS_JSON`) and the final health
//! report in `target/observe-report.json`.
//!
//! Set `ATHENA_BENCH_SMOKE=1` for the <60 s CI workload.

use athena_bench::header;
use athena_controller::ControllerCluster;
use athena_core::{Athena, AthenaConfig};
use athena_dataplane::{workload, Network, Topology};
use athena_faults::{run_with_faults, ChaosChannel, FaultInjector, Scenario};
use athena_observe::Observe;
use athena_telemetry::Telemetry;
use athena_types::{SimDuration, SimTime};
use std::time::Instant;

const SEED: u64 = 7;
const INJECT_AT: SimTime = SimTime::from_secs(10);
const RECOVER_AT: SimTime = SimTime::from_secs(20);
const END: SimTime = SimTime::from_secs(35);
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn smoke() -> bool {
    athena_types::env_flag("ATHENA_BENCH_SMOKE")
}

fn scaled(n: usize) -> usize {
    if smoke() {
        n / 2
    } else {
        n
    }
}

/// Deterministic outcome of one run: store contents plus (when observed)
/// the rendered deterministic alert stream and trace-id sequence.
struct Outcome {
    digest: String,
    alerts: String,
    wall_ms: f64,
    obs: Option<Observe>,
}

/// One chaos run. `observe` binds the full observe pipeline; `live`
/// prints the health table every 5 virtual seconds while running.
fn run_once(observe: bool, live: bool) -> Outcome {
    let tel = if observe {
        Telemetry::new()
    } else {
        Telemetry::off()
    };
    let obs = if observe {
        Observe::with_telemetry(SEED, &tel)
    } else {
        Observe::disabled()
    };
    let topo = Topology::enterprise();
    let mut net = Network::new(topo.clone());
    net.bind_telemetry(&tel);
    net.bind_observe(&obs);
    let mut cluster = ControllerCluster::new(&topo);
    let athena = Athena::with_observe(AthenaConfig::default(), tel.clone(), obs.clone());
    athena.attach(&mut cluster);
    let mut chaos = ChaosChannel::new(cluster, SEED);
    chaos.bind_telemetry(&tel);
    chaos.bind_observe(&obs);

    let victim = topo.hosts[0].ip;
    net.inject_flows(workload::benign_mix_on(
        &topo,
        scaled(120),
        SimDuration::from_secs(30),
        101,
    ));
    net.inject_flows(workload::ddos_flood(
        &topo,
        victim,
        workload::DdosParams {
            start: SimTime::from_secs(8),
            duration: SimDuration::from_secs(22),
            n_flows: scaled(250),
            ..workload::DdosParams::default()
        },
        102,
    ));

    let store_nodes = athena.runtime().store.node_count();
    let plan = Scenario::ControllerCrash.plan(&topo, store_nodes, SEED, INJECT_AT, RECOVER_AT);
    let mut injector = FaultInjector::new(plan).with_store(athena.runtime().store.clone());
    injector.bind_telemetry(&tel);

    let t0 = Instant::now();
    while net.now() < END {
        let next = (net.now() + SimDuration::from_secs(5)).min(END);
        run_with_faults(&mut net, next, &mut chaos, &mut injector);
        if live {
            println!("{}", obs.report().render());
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(injector.finished(), "fault events left unapplied");

    let alerts = obs
        .deterministic_alert_events()
        .iter()
        .map(|e| e.render())
        .collect::<Vec<_>>()
        .join("\n");
    Outcome {
        digest: athena.runtime().store.contents(),
        alerts,
        wall_ms,
        obs: if observe { Some(obs) } else { None },
    }
}

fn main() {
    println!(
        "{}",
        header("athena-top — chaos health view + observe overhead at 1/2/4/8 workers")
    );

    // The live view: one observed run at the default job width,
    // printing the health table every 5 virtual seconds.
    println!("-- live health (controller crash at 10s, rejoin at 20s) --\n");
    let live = run_once(true, true);
    let live_obs = live.obs.as_ref().expect("observed run");
    std::fs::create_dir_all("target").expect("create target/");
    live_obs
        .report()
        .save_json("target/observe-report.json")
        .expect("write observe-report.json");
    println!("wrote target/observe-report.json");

    // The overhead sweep: off vs on at every job width.
    let mut rows = Vec::new();
    let mut baseline_digest: Option<String> = None;
    let mut baseline_alerts: Option<String> = None;
    for &w in &WIDTHS {
        std::env::set_var("ATHENA_THREADS", w.to_string());
        let off = run_once(false, false);
        let on = run_once(true, false);
        std::env::remove_var("ATHENA_THREADS");
        // Byte-identity: the observe layer changes nothing simulated,
        // and neither does the job width.
        assert_eq!(
            off.digest, on.digest,
            "observe layer changed simulated outcomes at width {w}"
        );
        match &baseline_digest {
            None => baseline_digest = Some(on.digest),
            Some(b) => assert_eq!(*b, on.digest, "outcomes diverged at width {w}"),
        }
        match &baseline_alerts {
            None => baseline_alerts = Some(on.alerts),
            Some(b) => assert_eq!(*b, on.alerts, "alert stream diverged at width {w}"),
        }
        let overhead = on.wall_ms / off.wall_ms.max(1e-9);
        rows.push((w, off.wall_ms, on.wall_ms, overhead));
    }

    println!(
        "\n{:>7} {:>10} {:>10} {:>9}",
        "workers", "off ms", "on ms", "overhead"
    );
    for (w, off_ms, on_ms, overhead) in &rows {
        println!("{w:>7} {off_ms:>10.1} {on_ms:>10.1} {overhead:>8.3}x");
    }
    assert!(
        !baseline_alerts.unwrap_or_default().is_empty(),
        "the chaos run must produce deterministic alert transitions"
    );

    let json_path =
        std::env::var("ATHENA_OBS_JSON").unwrap_or_else(|_| "BENCH_obs.json".to_owned());
    let body = rows
        .iter()
        .map(|(w, off_ms, on_ms, overhead)| {
            format!(
                "    {{\"workers\": {w}, \"off_ms\": {off_ms:.3}, \"on_ms\": {on_ms:.3}, \
                 \"overhead\": {overhead:.4}}}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let report = live_obs.report();
    let json = format!(
        "{{\n  \"scenario\": \"controller-crash\",\n  \"seed\": {SEED},\n  \
         \"traces\": {},\n  \"spans\": {},\n  \"alerts\": {},\n  \"rows\": [\n{body}\n  ]\n}}\n",
        report.traces,
        report.spans,
        report.alerts.len(),
    );
    std::fs::write(&json_path, json).expect("write BENCH_obs.json");
    println!("\nwrote {json_path}");
    println!("verified: outcomes and deterministic alert streams byte-identical at all widths");
}
