//! Table IX — Cbench flow-install throughput with and without Athena,
//! over 50 rounds.
//!
//! The paper reports (responses/s): without Athena avg 831,366; with
//! Athena avg 389,584 (53.13 % overhead); with Athena but no DB
//! operations avg 658,514 (20.79 % overhead) — pinning the cost on the
//! MongoDB publication path. This harness runs the same three
//! configurations through the in-process Cbench driver; absolute rates
//! differ from the paper's Xeon testbed, but the ordering and overhead
//! magnitudes are the measured quantities.

use athena_bench::{compare_row, header, pct};
use athena_controller::cbench::{summarize, throughput_round, CbenchResponder, CbenchRound};
use athena_controller::ControllerCluster;
use athena_core::{Athena, AthenaConfig};
use athena_dataplane::Topology;
use athena_telemetry::Telemetry;
use athena_types::env_usize;

#[derive(Clone, Copy)]
enum Config {
    Without,
    WithDb,
    NoDb,
}

/// One configuration, measured over `rounds` rounds. Every round gets a
/// fresh deployment so the in-memory store stays at steady-state size —
/// the analogue of MongoDB's flat per-insert cost (it pages to disk; our
/// substitute would otherwise accumulate millions of documents across
/// rounds and measure allocator pressure instead of write cost).
fn run_rounds(
    topo: &Topology,
    config: Config,
    rounds: usize,
    events: u64,
    tel: &Telemetry,
) -> Vec<CbenchRound> {
    (0..rounds)
        .map(|i| {
            let athena = match config {
                Config::Without => None,
                Config::WithDb => {
                    Some(Athena::with_telemetry(AthenaConfig::default(), tel.clone()))
                }
                Config::NoDb => Some(Athena::with_telemetry(
                    AthenaConfig {
                        store_enabled: false,
                        ..AthenaConfig::default()
                    },
                    tel.clone(),
                )),
            };
            let mut cluster = ControllerCluster::bare(topo);
            cluster.add_processor(Box::new(CbenchResponder));
            if let Some(a) = &athena {
                a.attach(&mut cluster);
            }
            throughput_round(&mut cluster, events, 1000 + i as u64)
        })
        .collect()
}

fn main() {
    println!(
        "{}",
        header("Table IX — Cbench flow-install throughput (responses/s)")
    );
    let rounds = env_usize("ATHENA_CBENCH_ROUNDS", 50);
    let events = env_usize("ATHENA_CBENCH_EVENTS", 20_000) as u64;
    println!("{rounds} rounds x {events} packet-ins (ATHENA_CBENCH_ROUNDS/_EVENTS)\n");
    let topo = Topology::enterprise();
    // One telemetry handle aggregates every Athena-enabled round; its
    // enabled-path cost is a few atomic ops per record, identical in the
    // with-DB and no-DB configurations, so the overhead ratios stand.
    let tel = Telemetry::new();

    // 1. Baseline: the bare controller.
    let without = summarize(&run_rounds(&topo, Config::Without, rounds, events, &tel));
    // 2. With Athena (features published to the store cluster).
    let with_db = summarize(&run_rounds(&topo, Config::WithDb, rounds, events, &tel));
    // 3. With Athena, DB publication disabled.
    let no_db = summarize(&run_rounds(&topo, Config::NoDb, rounds, events, &tel));

    println!("{:<16} {:>12} {:>12} {:>12}", "", "MIN", "MAX", "AVG");
    for (label, s) in [
        ("Without", &without),
        ("With", &with_db),
        ("With (no DB)", &no_db),
    ] {
        println!(
            "{label:<16} {:>12.0} {:>12.0} {:>12.0}",
            s.min, s.max, s.avg
        );
    }
    let overhead_db = 1.0 - with_db.avg / without.avg;
    let overhead_nodb = 1.0 - no_db.avg / without.avg;
    println!(
        "{:<16} {:>12} {:>12} {:>12}",
        "Overhead",
        pct(1.0 - with_db.min / without.min),
        pct(1.0 - with_db.max / without.max),
        pct(overhead_db),
    );
    println!(
        "{:<16} {:>12} {:>12} {:>12}\n",
        "(no DB)",
        pct(1.0 - no_db.min / without.min),
        pct(1.0 - no_db.max / without.max),
        pct(overhead_nodb),
    );

    println!("{}", header("paper vs measured"));
    println!(
        "{}",
        compare_row(
            "Without Athena (avg rps)",
            "831,366",
            &format!("{:.0}", without.avg),
        )
    );
    println!(
        "{}",
        compare_row(
            "With Athena (avg rps)",
            "389,584",
            &format!("{:.0}", with_db.avg),
        )
    );
    println!(
        "{}",
        compare_row(
            "With, no DB (avg rps)",
            "658,514",
            &format!("{:.0}", no_db.avg),
        )
    );
    println!(
        "{}",
        compare_row("Avg overhead (with DB)", "53.13%", &pct(overhead_db))
    );
    println!(
        "{}",
        compare_row("Avg overhead (no DB)", "20.79%", &pct(overhead_nodb))
    );

    assert!(
        without.avg > no_db.avg && no_db.avg > with_db.avg,
        "ordering must hold: without > no-db > with-db"
    );
    // The paper's discussion: "the performance overhead of our system
    // primarily originates from MongoDB related operations". In
    // time-per-event terms: the DB's share of Athena's added latency.
    let t_without = 1.0 / without.avg;
    let t_with = 1.0 / with_db.avg;
    let t_nodb = 1.0 / no_db.avg;
    let db_share = (t_with - t_nodb) / (t_with - t_without);
    println!(
        "\nDB operations account for {:.0}% of Athena's added per-event latency",
        db_share * 100.0
    );
    assert!(
        db_share > 0.5,
        "DB publication must dominate the overhead (paper: primary source)"
    );
    println!("shape verified: without > no-DB > with-DB; DB operations dominate the overhead");
    println!("\n{}", tel.report().render());
}
