//! Ablation: the feature store's design knobs vs Athena's control-plane
//! overhead (the design choice behind Table IX and the paper's §VII-C
//! discussion, which proposes "replacing MongoDB with a high-performance
//! database like Cassandra").
//!
//! Sweeps the replication factor and store-cluster size and measures the
//! resulting Cbench throughput, quantifying how much of the overhead is
//! durability (replication), how much is the write path itself, and what
//! the no-DB ceiling is.

use athena_bench::{header, pct};
use athena_controller::cbench::{summarize, throughput_round, CbenchResponder};
use athena_controller::ControllerCluster;
use athena_core::{Athena, AthenaConfig};
use athena_dataplane::Topology;
use athena_telemetry::Telemetry;
use athena_types::env_usize;

fn measure(
    topo: &Topology,
    config: Option<AthenaConfig>,
    rounds: usize,
    events: u64,
    tel: &Telemetry,
) -> f64 {
    let rounds: Vec<_> = (0..rounds)
        .map(|i| {
            let athena = config.map(|c| Athena::with_telemetry(c, tel.clone()));
            let mut cluster = ControllerCluster::bare(topo);
            cluster.add_processor(Box::new(CbenchResponder));
            if let Some(a) = &athena {
                a.attach(&mut cluster);
            }
            throughput_round(&mut cluster, events, 500 + i as u64)
        })
        .collect();
    summarize(&rounds).avg
}

fn main() {
    println!(
        "{}",
        header("Ablation — store design vs control-plane throughput")
    );
    let rounds = env_usize("ATHENA_ABLATION_ROUNDS", 10);
    let events = env_usize("ATHENA_ABLATION_EVENTS", 10_000) as u64;
    let topo = Topology::enterprise();
    let tel = Telemetry::new();

    let baseline = measure(&topo, None, rounds, events, &tel);
    println!("bare controller: {baseline:.0} responses/s\n");
    println!(
        "{:<34} {:>14} {:>12}",
        "configuration", "responses/s", "overhead"
    );

    let mut rows: Vec<(String, f64)> = Vec::new();
    // No-DB ceiling.
    rows.push((
        "feature extraction only (no DB)".into(),
        measure(
            &topo,
            Some(AthenaConfig {
                store_enabled: false,
                ..AthenaConfig::default()
            }),
            rounds,
            events,
            &tel,
        ),
    ));
    // Replication sweep on 3 nodes.
    for repl in [1usize, 2, 3] {
        rows.push((
            format!("3-node store, replication {repl}"),
            measure(
                &topo,
                Some(AthenaConfig {
                    store_nodes: 3,
                    store_replication: repl,
                    ..AthenaConfig::default()
                }),
                rounds,
                events,
                &tel,
            ),
        ));
    }
    // Cluster-size sweep at replication 2.
    for nodes in [1usize, 6] {
        rows.push((
            format!("{nodes}-node store, replication {}", 2.min(nodes)),
            measure(
                &topo,
                Some(AthenaConfig {
                    store_nodes: nodes,
                    store_replication: 2,
                    ..AthenaConfig::default()
                }),
                rounds,
                events,
                &tel,
            ),
        ));
    }
    for (label, rate) in &rows {
        println!(
            "{label:<34} {rate:>14.0} {:>12}",
            pct(1.0 - rate / baseline)
        );
    }

    // Shape checks: no-DB is the fastest Athena configuration, and
    // higher replication never helps throughput.
    let no_db = rows[0].1;
    assert!(rows[1..].iter().all(|(_, r)| *r <= no_db * 1.05));
    let (r1, r2, r3) = (rows[1].1, rows[2].1, rows[3].1);
    assert!(
        r1 >= r2 * 0.9 && r2 >= r3 * 0.9,
        "replication should not speed writes: {r1:.0} {r2:.0} {r3:.0}"
    );
    println!("\nshape verified: publication dominates; replication adds monotone write cost");
    println!("(the paper's Cassandra proposal corresponds to the lighter configurations above)");
    println!("\n{}", tel.report().render());
}
