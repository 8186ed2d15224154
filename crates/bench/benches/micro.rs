//! Criterion micro-benchmarks for the hot paths under the evaluation:
//! the wire codec, flow-table lookup, the record ⇄ document conversions,
//! store writes/queries, feature generation, and K-Means training.

use athena_compute::ComputeCluster;
use athena_core::{catalog, FeatureGenerator, FeatureRecord, FieldName};
use athena_ml::algorithms::kmeans::{KMeansModel, KMeansParams};
use athena_ml::LabeledPoint;
use athena_openflow::{
    decode_message, encode_message, Action, FlowMod, FlowStatsEntry, FlowTable, MatchFields,
    OfMessage, OfVersion, PacketHeader, StatsReply,
};
use athena_store::{doc, Filter, FindOptions, StoreCluster};
use athena_types::{
    AppId, ControllerId, Dpid, FiveTuple, Ipv4Addr, PortNo, SimDuration, SimTime, Xid,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn ft(i: u32) -> FiveTuple {
    FiveTuple::tcp(
        Ipv4Addr::from_raw(0x0a00_0000 + i),
        (1024 + i % 50_000) as u16,
        Ipv4Addr::from_raw(0x0aff_0000 + i % 251),
        80,
    )
}

fn bench_codec(c: &mut Criterion) {
    let msg = OfMessage::FlowMod {
        xid: Xid::new(7),
        body: FlowMod::add(
            MatchFields::exact_five_tuple(ft(1)),
            100,
            vec![Action::Output(PortNo::new(2))],
        )
        .with_idle_timeout(SimDuration::from_secs(30)),
    };
    c.bench_function("codec/encode_flow_mod_v13", |b| {
        b.iter(|| encode_message(black_box(&msg), OfVersion::V1_3))
    });
    let wire = encode_message(&msg, OfVersion::V1_3);
    c.bench_function("codec/decode_flow_mod_v13", |b| {
        b.iter(|| decode_message(black_box(&wire)).unwrap())
    });
}

fn bench_flow_table(c: &mut Criterion) {
    let mut table = FlowTable::new(0);
    for i in 0..1_000u32 {
        table
            .apply(
                &FlowMod::add(
                    MatchFields::exact_five_tuple(ft(i)),
                    100,
                    vec![Action::Output(PortNo::new(2))],
                ),
                SimTime::ZERO,
            )
            .unwrap();
    }
    let pkt = PacketHeader::from_five_tuple(PortNo::new(1), ft(500), 64);
    c.bench_function("flow_table/lookup_1k_entries", |b| {
        b.iter(|| {
            table
                .lookup(black_box(&pkt), SimTime::ZERO, 1, 64)
                .is_some()
        })
    });
}

/// One generated record of each of the two shapes the SB publishes
/// most: a `PACKET_IN` (3 features, 14 keys as a document) and a
/// `FLOW_STATS` (27 features, 38 keys).
fn feature_records() -> [(&'static str, FeatureRecord); 2] {
    let mut generator = FeatureGenerator::new(ControllerId::new(0));
    let app_of = |_: u64| AppId::CORE;
    let mut first = |msg: &OfMessage| {
        generator
            .ingest(Dpid::new(7), msg, SimTime::from_secs(6), &app_of)
            .swap_remove(0)
    };
    let packet_in = first(&OfMessage::packet_in(
        Xid::new(1),
        PacketHeader::from_five_tuple(PortNo::new(1), ft(42), 64),
    ));
    let flow_stats = first(&OfMessage::StatsReply {
        xid: Xid::athena_marked(1),
        body: StatsReply::Flow(vec![flow_stats_entry(42)]),
    });
    [("packet_in", packet_in), ("flow_stats", flow_stats)]
}

fn flow_stats_entry(i: u32) -> FlowStatsEntry {
    FlowStatsEntry {
        table_id: 0,
        match_fields: MatchFields::exact_five_tuple(ft(i)),
        priority: 100,
        duration: SimDuration::from_secs(5),
        idle_timeout: SimDuration::from_secs(30),
        hard_timeout: SimDuration::ZERO,
        cookie: 1 << 48,
        packet_count: 1_000 + u64::from(i),
        byte_count: 100_000 + u64::from(i),
        actions: vec![Action::Output(PortNo::new(2))],
    }
}

/// The record ⇄ document conversions on either side of the store, and
/// the model-input extraction every scored record pays (on the
/// `PACKET_IN` shape it is the miss a validator pays for a foreign
/// record).
fn bench_record(c: &mut Criterion) {
    let model_inputs: Vec<FieldName> = catalog::DDOS_10_TUPLE.map(FieldName::from).to_vec();
    for (name, record) in feature_records() {
        c.bench_function(&format!("core/to_document/{name}"), |b| {
            b.iter(|| black_box(&record).to_document())
        });
        let doc = record.to_document();
        c.bench_function(&format!("core/from_document/{name}"), |b| {
            b.iter(|| FeatureRecord::from_document(black_box(&doc)))
        });
        c.bench_function(&format!("core/vector10/{name}"), |b| {
            b.iter(|| black_box(&record).values(black_box(&model_inputs)))
        });
    }
}

fn bench_store(c: &mut Criterion) {
    // Athena's store shape: 3 nodes, two copies, the `message_type`
    // index. Each iteration also pays one document clone (the insert
    // consumes its argument), the same on every commit.
    for (name, record) in feature_records() {
        let doc = record.to_document();
        let coll = StoreCluster::new(3, 2).collection("bench");
        coll.create_index("message_type");
        c.bench_function(&format!("store/insert_replicated/{name}"), |b| {
            b.iter(|| coll.insert(black_box(&doc).clone()).unwrap())
        });
    }
    // A populated collection for query benches.
    let filled = StoreCluster::new(3, 2).collection("q");
    for i in 0..5_000i64 {
        filled
            .insert(doc! { "switch" => i % 18, "pkts" => i })
            .unwrap();
    }
    c.bench_function("store/find_filtered_5k", |b| {
        b.iter(|| {
            filled.find(
                &Filter::and(vec![Filter::eq("switch", 3), Filter::gt("pkts", 2_500)]),
                &FindOptions::default().limit(10),
            )
        })
    });
}

fn bench_feature_generator(c: &mut Criterion) {
    let entries: Vec<FlowStatsEntry> = (0..100).map(flow_stats_entry).collect();
    let msg = OfMessage::StatsReply {
        xid: Xid::athena_marked(1),
        body: StatsReply::Flow(entries),
    };
    c.bench_function("feature_generator/flow_stats_100_entries", |b| {
        let mut generator = FeatureGenerator::new(ControllerId::new(0));
        let app_of = |_: u64| AppId::CORE;
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            generator.ingest(
                Dpid::new(1),
                black_box(&msg),
                SimTime::from_secs(t),
                &app_of,
            )
        })
    });
}

fn bench_kmeans(c: &mut Criterion) {
    let data: Vec<LabeledPoint> = (0..2_000)
        .map(|i| {
            let base = if i % 2 == 0 { 0.0 } else { 4.0 };
            LabeledPoint::new(
                vec![base + (i % 7) as f64 * 0.01, base + (i % 5) as f64 * 0.01],
                f64::from(u8::from(i % 2 == 1)),
            )
        })
        .collect();
    let params = KMeansParams {
        k: 4,
        max_iterations: 10,
        runs: 1,
        ..KMeansParams::default()
    };
    c.bench_function("ml/kmeans_2k_points", |b| {
        b.iter(|| KMeansModel::fit(params, black_box(&data)).unwrap())
    });
    let cluster = ComputeCluster::new(4);
    let ds = cluster.parallelize(data.clone(), 8);
    c.bench_function("ml/kmeans_2k_points_distributed", |b| {
        b.iter(|| KMeansModel::fit_distributed(params, black_box(&ds)).unwrap())
    });
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_codec, bench_flow_table, bench_record, bench_store, bench_feature_generator,
        bench_kmeans
}
criterion_main!(benches);
