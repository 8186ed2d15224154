//! Criterion micro-benchmarks for the hot paths under the evaluation:
//! the wire codec, the flow table, route lookup, the record ⇄ document conversions,
//! store writes/queries, feature generation, and K-Means training.

use athena_apps::{DdosDataset, DdosDetector, DdosDetectorConfig};
use athena_controller::PathService;
use athena_core::{
    catalog, FeatureGenerator, FeatureManager, FeatureRecord, FieldName, FieldReader, MessageType,
    Query,
};
use athena_dataplane::Topology;
use athena_ml::algorithms::kmeans::{KMeansModel, KMeansParams};
use athena_ml::LabeledPoint;
use athena_openflow::{
    decode_message, encode_message, Action, FlowMod, FlowStatsEntry, FlowTable, MatchFields,
    OfMessage, OfVersion, PacketHeader, StatsReply,
};
use athena_store::{doc, Document, Filter, FindOptions, Placement, StoreCluster};
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

/// The mixed table of `table.rs`'s scale guard: `n` five-tuple rules
/// under 25 `ip_src/32` block rules and over a default rule — three
/// shapes, so a lookup is three probes at every `n`.
fn mixed_table(n: u32) -> FlowTable {
    let mut table = FlowTable::new(0);
    let out = vec![Action::Output(PortNo::new(2))];
    let mut add = |m: MatchFields, priority: u16, actions: Vec<Action>| {
        let fm = FlowMod::add(m, priority, actions).with_idle_timeout(SimDuration::from_secs(30));
        table.apply(&fm, SimTime::ZERO).unwrap();
    };
    add(MatchFields::new(), 0, out.clone());
    for i in 0..25 {
        let blocked = Ipv4Addr::from_raw(0x0c00_0000 + i);
        add(
            MatchFields::new().with_ip_src(blocked, 32),
            1000,
            Vec::new(),
        );
    }
    for i in 0..n {
        add(MatchFields::exact_five_tuple(ft(i)), 100, out.clone());
    }
    table
}

/// Per-operation cost on the mixed table at three depths. `apply` is
/// one `Add` drawn from 1,024 keys outside the table (a replacing `Add`
/// once they are all in, at depth `n` + 1,024; it runs last); `lookup_hit` and
/// `peek` cycle through the installed five-tuples; `lookup_miss` sends
/// packets no five-tuple rule covers, which the default rule takes.
fn bench_flow_table(c: &mut Criterion) {
    let pkt = |i: u32| PacketHeader::from_five_tuple(PortNo::new(1), ft(i), 64);
    for n in [64u32, 1024, 8192] {
        let mut table = mixed_table(n);
        let hits: Vec<PacketHeader> = (0..n).map(pkt).collect();
        let strangers: Vec<PacketHeader> = (0..1024).map(|i| pkt((1 << 22) + i)).collect();
        let spares: Vec<FlowMod> = strangers
            .iter()
            .map(|h| {
                let m = MatchFields::exact_five_tuple(h.five_tuple().unwrap());
                FlowMod::add(m, 100, vec![Action::Output(PortNo::new(2))])
            })
            .collect();
        let mut i = 0usize;
        let mut next = move |len: usize| {
            i = (i + 1) % len;
            i
        };
        c.bench_function(&format!("flow_table/lookup_hit/{n}"), |b| {
            b.iter(|| {
                let h = &hits[next(hits.len())];
                table.lookup(black_box(h), SimTime::ZERO, 1, 64).is_some()
            })
        });
        c.bench_function(&format!("flow_table/lookup_miss/{n}"), |b| {
            b.iter(|| {
                let h = &strangers[next(strangers.len())];
                table.lookup(black_box(h), SimTime::ZERO, 1, 64).is_some()
            })
        });
        c.bench_function(&format!("flow_table/peek/{n}"), |b| {
            b.iter(|| {
                let h = &hits[next(hits.len())];
                table.peek(black_box(h), SimTime::ZERO).is_some()
            })
        });
        c.bench_function(&format!("flow_table/apply/{n}"), |b| {
            b.iter(|| {
                let fm = &spares[next(spares.len())];
                table.apply(black_box(fm), SimTime::ZERO).is_ok()
            })
        });
    }
}

/// One route between two edge switches: a fresh adjacency + BFS per call
/// (`Topology::shortest_path`) against the controller's `PathService`.
fn bench_shortest_path(c: &mut Criterion) {
    for (name, topo) in [
        ("enterprise", Topology::enterprise()),
        ("fat_tree_k8", Topology::fat_tree(8)),
    ] {
        let mut edges: Vec<Dpid> = topo.hosts.iter().map(|h| h.switch).collect();
        edges.dedup();
        let mut i = 0usize;
        let mut pair = move || {
            i += 1;
            (edges[i % edges.len()], edges[(i * 7 + 3) % edges.len()])
        };
        c.bench_function(
            &format!("controller/shortest_path/{name}/topology_bfs"),
            |b| {
                b.iter(|| {
                    let (from, to) = pair();
                    topo.shortest_path(black_box(from), to).map(|p| p.len())
                })
            },
        );
        let paths = PathService::from_topology(&topo);
        c.bench_function(
            &format!("controller/shortest_path/{name}/path_service"),
            |b| {
                b.iter(|| {
                    let (from, to) = pair();
                    paths.shortest_path(black_box(from), to).map(|p| p.len())
                })
            },
        );
    }
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

/// The model-input extraction every scored record pays: ten key searches
/// in the record's document (on the `PACKET_IN` shape it is the miss a
/// validator pays for a foreign record); the same ten names read by a
/// `FieldReader` over a batch of one layout (the `FLOW_STATS` records of
/// one 100-entry reply, read one record per iteration, round robin); and
/// a record's index decoded in its one walk.
fn bench_record(c: &mut Criterion) {
    let model_inputs: Vec<FieldName> = catalog::DDOS_10_TUPLE.map(FieldName::from).to_vec();
    let records = feature_records();
    for (name, record) in &records {
        c.bench_function(&format!("core/vector10/{name}"), |b| {
            b.iter(|| black_box(record).values(black_box(&model_inputs)))
        });
    }
    let mut generator = FeatureGenerator::new(ControllerId::new(0));
    let batch = generator.ingest(
        Dpid::new(7),
        &OfMessage::StatsReply {
            xid: Xid::athena_marked(1),
            body: StatsReply::Flow((0..100).map(flow_stats_entry).collect()),
        },
        SimTime::from_secs(6),
        &|_: u64| AppId::CORE,
    );
    let flows: Vec<&FeatureRecord> = batch
        .iter()
        .filter(|r| r.meta().message_type == MessageType::FLOW_STATS)
        .collect();
    assert_eq!(flows.len(), 100);
    c.bench_function("core/field_reader/flow_stats", |b| {
        let mut reader = FieldReader::new(&model_inputs);
        let mut next = flows.iter().cycle();
        b.iter(|| next.next().map(|r| reader.values(black_box(r))))
    });
    let (_, flow_stats) = &records[1];
    c.bench_function("core/index/flow_stats", |b| {
        b.iter(|| black_box(flow_stats).index())
    });
}

fn bench_store(c: &mut Criterion) {
    // Athena's store shape: 3 nodes, two copies, the feature
    // collection's one `(message_type, switch)` index. Each iteration
    // also pays one document clone (the insert consumes its argument),
    // the same on every commit.
    let store = || {
        let coll = StoreCluster::new(3, 2).collection("bench");
        coll.create_index(["message_type", "switch"]);
        coll
    };
    for (name, record) in feature_records() {
        let doc = record.to_document();
        let coll = store();
        c.bench_function(&format!("store/insert_replicated/{name}"), |b| {
            b.iter(|| coll.insert(black_box(&doc).clone()).unwrap())
        });
    }
    // One store batch of `FLOW_STATS` documents, the size of a
    // PACKET_IN message, of a mean stats reply on `fat_tree_scale`, and
    // of a large one. Per call: divide by the size for a per-document
    // figure beside `insert_replicated/flow_stats`. The collection is
    // replaced once it holds 2^17 documents (its drop is timed, amortized
    // over them), so a row holds ~0.5 GB at most where the two rows above
    // grow for their whole run.
    let [(_, packet_in), (_, flow_stats)] = feature_records();
    let doc = flow_stats.to_document();
    let mut batch_row = |row: &str, doc: &Document, size: usize| {
        let (mut coll, mut held) = (store(), 0);
        let mut batch = Vec::with_capacity(size);
        c.bench_function(&format!("store/insert_batch/{row}"), |b| {
            b.iter(|| {
                if held >= 1 << 17 {
                    (coll, held) = (store(), 0);
                }
                batch.clear();
                batch.extend((0..size).map(|_| Placement::pending(black_box(doc).clone())));
                coll.insert_batch(&mut batch);
                held += size;
            })
        });
    };
    for size in [1, 52, 1024] {
        batch_row(&size.to_string(), &doc, size);
    }
    // Table IX's write: a PACKET_IN is a batch of one 14-key document.
    batch_row("packet_in", &packet_in.to_document(), 1);
    // What sizing its journal record costs: 38 keys, as BSON.
    c.bench_function("store/bson_len/flow_stats", |b| {
        b.iter(|| black_box(&doc).bson_len())
    });
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

/// `per_switch` generated `FLOW_STATS` records from each of `switches`
/// switches (one stats reply per switch) and one `PACKET_IN` per twelve
/// of them: the mix the live phases leave in the feature collection.
fn generated_records(switches: u64, per_switch: u32) -> Vec<FeatureRecord> {
    let mut generator = FeatureGenerator::new(ControllerId::new(0));
    let app_of = |_: u64| AppId::CORE;
    let now = SimTime::from_secs(6);
    let mut records = Vec::new();
    for sw in 1..=switches {
        let dpid = Dpid::new(sw);
        let base = sw as u32 * per_switch;
        let entries = (base..base + per_switch).map(flow_stats_entry).collect();
        let reply = OfMessage::StatsReply {
            xid: Xid::athena_marked(1),
            body: StatsReply::Flow(entries),
        };
        let polled = generator.ingest(dpid, &reply, now, &app_of);
        records.extend(
            polled
                .into_iter()
                .filter(|r| r.meta().message_type == "FLOW_STATS"),
        );
        for i in (base..base + per_switch).step_by(12) {
            let header = PacketHeader::from_five_tuple(PortNo::new(1), ft(i), 64);
            let punted = generator.ingest(
                dpid,
                &OfMessage::packet_in(Xid::new(i), header),
                now,
                &app_of,
            );
            records.extend(
                punted
                    .into_iter()
                    .filter(|r| r.meta().message_type == "PACKET_IN"),
            );
        }
    }
    records
}

/// The read side of Athena's store shape (3 nodes, two copies, the
/// `(message_type, switch)` index) over generated records: 12 switches
/// x 1,000 `FLOW_STATS` plus 1,008 `PACKET_IN`s. Per call, so divide by the hits
/// (1,008 / 1,000 / 1,084) or the 13,008 documents for a per-document
/// figure.
fn bench_store_read(c: &mut Criterion) {
    let records = generated_records(12, 1_000);
    let store = StoreCluster::new(3, 2);
    let mut manager = FeatureManager::new(&store);
    for r in &records {
        manager.ingest(r.clone()).unwrap();
    }
    let coll = store.collection(FeatureManager::COLLECTION);
    let opts = FindOptions::default();
    let kind = |k: &str| Filter::eq("message_type", k);
    let switch = || Filter::eq("switch", 3);
    for (name, filter, hits) in [
        // Served by the index's `message_type` prefix: no document is
        // read.
        ("indexed_eq", kind("PACKET_IN"), 1_008),
        // Served by the whole key: the 1,000 hits are the only
        // candidates, and no conjunct is left to evaluate.
        (
            "conjunct",
            Filter::and(vec![kind("FLOW_STATS"), switch()]),
            1_000,
        ),
        // `switch` leads no index: every primary copy is examined.
        ("scan", switch(), 1_084),
    ] {
        assert_eq!(coll.count(&filter), hits, "{name}");
        c.bench_function(&format!("store/find/{name}"), |b| {
            b.iter(|| coll.find(black_box(&filter), &opts))
        });
    }
    c.bench_function("store/count", |b| {
        b.iter(|| coll.count(black_box(&kind("FLOW_STATS"))))
    });
    let query = Query::parse("feature==FLOW_STATS && switch==3").unwrap();
    assert_eq!(manager.request_features(&query).len(), 1_000);
    c.bench_function("core/request_features", |b| {
        b.iter(|| manager.request_features(black_box(&query)))
    });

    // Purge: every victim sits under one index prefix. The harness cannot
    // refill outside the timed region, so the fill is timed on its own
    // and the purge is the difference between the two rows.
    let docs: Vec<_> = records
        .iter()
        .filter(|r| r.meta().message_type == "FLOW_STATS")
        .take(10_000)
        .map(FeatureRecord::to_document)
        .collect();
    let fill = || {
        let coll = StoreCluster::new(3, 2).collection("purge");
        coll.create_index(["message_type", "switch"]);
        for d in &docs {
            coll.insert(d.clone()).unwrap();
        }
        coll
    };
    c.bench_function("store/purge/fill_10k", |b| b.iter(fill));
    c.bench_function("store/purge/fill_then_purge_10k", |b| {
        b.iter(|| {
            let coll = fill();
            assert_eq!(coll.delete(&kind("FLOW_STATS")), docs.len());
            coll
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

    // The DDoS detector's fit: as many points as the ledger trains on,
    // through the detector's preprocessor, with `Algorithm::kmeans(8)`'s
    // parameters (10 features, k = 8, 5 runs of at most 20 passes).
    let det = DdosDetector::new(DdosDetectorConfig::default());
    let raw = DdosDataset::generate(18_326, 20170611).points;
    let (_, points) = det.preprocessor().fit_apply(raw).unwrap();
    let params = KMeansParams {
        k: 8,
        ..KMeansParams::default()
    };
    c.bench_function("ml/kmeans_fit/ddos", |b| {
        b.iter(|| KMeansModel::fit(params, black_box(&points)).unwrap())
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
    targets = bench_codec, bench_flow_table, bench_shortest_path, bench_record, bench_store,
        bench_store_read,
        bench_feature_generator, bench_kmeans
}
criterion_main!(benches);
