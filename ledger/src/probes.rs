//! Layer probes: inputs captured from a workload, replayed through one
//! layer's public functions in isolation.
//!
//! A probe answers "what does this layer cost per item, on this
//! workload's own data" where the spans cannot — the codec, the flow
//! table and the store insert are buried inside a step or a link call.
//! Every number here is host wall-clock; the one modeled figure
//! (`compute.validate_job_virtual_ms`) says so in its name.

use crate::inputs::DdosInputs;
use crate::link::Capture;
use crate::stats::{median, tail};
use crate::workloads::{share, timed, Metrics};
use athena_apps::DdosDetector;
use athena_compute::ComputeCluster;
use athena_core::{
    Athena, AttackDetector, DetectionModel, DetectorManager, FeatureGenerator, FeatureManager,
    FeatureRecord, Query, Windowing,
};
use athena_dataplane::TimingWheel;
use athena_ml::LabeledPoint;
use athena_openflow::{
    decode_message, encode_message, Action, FlowMod, FlowTable, MatchFields, OfVersion,
    PacketHeader,
};
use athena_persist::wal::Wal;
use athena_store::{Accumulator, Aggregation, Filter, FindOptions, GroupSpec, StoreCluster};
use athena_stream::{IncrementalNaiveBayes, OnlineModel, RingWindow, SequentialKMeans};
use athena_telemetry::{names, Telemetry};
use athena_types::{AppId, ControllerId, FiveTuple, Ipv4Addr, PortNo, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Probe loops repeat until they have run this long, so that a per-item
/// figure never rests on a few microseconds of work.
const MIN_PROBE_S: f64 = 0.05;
/// … and at least this many times; the median repeat is reported.
const MIN_REPEATS: usize = 5;

/// Median seconds of one call of `f`, over enough repeats.
fn repeat_s(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < MIN_REPEATS || started.elapsed().as_secs_f64() < MIN_PROBE_S {
        samples.push(timed(&mut f).1);
    }
    median(&samples)
}

/// Encode and decode cost of the captured message mix at OpenFlow 1.3.
pub fn openflow_codec(capture: &Capture, out: &mut Metrics) {
    let msgs = capture.all_messages();
    if msgs.is_empty() {
        return;
    }
    let n = msgs.len() as f64;
    let encode_s = repeat_s(|| {
        for m in &msgs {
            black_box(encode_message(black_box(m), OfVersion::V1_3));
        }
    });
    let wire: Vec<_> = msgs
        .iter()
        .map(|m| encode_message(m, OfVersion::V1_3))
        .collect();
    let decode_s = repeat_s(|| {
        for w in &wire {
            black_box(decode_message(black_box(w)).is_ok());
        }
    });
    let bytes: usize = wire.iter().map(|w| w.len()).sum();
    out.insert("openflow.encode_ns_per_msg", encode_s * 1e9 / n);
    out.insert("openflow.decode_ns_per_msg", decode_s * 1e9 / n);
    out.insert("openflow.wire_bytes_per_msg", bytes as f64 / n);
}

fn synthetic_header(i: u64) -> PacketHeader {
    let ft = FiveTuple::tcp(
        Ipv4Addr::from_raw(0x0a00_0000 | (i as u32 & 0x00ff_ffff)),
        1024 + (i % 50_000) as u16,
        Ipv4Addr::from_raw(0x0b00_0000 | ((i as u32).wrapping_mul(7) & 0x00ff_ffff)),
        80,
    );
    PacketHeader::from_five_tuple(PortNo::new(1), ft, 64)
}

/// Flow-table apply / lookup cost on an exact-match table of
/// `table_size` entries (the workload's largest switch table).
pub fn openflow_table(table_size: usize, out: &mut Metrics) {
    if table_size == 0 {
        return;
    }
    let headers: Vec<PacketHeader> = (0..table_size as u64).map(synthetic_header).collect();
    let mods: Vec<FlowMod> = headers
        .iter()
        .map(|h| {
            FlowMod::add(
                MatchFields::exact_from_packet(h),
                100,
                vec![Action::Output(PortNo::new(2))],
            )
        })
        .collect();
    let now = SimTime::from_secs(1);
    let mut table = FlowTable::new(0);
    let apply_s = repeat_s(|| {
        table = FlowTable::new(0);
        for fm in &mods {
            black_box(table.apply(fm, now).is_ok());
        }
    });
    let n = table_size as f64;
    let hit_s = repeat_s(|| {
        for h in &headers {
            black_box(table.lookup(h, now, 1, 64).is_some());
        }
    });
    let strangers: Vec<PacketHeader> = (0..table_size as u64)
        .map(|i| synthetic_header(i + (1 << 22)))
        .collect();
    let miss_s = repeat_s(|| {
        for h in &strangers {
            black_box(table.lookup(h, now, 1, 64).is_some());
        }
    });
    out.insert("openflow.table_apply_ns", apply_s * 1e9 / n);
    out.insert("openflow.table_lookup_hit_ns", hit_s * 1e9 / n);
    out.insert("openflow.table_lookup_miss_ns", miss_s * 1e9 / n);
}

/// Timing-wheel cost per entry: schedule `n` wake-ups over the next 64
/// ticks, then advance through them.
pub fn wheel(n: usize, out: &mut Metrics) {
    if n == 0 {
        return;
    }
    let s = repeat_s(|| {
        let mut wheel: TimingWheel<u64> = TimingWheel::new(0);
        for i in 0..n as u64 {
            wheel.schedule(1 + i % 64, i);
        }
        for tick in 1..=64 {
            black_box(wheel.advance(tick));
        }
    });
    out.insert("dataplane.wheel_advance_ns", s * 1e9 / n as f64);
}

/// `FeatureGenerator::ingest` over the captured statistics replies.
pub fn feature_generator(capture: &Capture, out: &mut Metrics) {
    let replies = &capture.stats_replies;
    if replies.is_empty() {
        return;
    }
    let app_of = |_cookie: u64| AppId::CORE;
    let mut records = 0usize;
    let s = repeat_s(|| {
        let mut generator = FeatureGenerator::new(ControllerId::new(0));
        records = 0;
        for (from, msg, now) in replies {
            records += black_box(generator.ingest(*from, msg, *now, &app_of)).len();
        }
    });
    let n = replies.len() as f64;
    out.insert("core.feature_gen_us_per_stats_reply", s * 1e6 / n);
    out.insert("core.records_per_stats_reply", records as f64 / n);
}

/// Stored records sampled for the record-driven probes.
const PROBE_RECORDS: usize = 20_000;

/// The first [`PROBE_RECORDS`] stored feature records, in the store's
/// canonical order.
pub fn sample_records(athena: &Athena) -> Vec<FeatureRecord> {
    athena.request_features(&Query {
        limit: Some(PROBE_RECORDS),
        ..Query::all()
    })
}

/// `AttackDetector::process` with the trained model over stored records.
pub fn detector(records: &[FeatureRecord], model: &DetectionModel, out: &mut Metrics) {
    if records.is_empty() {
        return;
    }
    let query = Query::parse("feature==FLOW_STATS").expect("well-formed query");
    let mut detector = AttackDetector::new();
    detector.add_validator("probe", &query, model.clone(), Box::new(|_| None));
    let s = repeat_s(|| {
        for r in records {
            black_box(detector.process(r));
        }
    });
    out.insert(
        "core.detector_ns_per_record",
        s * 1e9 / records.len() as f64,
    );
}

/// Inserts the records' documents one by one into a fresh store cluster
/// shaped like Athena's (3 nodes, replication 2, `message_type` index).
pub fn store_insert(records: &[FeatureRecord], out: &mut Metrics) {
    if records.is_empty() {
        return;
    }
    let docs: Vec<_> = records.iter().map(FeatureRecord::to_document).collect();
    let store = StoreCluster::new(3, 2);
    let collection = store.collection("probe");
    collection.create_index("message_type");
    let mut each_us = Vec::with_capacity(docs.len());
    let started = Instant::now();
    for doc in docs {
        let t = Instant::now();
        black_box(collection.insert(doc).is_ok());
        each_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let total_s = started.elapsed().as_secs_f64();
    out.insert("store.insert_us_p50", median(&each_us));
    out.insert("store.insert_us_tail", tail(&each_us).1);
    out.insert(
        "store.insert_docs_per_s",
        share(each_us.len() as f64, total_s),
    );
}

/// Appends the records' documents, as JSON, to a WAL in a scratch
/// directory beside the executable.
pub fn wal_append(records: &[FeatureRecord], out: &mut Metrics) {
    let payloads: Vec<Vec<u8>> = records
        .iter()
        .filter_map(|r| serde_json::to_vec(&r.to_document()).ok())
        .collect();
    let Some(dir) = scratch_dir("wal") else {
        return;
    };
    if let Ok(mut wal) = Wal::open(&dir, 64 << 20) {
        let mut each_us = Vec::with_capacity(payloads.len());
        let mut bytes = 0usize;
        let started = Instant::now();
        for (i, p) in payloads.iter().enumerate() {
            let t = Instant::now();
            if let Ok(n) = wal.append(1, i as u64 + 1, SimTime::from_micros(i as u64), p) {
                bytes += n;
                each_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
        }
        let total_s = started.elapsed().as_secs_f64();
        out.insert("persist.wal_append_us_p50", median(&each_us));
        out.insert(
            "persist.wal_append_mb_per_s",
            share(bytes as f64 / 1e6, total_s),
        );
    }
    // Best effort: the directory sits in the build directory either way.
    let _ = std::fs::remove_dir_all(&dir);
}

/// A per-process scratch directory next to the running executable (the
/// build directory: inside the checkout and ignored by git).
pub fn scratch_dir(tag: &str) -> Option<std::path::PathBuf> {
    Some(exe_dir()?.join(format!("ledger-{tag}-{}", std::process::id())))
}

/// The directory the running executable sits in.
pub fn exe_dir() -> Option<std::path::PathBuf> {
    Some(std::env::current_exe().ok()?.parent()?.to_path_buf())
}

fn labeled_points(records: &[FeatureRecord], det: &DdosDetector) -> Vec<LabeledPoint> {
    FeatureManager::to_labeled_points(records, &DdosDetector::features(), det.truth())
}

/// Stream layer: ring-window push / aggregate and the online learners'
/// `partial_fit` over the stored records' points.
pub fn stream(records: &[FeatureRecord], inputs: &DdosInputs, out: &mut Metrics) {
    const PUSHES: u64 = 100_000;
    let mut window = RingWindow::new(Windowing::new(SimDuration::from_secs(5)));
    let push_s = repeat_s(|| {
        window = RingWindow::new(Windowing::new(SimDuration::from_secs(5)));
        for i in 0..PUSHES {
            // 10 000 pushes per virtual second: the window holds 50 000.
            window.push(SimTime::from_micros(i * 100), (i % 1500) as i64);
        }
    });
    let aggregate_s = repeat_s(|| {
        for _ in 0..PUSHES {
            black_box(black_box(&window).aggregate());
        }
    });
    out.insert("stream.ring_push_ns", push_s * 1e9 / PUSHES as f64);
    out.insert(
        "stream.ring_aggregate_ns",
        aggregate_s * 1e9 / PUSHES as f64,
    );

    let det = crate::workloads::ddos_detect::detector(inputs);
    let points = labeled_points(records, &det);
    if points.is_empty() {
        return;
    }
    let fit_s = repeat_s(|| {
        let mut nb = IncrementalNaiveBayes::new();
        let mut km = SequentialKMeans::new(8);
        for p in &points {
            nb.partial_fit(p);
            km.partial_fit(p);
        }
        black_box((nb.seen(), km.seen()));
    });
    // Mean over the two learners.
    out.insert(
        "stream.partial_fit_ns_per_point",
        fit_s * 1e9 / (2 * points.len()) as f64,
    );
}

/// The analytics path of `nb_analytics`, one layer at a time: the
/// training query and point extraction (core), preprocessing, fit and
/// predict (ml), and the distributed validation job (compute).
pub fn analytics(athena: &Athena, det: &DdosDetector, out: &mut Metrics) {
    let features = DdosDetector::features();
    let ((records, points), query_s) = timed(|| {
        let records = athena.request_features(&det.query());
        let points = labeled_points(&records, det);
        (records, points)
    });
    drop(records);
    out.insert("core.train_query_s", query_s);
    out.insert("ml.train_points", points.len() as f64);
    if points.is_empty() {
        return;
    }
    let n = points.len() as f64;
    let Ok(fitted) = det.preprocessor().fit(&points) else {
        return;
    };
    let mut prepared = Vec::new();
    let preprocess_s = repeat_s(|| prepared = fitted.apply(&points));
    out.insert("ml.preprocess_ns_per_point", preprocess_s * 1e9 / n);
    let (model, fit_s) = timed(|| det.config.algorithm.fit(&prepared));
    out.insert("ml.fit_s", fit_s);
    if let Ok(model) = model {
        let predict_s = repeat_s(|| {
            for p in &prepared {
                black_box(model.verdict_and_cluster(&p.features));
            }
        });
        out.insert("ml.predict_ns_per_point", predict_s * 1e9 / n);
    }

    let manager = DetectorManager::new(ComputeCluster::new(6));
    let copy = points.clone();
    let (dataset, parallelize_s) =
        timed(|| manager.compute().parallelize(copy, manager.partitions));
    drop(dataset);
    out.insert("compute.parallelize_ms", parallelize_s * 1e3);
    let Ok(model) = manager.generate_from_points(
        points.clone(),
        &features,
        &det.preprocessor(),
        &det.config.algorithm,
    ) else {
        return;
    };
    manager.compute().reset_accounting();
    let ((_, virtual_time), job_s) = timed(|| manager.validate_points_distributed(points, &model));
    let tasks: usize = manager
        .compute()
        .job_metrics()
        .iter()
        .map(|j| j.tasks)
        .sum();
    out.insert("compute.validate_job_s", job_s);
    out.insert(
        "compute.validate_job_virtual_ms",
        virtual_time.as_micros() as f64 / 1e3,
    );
    out.insert("compute.tasks", tasks as f64);
}

/// Store read path on the populated feature collection: an index-backed
/// find, a scan find, a count and a group-by aggregation.
pub fn store_read(athena: &Athena, out: &mut Metrics) {
    let collection = athena
        .runtime()
        .store
        .collection(FeatureManager::COLLECTION);
    let total = collection.count(&Filter::All) as f64;
    let opts = FindOptions::default();
    let indexed = Filter::Eq("message_type".into(), "PACKET_IN".into());
    let mut found = 0usize;
    let indexed_s = repeat_s(|| found = black_box(collection.find(&indexed, &opts)).len());
    out.insert(
        "store.find_indexed_us_per_doc",
        share(indexed_s * 1e6, found as f64),
    );
    // `switch` carries no index: every document is examined.
    let scan = Filter::Eq("switch".into(), 1.into());
    let scan_s = repeat_s(|| {
        black_box(collection.find(&scan, &opts));
    });
    out.insert("store.find_scan_us_per_doc", share(scan_s * 1e6, total));
    let flow_stats = Filter::Eq("message_type".into(), "FLOW_STATS".into());
    let count_s = repeat_s(|| {
        black_box(collection.count(&flow_stats));
    });
    out.insert("store.count_ms", count_s * 1e3);
    let pipeline =
        Aggregation::new().group(GroupSpec::by(&["switch"]).with("n", Accumulator::Count));
    let aggregate_s = repeat_s(|| {
        black_box(collection.aggregate(&pipeline));
    });
    out.insert("store.aggregate_ms", aggregate_s * 1e3);
}

/// Pool dispatch overhead: `par_map` of an identity closure.
pub fn par_map_dispatch(out: &mut Metrics) {
    const CALLS: usize = 200;
    for (name, n) in [
        ("parallel.par_map_us_n8", 8u64),
        ("parallel.par_map_us_n1024", 1024),
    ] {
        let s = repeat_s(|| {
            for _ in 0..CALLS {
                black_box(athena_parallel::par_map((0..n).collect(), |x: &u64| *x));
            }
        });
        out.insert(name, s * 1e6 / CALLS as f64);
    }
}

/// Reads — never adds — the program's own histograms for the boundaries
/// the ledger also times from outside, as seconds per rep; `reps` is how
/// many reps `tel` recorded.
pub fn telemetry_cross_check(tel: &Telemetry, reps: usize, out: &mut Metrics) {
    let report = tel.report();
    let total_s = |subsystem: &str, name: &str| {
        report
            .histograms
            .iter()
            .filter(|h| h.key.subsystem == subsystem && h.key.name == name)
            .map(|h| h.snapshot.sum)
            .sum::<u64>() as f64
            / 1e9
            / reps.max(1) as f64
    };
    out.insert(
        "store.tel_insert_s",
        total_s(names::store::SUBSYSTEM, names::store::INSERT_NS),
    );
    out.insert(
        "core.tel_feature_gen_s",
        total_s(names::core::SUBSYSTEM, names::core::FEATURE_GEN_NS),
    );
    out.insert(
        "core.tel_dispatch_s",
        total_s(names::core::SUBSYSTEM, names::core::DISPATCH_NS),
    );
    out.insert(
        "compute.tel_task_s",
        total_s(names::compute::SUBSYSTEM, names::compute::TASK_NS),
    );
}
