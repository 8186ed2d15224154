//! Measures the cost of telemetry instruments.
//!
//! A counter always counts, so it has one case: one relaxed
//! `fetch_add`. Histograms and timers are measured in both states, and
//! the disabled numbers are the contract: a histogram registered only
//! into a disabled domain must cost roughly one relaxed atomic load per
//! record, and its timer must never read the wall clock. `scripts/ci.sh` runs
//! this in smoke mode (`ATHENA_BENCH_SMOKE=1`) to keep the gate fast.

use athena_telemetry::{Counter, Histogram, Telemetry};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn smoke_config() -> Criterion {
    if athena_types::env_flag("ATHENA_BENCH_SMOKE") {
        Criterion::default()
            .sample_size(10)
            .warm_up_time(Duration::from_millis(50))
            .measurement_time(Duration::from_millis(200))
    } else {
        Criterion::default()
    }
}

fn bench_overhead(c: &mut Criterion) {
    let on = Telemetry::new();
    let off = Telemetry::off();

    let hits = Counter::default();
    on.metrics().register_counter("bench", "hits", &hits);
    c.bench_function("counter_inc", |b| b.iter(|| hits.inc()));

    let (h_on, h_off) = (Histogram::default(), Histogram::default());
    on.metrics()
        .register_histogram("bench", "lat_ns", "", &h_on);
    off.metrics()
        .register_histogram("bench", "lat_ns", "", &h_off);
    c.bench_function("histogram_record_enabled", |b| {
        b.iter(|| h_on.record(black_box(12_345)))
    });
    c.bench_function("histogram_record_disabled", |b| {
        b.iter(|| h_off.record(black_box(12_345)))
    });

    c.bench_function("hist_timer_enabled", |b| {
        b.iter(|| h_on.start_timer().observe(&h_on))
    });
    c.bench_function("hist_timer_disabled", |b| {
        b.iter(|| h_off.start_timer().observe(&h_off))
    });
}

criterion_group! {
    name = benches;
    config = smoke_config();
    targets = bench_overhead
}
criterion_main!(benches);
