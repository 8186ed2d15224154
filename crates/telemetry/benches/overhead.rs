//! Measures the cost of telemetry instruments in both states.
//!
//! The disabled numbers are the contract: a counter increment or
//! histogram record against a disabled domain must cost roughly one
//! relaxed atomic load, and a disabled timer must never read the wall
//! clock. `scripts/ci.sh` runs this in smoke mode
//! (`ATHENA_BENCH_SMOKE=1`) to keep the gate fast.

use athena_telemetry::Telemetry;
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

    let c_on = on.metrics().counter("bench", "hits");
    let c_off = off.metrics().counter("bench", "hits");
    c.bench_function("counter_inc_enabled", |b| b.iter(|| c_on.inc()));
    c.bench_function("counter_inc_disabled", |b| b.iter(|| c_off.inc()));

    let h_on = on.metrics().histogram("bench", "lat_ns");
    let h_off = off.metrics().histogram("bench", "lat_ns");
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
