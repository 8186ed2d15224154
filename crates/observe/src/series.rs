//! Fixed-capacity time series sampled from the telemetry registry.
//!
//! Each sample tick snapshots every counter, gauge, and histogram into a
//! per-key ring buffer of `(virtual time, value)` points. Histograms
//! contribute two derived series: `<key>#p99` and `<key>#count`. The
//! windowed queries ([`SeriesEngine::rate_per_sec`],
//! [`SeriesEngine::latest`], [`Series::stalled_for`]) are what the
//! alert rules evaluate.

use athena_telemetry::TelemetryReport;
use athena_types::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Default points kept per series.
pub const DEFAULT_SERIES_CAPACITY: usize = 512;

/// One metric's ring of samples.
#[derive(Debug, Clone)]
pub struct Series {
    points: VecDeque<(SimTime, f64)>,
    capacity: usize,
    /// Virtual time of the last sample whose value rose above the
    /// previous one (drives stall detection).
    last_rise: Option<SimTime>,
}

impl Series {
    fn new(capacity: usize) -> Self {
        Series {
            points: VecDeque::new(),
            capacity,
            last_rise: None,
        }
    }

    fn push(&mut self, at: SimTime, value: f64) {
        if let Some(&(_, prev)) = self.points.back() {
            if value > prev {
                self.last_rise = Some(at);
            }
        } else if value > 0.0 {
            self.last_rise = Some(at);
        }
        if self.points.len() == self.capacity {
            self.points.pop_front();
        }
        self.points.push_back((at, value));
    }

    /// The sampled points, oldest first.
    pub fn points(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().copied()
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Latest sampled value.
    pub fn latest(&self) -> Option<f64> {
        self.points.back().map(|&(_, v)| v)
    }

    /// Increase per second over the trailing `window` ending at `now`:
    /// the latest sample against the newest sample at or before
    /// `now - window` (or the oldest retained sample when the window
    /// extends past the ring).
    pub fn rate_per_sec(&self, now: SimTime, window: SimDuration) -> f64 {
        let Some(&(last_t, last_v)) = self.points.back() else {
            return 0.0;
        };
        let cutoff = now.as_micros().saturating_sub(window.as_micros());
        let base = self
            .points
            .iter()
            .rev()
            .find(|(t, _)| t.as_micros() <= cutoff)
            .or_else(|| self.points.front())
            .copied();
        let Some((base_t, base_v)) = base else {
            return 0.0;
        };
        let dt_us = last_t.as_micros().saturating_sub(base_t.as_micros());
        if dt_us == 0 {
            return 0.0;
        }
        (last_v - base_v) / (dt_us as f64 / 1_000_000.0)
    }

    /// How long the series has gone without rising, as of `now`.
    /// `None` until the series has risen at least once.
    pub fn stalled_for(&self, now: SimTime) -> Option<SimDuration> {
        self.last_rise
            .map(|t| SimDuration::from_micros(now.as_micros().saturating_sub(t.as_micros())))
    }
}

/// All sampled series, keyed by `subsystem/name[instance]` labels.
#[derive(Debug, Clone, Default)]
pub struct SeriesEngine {
    series: BTreeMap<String, Series>,
    capacity: usize,
    samples: u64,
}

impl SeriesEngine {
    /// An engine retaining `capacity` points per series.
    pub fn new(capacity: usize) -> Self {
        SeriesEngine {
            series: BTreeMap::new(),
            capacity: capacity.max(2),
            samples: 0,
        }
    }

    /// Samples every metric in `report` at virtual time `now`.
    pub fn sample(&mut self, now: SimTime, report: &TelemetryReport) {
        self.samples += 1;
        let cap = self.capacity;
        let mut put = |key: String, value: f64| {
            self.series
                .entry(key)
                .or_insert_with(|| Series::new(cap))
                .push(now, value);
        };
        for c in &report.counters {
            put(c.key.label(), c.value as f64);
        }
        for g in &report.gauges {
            put(g.key.label(), g.value as f64);
        }
        for h in &report.histograms {
            put(format!("{}#p99", h.key.label()), h.snapshot.p99 as f64);
            put(format!("{}#count", h.key.label()), h.snapshot.count as f64);
        }
    }

    /// Sample ticks taken so far.
    pub fn sample_count(&self) -> u64 {
        self.samples
    }

    /// The series for `key`, if it has been sampled.
    pub fn get(&self, key: &str) -> Option<&Series> {
        self.series.get(key)
    }

    /// Latest value of `key` (0.0 when never sampled).
    pub fn latest(&self, key: &str) -> f64 {
        self.get(key).and_then(Series::latest).unwrap_or(0.0)
    }

    /// Windowed rate of `key` (0.0 when never sampled).
    pub fn rate_per_sec(&self, key: &str, now: SimTime, window: SimDuration) -> f64 {
        self.get(key)
            .map(|s| s.rate_per_sec(now, window))
            .unwrap_or(0.0)
    }

    /// Iterates `(key, series)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Series)> {
        self.series.iter().map(|(k, s)| (k.as_str(), s))
    }

    /// Number of distinct series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// `true` when nothing has been sampled.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_with(points: &[(u64, f64)]) -> Series {
        let mut s = Series::new(16);
        for &(t, v) in points {
            s.push(SimTime::from_secs(t), v);
        }
        s
    }

    #[test]
    fn rate_uses_window_baseline() {
        let s = series_with(&[(0, 0.0), (1, 10.0), (2, 20.0), (3, 50.0)]);
        let r = s.rate_per_sec(SimTime::from_secs(3), SimDuration::from_secs(2));
        // Baseline is the sample at t=1 (≤ now−window): (50−10)/2s.
        assert!((r - 20.0).abs() < 1e-9, "rate {r}");
    }

    #[test]
    fn rate_falls_back_to_oldest_point() {
        let s = series_with(&[(5, 100.0), (6, 160.0)]);
        let r = s.rate_per_sec(SimTime::from_secs(6), SimDuration::from_secs(60));
        assert!((r - 60.0).abs() < 1e-9, "rate {r}");
    }

    #[test]
    fn stall_tracks_last_rise() {
        let s = series_with(&[(0, 0.0), (1, 5.0), (2, 5.0), (3, 5.0)]);
        let stalled = s.stalled_for(SimTime::from_secs(3)).unwrap();
        assert_eq!(stalled, SimDuration::from_secs(2));
        let never = series_with(&[(0, 0.0), (1, 0.0)]);
        assert!(never.stalled_for(SimTime::from_secs(1)).is_none());
    }

    #[test]
    fn ring_capacity_is_bounded() {
        let mut s = Series::new(4);
        for t in 0..10 {
            s.push(SimTime::from_secs(t), t as f64);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.latest(), Some(9.0));
    }
}
