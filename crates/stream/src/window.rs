//! Ring-buffer sliding feature windows with O(1) add/evict aggregate
//! maintenance.
//!
//! The batch Feature Generator recomputes each window's aggregates from
//! scratch at every flush; a streaming consumer cannot afford that per
//! sample. [`RingWindow`] keeps the samples of the trailing window in a
//! ring buffer and maintains count/sum/min/max incrementally:
//!
//! - count and sum are **exact integer accumulators** (`u64`/`i128`),
//!   so incremental add/evict is associative and lands on bit-identical
//!   values to a full recompute — float accumulation would drift and
//!   break the byte-identity gate;
//! - min and max use monotonic deques, giving amortized O(1) per
//!   operation;
//! - derived floating-point views (mean, per-second rate) are computed
//!   from the exact sums through the *shared*
//!   [`Windowing`] definition, the same code
//!   path `FeatureGenerator::flush_window` uses — one windowing
//!   definition, two consumers.
//!
//! `proptest_window.rs` drives arbitrary insert/evict sequences and
//! asserts [`RingWindow::aggregate`] equals [`RingWindow::recompute`]
//! after every step.

use athena_core::Windowing;
use athena_types::SimTime;
use std::collections::VecDeque;

/// Exact aggregates over the samples currently inside the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowAggregate {
    /// Number of samples in the window.
    pub count: u64,
    /// Exact sum of the integer samples.
    pub sum: i128,
    /// Smallest sample, `None` when empty.
    pub min: Option<i64>,
    /// Largest sample, `None` when empty.
    pub max: Option<i64>,
}

impl WindowAggregate {
    /// The empty aggregate.
    pub fn empty() -> Self {
        WindowAggregate {
            count: 0,
            sum: 0,
            min: None,
            max: None,
        }
    }

    /// Mean of the samples (0.0 when empty), derived from the exact
    /// sum so both the incremental and the recomputed aggregate produce
    /// the same bits.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Per-second event rate of the window under `w` — delegates to the
    /// shared [`Windowing::rate`] so stream and batch agree byte-for-byte.
    pub fn rate(&self, w: &Windowing) -> f64 {
        w.rate(self.count)
    }
}

/// A sliding window over timestamped integer samples with O(1)
/// amortized push/evict and exact incremental aggregates.
#[derive(Debug)]
pub struct RingWindow {
    windowing: Windowing,
    samples: VecDeque<(SimTime, i64)>,
    sum: i128,
    /// Front-to-back nondecreasing values: front is the window minimum.
    min_deque: VecDeque<(SimTime, i64)>,
    /// Front-to-back nonincreasing values: front is the window maximum.
    max_deque: VecDeque<(SimTime, i64)>,
}

impl RingWindow {
    /// An empty window of the given shared windowing definition.
    pub fn new(windowing: Windowing) -> Self {
        RingWindow {
            windowing,
            samples: VecDeque::new(),
            sum: 0,
            min_deque: VecDeque::new(),
            max_deque: VecDeque::new(),
        }
    }

    /// The window's shared windowing definition.
    pub fn windowing(&self) -> Windowing {
        self.windowing
    }

    /// Number of samples currently inside the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Pushes a sample observed at `at`, first evicting everything the
    /// window has slid past. Timestamps are expected nondecreasing (the
    /// record streams that feed this are); an out-of-order sample is
    /// accepted but triggers no eviction.
    pub fn push(&mut self, at: SimTime, value: i64) {
        self.evict_before(horizon(at, &self.windowing));
        self.samples.push_back((at, value));
        self.sum += i128::from(value);
        while self
            .min_deque
            .back()
            .is_some_and(|&(_, back)| back >= value)
        {
            self.min_deque.pop_back();
        }
        self.min_deque.push_back((at, value));
        while self
            .max_deque
            .back()
            .is_some_and(|&(_, back)| back <= value)
        {
            self.max_deque.pop_back();
        }
        self.max_deque.push_back((at, value));
    }

    /// Slides the window forward to `now` without adding a sample,
    /// evicting everything older than one width before `now`.
    pub fn advance_to(&mut self, now: SimTime) {
        self.evict_before(horizon(now, &self.windowing));
    }

    /// The incrementally-maintained aggregates: O(1).
    pub fn aggregate(&self) -> WindowAggregate {
        WindowAggregate {
            count: self.samples.len() as u64,
            sum: self.sum,
            min: self.min_deque.front().map(|&(_, v)| v),
            max: self.max_deque.front().map(|&(_, v)| v),
        }
    }

    /// The batch path: recomputes the same aggregates by scanning every
    /// retained sample. The proptest gate asserts this equals
    /// [`RingWindow::aggregate`] after arbitrary insert/evict
    /// sequences; production code has no reason to call it.
    pub fn recompute(&self) -> WindowAggregate {
        let mut agg = WindowAggregate::empty();
        for &(_, v) in &self.samples {
            agg.count += 1;
            agg.sum += i128::from(v);
            agg.min = Some(agg.min.map_or(v, |m| m.min(v)));
            agg.max = Some(agg.max.map_or(v, |m| m.max(v)));
        }
        agg
    }

    /// Drops samples strictly older than `cutoff` (the window covers
    /// `(now - width, now]`).
    fn evict_before(&mut self, cutoff: SimTime) {
        while let Some(&(t, v)) = self.samples.front() {
            if t >= cutoff {
                break;
            }
            self.samples.pop_front();
            self.sum -= i128::from(v);
            if self
                .min_deque
                .front()
                .is_some_and(|&(ft, fv)| ft == t && fv == v)
            {
                self.min_deque.pop_front();
            }
            if self
                .max_deque
                .front()
                .is_some_and(|&(ft, fv)| ft == t && fv == v)
            {
                self.max_deque.pop_front();
            }
        }
    }
}

/// The eviction cutoff for a window ending at `at`: one width earlier,
/// saturating at time zero.
fn horizon(at: SimTime, w: &Windowing) -> SimTime {
    SimTime::from_micros(at.as_micros().saturating_sub(w.width().as_micros()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_types::SimDuration;

    fn w5() -> Windowing {
        Windowing::new(SimDuration::from_secs(5))
    }

    #[test]
    fn aggregates_track_pushes_and_evictions() {
        let mut w = RingWindow::new(w5());
        w.push(SimTime::from_secs(1), 10);
        w.push(SimTime::from_secs(2), -3);
        w.push(SimTime::from_secs(3), 7);
        let a = w.aggregate();
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 14);
        assert_eq!(a.min, Some(-3));
        assert_eq!(a.max, Some(10));
        // t=8 slides the window to (3, 8]: the samples at 1 and 2 leave.
        w.push(SimTime::from_secs(8), 1);
        let a = w.aggregate();
        assert_eq!(a.count, 2);
        assert_eq!(a.sum, 8);
        assert_eq!(a.min, Some(1));
        assert_eq!(a.max, Some(7));
        assert_eq!(a, w.recompute());
    }

    #[test]
    fn advance_to_empties_a_stale_window() {
        let mut w = RingWindow::new(w5());
        w.push(SimTime::from_secs(1), 4);
        w.advance_to(SimTime::from_secs(20));
        assert!(w.is_empty());
        assert_eq!(w.aggregate(), WindowAggregate::empty());
        assert_eq!(w.aggregate(), w.recompute());
    }

    #[test]
    fn rate_matches_the_shared_batch_formula() {
        let mut w = RingWindow::new(w5());
        for i in 0..10 {
            w.push(SimTime::from_micros(i * 100), 1);
        }
        // 10 events over the 5 s window: the batch MSG_*_RATE formula.
        assert_eq!(w.aggregate().rate(&w5()), 2.0);
    }

    #[test]
    fn duplicate_extremes_survive_partial_eviction() {
        let mut w = RingWindow::new(w5());
        w.push(SimTime::from_secs(1), 5);
        w.push(SimTime::from_secs(4), 5);
        w.push(SimTime::from_secs(7), 2);
        let a = w.aggregate();
        assert_eq!(a.max, Some(5));
        assert_eq!(a, w.recompute());
    }
}
