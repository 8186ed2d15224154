//! Simulated links with capacity contention and optional stochastic
//! latency/jitter/queue-drop behavior.

use athena_types::{LinkId, SimDuration};
use serde::{Deserialize, Serialize};

/// A stochastic link model: seeded latency/jitter distributions and
/// queue-drop behavior layered on top of the fluid capacity model,
/// replacing the binary up/degraded/down picture.
///
/// Per settled tick the link draws a latency sample
/// `base_latency + Exp(jitter_mean)` and a Bernoulli queue-drop event
/// with probability `drop_p`; a drop tick tail-drops the whole tick's
/// offered burst. Draws come from an inline splitmix64 stream seeded
/// from `(seed, link id)`, so they are deterministic, placement-
/// independent, and survive serialization (the state is one `u64`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Fixed propagation delay.
    pub base_latency: SimDuration,
    /// Mean of the exponential jitter added to each latency draw.
    pub jitter_mean: SimDuration,
    /// Per-tick probability that the queue tail-drops the whole burst.
    pub drop_p: f64,
}

impl LinkModel {
    /// A WAN-ish link: 20 ms base, 5 ms jitter, 1% queue-drop ticks.
    pub fn wan() -> Self {
        LinkModel {
            base_latency: SimDuration::from_millis(20),
            jitter_mean: SimDuration::from_millis(5),
            drop_p: 0.01,
        }
    }

    /// The WAN profile with an explicit queue-drop probability
    /// (clamped to `[0, 1]`).
    pub fn lossy(drop_p: f64) -> Self {
        LinkModel {
            drop_p: drop_p.clamp(0.0, 1.0),
            ..LinkModel::wan()
        }
    }
}

/// One step of the splitmix64 stream (the link model's seeded RNG; kept
/// inline so `SimLink` stays plainly serializable).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from the stream.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One direction of a link, with capacity accounting per tick.
///
/// Each simulation tick, flows crossing the link offer bytes; if the offer
/// exceeds the link's per-tick capacity the excess is dropped
/// proportionally (a fluid model of congestion). Utilization history
/// drives the LFA detector's `port_rx_bytes`-style features.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimLink {
    /// The link's identity (direction-specific).
    pub id: LinkId,
    /// Capacity in bits per second.
    pub capacity_bps: u64,
    offered_bytes_this_tick: u64,
    delivered_bytes_total: u64,
    dropped_bytes_total: u64,
    last_utilization: f64,
    /// Effective-capacity multiplier: `1.0` healthy, `(0, 1)` degraded,
    /// `0.0` down. Fault injection flips this; traffic offered while the
    /// factor is zero is dropped in full.
    capacity_factor: f64,
    model: Option<LinkModel>,
    rng_state: u64,
    /// The latency drawn at the last settled tick, in microseconds (zero
    /// when no model is installed).
    last_latency_us: u64,
    /// Bytes tail-dropped by queue-drop events (a subset of
    /// `dropped_bytes_total`).
    queue_dropped_total: u64,
}

impl SimLink {
    /// Creates a link direction with the given capacity.
    pub fn new(id: LinkId, capacity_bps: u64) -> Self {
        SimLink {
            id,
            capacity_bps,
            offered_bytes_this_tick: 0,
            delivered_bytes_total: 0,
            dropped_bytes_total: 0,
            last_utilization: 0.0,
            capacity_factor: 1.0,
            model: None,
            rng_state: 0,
            last_latency_us: 0,
            queue_dropped_total: 0,
        }
    }

    /// Installs a stochastic model on this link direction. The per-link
    /// stream is seeded from `seed` mixed with the link's stable identity
    /// (not its container position), so draws are placement-independent.
    pub fn set_model(&mut self, model: LinkModel, seed: u64) {
        let mut s = seed
            ^ self.id.src.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(self.id.src_port.raw()).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ self.id.dst.raw().wrapping_mul(0x1656_67B1_9E37_79F9)
            ^ u64::from(self.id.dst_port.raw()).wrapping_mul(0x2545_F491_4F6C_DD1D);
        // Warm the stream so near-identical ids decorrelate.
        splitmix64(&mut s);
        self.rng_state = s;
        self.model = Some(model);
    }

    /// The installed stochastic model, if any.
    pub fn model(&self) -> Option<&LinkModel> {
        self.model.as_ref()
    }

    /// Sets the effective-capacity multiplier (clamped to `[0, 1]`):
    /// `1.0` restores the link, a fraction degrades it, `0.0` takes it
    /// down entirely.
    pub fn set_capacity_factor(&mut self, factor: f64) {
        self.capacity_factor = factor.clamp(0.0, 1.0);
    }

    /// The current effective-capacity multiplier.
    pub fn capacity_factor(&self) -> f64 {
        self.capacity_factor
    }

    /// `true` unless the link is administratively/faultily down.
    pub fn is_up(&self) -> bool {
        self.capacity_factor > 0.0
    }

    /// Offers `bytes` for transmission this tick.
    pub fn offer(&mut self, bytes: u64) {
        self.offered_bytes_this_tick += bytes;
    }

    /// Bytes this link can carry in one tick.
    fn capacity_per_tick(&self, tick: SimDuration) -> u64 {
        ((self.capacity_bps as f64 / 8.0) * tick.as_secs_f64()) as u64
    }

    /// Closes the tick: computes utilization, splits offered traffic into
    /// delivered and dropped, and resets the per-tick accumulator.
    ///
    /// Returns `(delivered_fraction, dropped_bytes)` for the tick.
    pub fn settle_tick(&mut self, tick: SimDuration) -> (f64, u64) {
        let offered = self.offered_bytes_this_tick;
        self.offered_bytes_this_tick = 0;
        // The stochastic draws advance once per settled tick regardless of
        // traffic, so the stream position is a pure function of tick count.
        let mut queue_drop = false;
        if let Some(model) = self.model {
            let jitter_us =
                -(model.jitter_mean.as_micros() as f64) * (1.0 - unit(&mut self.rng_state)).ln();
            self.last_latency_us = model.base_latency.as_micros() + jitter_us as u64;
            queue_drop = unit(&mut self.rng_state) < model.drop_p;
        }
        if self.capacity_factor <= 0.0 {
            // Link down: everything offered is lost.
            self.last_utilization = if offered > 0 { f64::INFINITY } else { 0.0 };
            self.dropped_bytes_total += offered;
            return (0.0, offered);
        }
        let cap = ((self.capacity_per_tick(tick) as f64 * self.capacity_factor) as u64).max(1);
        self.last_utilization = offered as f64 / cap as f64;
        if queue_drop {
            // Queue-drop tick: the whole offered burst is tail-dropped.
            self.queue_dropped_total += offered;
            self.dropped_bytes_total += offered;
            return (0.0, offered);
        }
        if offered <= cap {
            self.delivered_bytes_total += offered;
            (1.0, 0)
        } else {
            let dropped = offered - cap;
            self.delivered_bytes_total += cap;
            self.dropped_bytes_total += dropped;
            (cap as f64 / offered as f64, dropped)
        }
    }

    /// Offered/capacity ratio of the last settled tick (may exceed 1).
    pub fn utilization(&self) -> f64 {
        self.last_utilization
    }

    /// Total bytes delivered over the link's lifetime.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes_total
    }

    /// Total bytes dropped by contention.
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_types::{Dpid, PortNo};

    fn link(capacity_bps: u64) -> SimLink {
        SimLink::new(
            LinkId::new(Dpid::new(1), PortNo::new(1), Dpid::new(2), PortNo::new(2)),
            capacity_bps,
        )
    }

    #[test]
    fn under_capacity_delivers_everything() {
        let mut l = link(8_000_000); // 1 MB/s
        l.offer(100_000);
        let (frac, dropped) = l.settle_tick(SimDuration::from_secs(1));
        assert_eq!(frac, 1.0);
        assert_eq!(dropped, 0);
        assert!((l.utilization() - 0.1).abs() < 1e-9);
        assert!(l.utilization() <= 1.0);
        assert_eq!(l.delivered_bytes(), 100_000);
    }

    #[test]
    fn over_capacity_drops_excess() {
        let mut l = link(8_000_000); // 1 MB/s per second-tick
        l.offer(2_000_000);
        let (frac, dropped) = l.settle_tick(SimDuration::from_secs(1));
        assert!((frac - 0.5).abs() < 1e-9);
        assert_eq!(dropped, 1_000_000);
        assert!(l.utilization() > 1.0);
        assert_eq!(l.delivered_bytes(), 1_000_000);
        assert_eq!(l.dropped_bytes(), 1_000_000);
    }

    #[test]
    fn tick_resets_offer() {
        let mut l = link(8_000_000);
        l.offer(500_000);
        l.settle_tick(SimDuration::from_secs(1));
        let (frac, _) = l.settle_tick(SimDuration::from_secs(1));
        assert_eq!(frac, 1.0);
        assert_eq!(l.utilization(), 0.0);
    }

    #[test]
    fn sub_second_ticks_scale_capacity() {
        let l = link(8_000_000);
        assert_eq!(l.capacity_per_tick(SimDuration::from_millis(100)), 100_000);
    }

    #[test]
    fn downed_link_drops_everything_and_recovers() {
        let mut l = link(8_000_000);
        l.set_capacity_factor(0.0);
        assert!(!l.is_up());
        l.offer(100_000);
        let (frac, dropped) = l.settle_tick(SimDuration::from_secs(1));
        assert_eq!(frac, 0.0);
        assert_eq!(dropped, 100_000);
        assert_eq!(l.delivered_bytes(), 0);
        assert_eq!(l.dropped_bytes(), 100_000);
        l.set_capacity_factor(1.0);
        l.offer(100_000);
        let (frac, dropped) = l.settle_tick(SimDuration::from_secs(1));
        assert_eq!(frac, 1.0);
        assert_eq!(dropped, 0);
        assert_eq!(l.delivered_bytes(), 100_000);
    }

    #[test]
    fn degraded_link_scales_capacity() {
        let mut l = link(8_000_000); // 1 MB per second-tick
        l.set_capacity_factor(0.5); // now 500 KB
        assert!(l.is_up());
        l.offer(1_000_000);
        let (frac, dropped) = l.settle_tick(SimDuration::from_secs(1));
        assert!((frac - 0.5).abs() < 1e-9, "frac {frac}");
        assert_eq!(dropped, 500_000);
        assert!(l.utilization() > 1.0);
    }

    #[test]
    fn model_draws_are_seed_deterministic() {
        let mut a = link(8_000_000);
        let mut b = link(8_000_000);
        a.set_model(LinkModel::wan(), 99);
        b.set_model(LinkModel::wan(), 99);
        for _ in 0..200 {
            a.offer(10_000);
            b.offer(10_000);
            assert_eq!(
                a.settle_tick(SimDuration::from_millis(100)),
                b.settle_tick(SimDuration::from_millis(100))
            );
            assert_eq!(a.last_latency_us, b.last_latency_us);
        }
        let mut c = link(8_000_000);
        c.set_model(LinkModel::wan(), 100);
        c.offer(10_000);
        c.settle_tick(SimDuration::from_millis(100));
        // A different seed produces a different latency stream.
        assert_ne!(a.last_latency_us, 0);
        assert_ne!(c.last_latency_us, a.last_latency_us);
    }

    #[test]
    fn model_streams_are_placement_independent() {
        // Same seed, different link identity -> different stream.
        let mut a = link(8_000_000);
        let mut b = SimLink::new(
            LinkId::new(Dpid::new(3), PortNo::new(1), Dpid::new(4), PortNo::new(2)),
            8_000_000,
        );
        a.set_model(LinkModel::wan(), 7);
        b.set_model(LinkModel::wan(), 7);
        a.settle_tick(SimDuration::from_millis(100));
        b.settle_tick(SimDuration::from_millis(100));
        assert_ne!(a.last_latency_us, b.last_latency_us);
    }

    #[test]
    fn latency_draws_ride_above_base_latency() {
        let mut l = link(8_000_000);
        l.set_model(LinkModel::wan(), 5);
        for _ in 0..100 {
            l.settle_tick(SimDuration::from_millis(100));
            assert!(l.last_latency_us >= 20_000, "{}", l.last_latency_us);
        }
    }

    #[test]
    fn queue_drop_rate_converges_to_drop_p() {
        let mut l = link(8_000_000_000); // never capacity-limited here
        l.set_model(LinkModel::lossy(0.1), 42);
        let ticks = 20_000u64;
        let mut dropped_ticks = 0u64;
        for _ in 0..ticks {
            l.offer(1_000);
            let (_, dropped) = l.settle_tick(SimDuration::from_millis(100));
            if dropped > 0 {
                dropped_ticks += 1;
            }
        }
        let rate = dropped_ticks as f64 / ticks as f64;
        assert!((rate - 0.1).abs() < 0.01, "observed drop rate {rate}");
        assert_eq!(l.queue_dropped_total, dropped_ticks * 1_000);
        assert_eq!(l.dropped_bytes(), l.queue_dropped_total);
    }

    #[test]
    fn zero_drop_model_never_queue_drops() {
        let mut l = link(8_000_000);
        l.set_model(LinkModel::lossy(0.0), 1);
        for _ in 0..1_000 {
            l.offer(1_000);
            l.settle_tick(SimDuration::from_millis(100));
        }
        assert_eq!(l.queue_dropped_total, 0);
        assert_eq!(l.delivered_bytes(), 1_000_000);
    }

    #[test]
    fn capacity_factor_is_clamped() {
        let mut l = link(8_000_000);
        l.set_capacity_factor(7.0);
        assert_eq!(l.capacity_factor(), 1.0);
        l.set_capacity_factor(-1.0);
        assert_eq!(l.capacity_factor(), 0.0);
    }
}
