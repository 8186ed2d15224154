//! Bounded mutation operators applied to base attack traces.
//!
//! Every unseen-attack variant is a *mutation* of a base generator: rates
//! are scaled, probe schedules stretched, packet sizes inflated, starts
//! jittered. Each operator draws its parameter from a declared closed
//! interval ([`BOUNDS`]) so the mutant stays a recognizable member of its
//! family — the property suite asserts sampled parameters never leave
//! these intervals.

use athena_dataplane::FlowSpec;
use athena_types::SimDuration;
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Closed parameter intervals every mutation draw must respect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MutationBounds {
    /// Rate multiplier interval.
    rate_scale: (f64, f64),
    /// Flow-duration multiplier interval.
    duration_scale: (f64, f64),
    /// Packet-size multiplier interval.
    packet_size_scale: (f64, f64),
    /// Extra per-flow start jitter in seconds.
    start_jitter_s: (f64, f64),
}

/// The declared mutation-operator bounds (documented in DESIGN.md §12).
pub const BOUNDS: MutationBounds = MutationBounds {
    rate_scale: (0.25, 4.0),
    duration_scale: (0.5, 8.0),
    packet_size_scale: (0.5, 4.0),
    start_jitter_s: (0.0, 5.0),
};

/// One concrete draw of the mutation operators.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MutationParams {
    /// Multiplies every flow's offered rate.
    pub rate_scale: f64,
    /// Multiplies every flow's duration.
    pub duration_scale: f64,
    /// Multiplies every flow's packet size.
    pub packet_size_scale: f64,
    /// Upper bound of the extra uniform start jitter, in seconds.
    pub start_jitter_s: f64,
}

impl MutationParams {
    /// The no-op mutation (base families carry this).
    pub fn identity() -> Self {
        MutationParams {
            rate_scale: 1.0,
            duration_scale: 1.0,
            packet_size_scale: 1.0,
            start_jitter_s: 0.0,
        }
    }

    /// Draws parameters uniformly from the given sub-intervals, which are
    /// clamped into the declared [`BOUNDS`] first — a family cannot
    /// request a draw outside the taxonomy.
    pub fn sample(
        rng: &mut StdRng,
        rate: (f64, f64),
        duration: (f64, f64),
        packet_size: (f64, f64),
        jitter: (f64, f64),
    ) -> Self {
        MutationParams {
            rate_scale: draw(rng, rate, BOUNDS.rate_scale),
            duration_scale: draw(rng, duration, BOUNDS.duration_scale),
            packet_size_scale: draw(rng, packet_size, BOUNDS.packet_size_scale),
            start_jitter_s: draw(rng, jitter, BOUNDS.start_jitter_s),
        }
    }

    /// Whether every parameter lies inside the declared [`BOUNDS`].
    pub fn in_bounds(&self) -> bool {
        within(self.rate_scale, BOUNDS.rate_scale)
            && within(self.duration_scale, BOUNDS.duration_scale)
            && within(self.packet_size_scale, BOUNDS.packet_size_scale)
            && within(self.start_jitter_s, BOUNDS.start_jitter_s)
    }

    /// Applies the operators to a base trace in place. Rates keep the
    /// generators' 8 kbit/s floor, packet sizes the simulator's 64-byte
    /// floor, durations a 100 ms floor; start jitter draws one uniform
    /// offset per flow from `rng`.
    pub fn apply(&self, flows: &mut [FlowSpec], rng: &mut StdRng) {
        for f in flows.iter_mut() {
            f.rate_bps = ((f.rate_bps as f64 * self.rate_scale) as u64).max(8_000);
            f.duration = SimDuration::from_secs_f64(
                (f.duration.as_secs_f64() * self.duration_scale).max(0.1),
            );
            f.packet_size = ((f64::from(f.packet_size) * self.packet_size_scale) as u32).max(64);
            if self.start_jitter_s > 0.0 {
                let j = rng.random_range(0.0..self.start_jitter_s);
                f.start += SimDuration::from_secs_f64(j);
            }
        }
    }
}

fn draw(rng: &mut StdRng, want: (f64, f64), bound: (f64, f64)) -> f64 {
    let lo = want.0.clamp(bound.0, bound.1);
    let hi = want.1.clamp(bound.0, bound.1);
    if hi > lo {
        rng.random_range(lo..hi)
    } else {
        lo
    }
}

fn within(x: f64, bound: (f64, f64)) -> bool {
    (bound.0..=bound.1).contains(&x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_types::{FiveTuple, Ipv4Addr, SimTime};
    use rand::SeedableRng;

    fn base_flow() -> FlowSpec {
        FlowSpec::new(
            FiveTuple::udp(
                Ipv4Addr::new(10, 0, 0, 1),
                5000,
                Ipv4Addr::new(10, 0, 0, 2),
                53,
            ),
            SimTime::from_secs(5),
            SimDuration::from_secs(10),
            1_000_000,
        )
    }

    #[test]
    fn identity_is_in_bounds_and_a_noop() {
        let p = MutationParams::identity();
        assert!(p.in_bounds());
        let mut flows = vec![base_flow()];
        let mut rng = StdRng::seed_from_u64(1);
        p.apply(&mut flows, &mut rng);
        assert_eq!(flows[0], base_flow());
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let pa = MutationParams::sample(&mut a, (1.5, 4.0), (0.5, 1.0), (1.0, 2.0), (0.0, 2.0));
        let pb = MutationParams::sample(&mut b, (1.5, 4.0), (0.5, 1.0), (1.0, 2.0), (0.0, 2.0));
        assert_eq!(pa, pb);
        assert!(pa.in_bounds());
    }

    #[test]
    fn requested_intervals_are_clamped_into_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = MutationParams::sample(
            &mut rng,
            (0.0, 100.0),
            (0.0, 100.0),
            (0.0, 100.0),
            (-5.0, 100.0),
        );
        assert!(p.in_bounds(), "{p:?}");
    }

    #[test]
    fn apply_respects_floors() {
        let p = MutationParams {
            rate_scale: 0.25,
            duration_scale: 0.5,
            packet_size_scale: 0.5,
            start_jitter_s: 1.0,
        };
        let mut flows = vec![base_flow()];
        let mut rng = StdRng::seed_from_u64(2);
        p.apply(&mut flows, &mut rng);
        assert!(flows[0].rate_bps >= 8_000);
        assert!(flows[0].packet_size >= 64);
        assert!(flows[0].duration >= SimDuration::from_millis(100));
        assert!(flows[0].start >= SimTime::from_secs(5));
    }
}
