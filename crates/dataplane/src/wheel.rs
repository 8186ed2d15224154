//! A hierarchical timing wheel over virtual time.
//!
//! The per-tick flow-expiry pass used to scan every switch's full flow
//! table every tick — O(total flows) per tick, which caps topology size.
//! The wheel makes expiry O(due entries): a wake-up is scheduled at the
//! tick a deadline falls on, and advancing the wheel by one tick visits
//! only the slot that tick hashes to (plus a cascade when a coarser
//! level's span wraps).
//!
//! The wheel is *lazy*: entries are never cancelled or re-keyed. A
//! deadline that moves later (idle timeout re-armed by traffic, entry
//! deleted, switch rebooted) leaves its old wake-up in place; the owner
//! re-checks the real deadline when the wake-up fires and re-arms if it
//! is not yet due. Deadlines only ever move *earlier* through a new
//! `schedule` call, so a wake-up always exists at or before the true
//! deadline.
//!
//! Determinism: [`TimingWheel::advance`] returns due entries sorted by
//! `(due, key)`, so fire order is a pure function of the scheduled set —
//! independent of insertion order, hash state, or thread count.

/// Slots per level. 64 keeps slot indexing to shifts/masks.
const SLOTS: u64 = 64;
/// Hierarchy depth. Four levels cover `64^4` ≈ 16.7M time units; with a
/// 1-second tick that is ~194 days of virtual time. Entries past the
/// horizon go to an unsorted overflow list re-examined when the top
/// level wraps.
const LEVELS: usize = 4;

/// A hierarchical timing wheel mapping `u64` time units to keys.
///
/// Time is whatever unit the caller picks (the dataplane uses tick
/// indices). `schedule` may be called with any due time; entries at or
/// before the wheel's current time fire on the next [`TimingWheel::advance`].
#[derive(Debug, Clone)]
pub struct TimingWheel<K> {
    now: u64,
    /// `levels[l][slot]` holds entries whose due time hashes to `slot`
    /// at granularity `64^l`.
    levels: Vec<Vec<Vec<(u64, K)>>>,
    /// Entries beyond the hierarchy's horizon.
    overflow: Vec<(u64, K)>,
    len: usize,
}

impl<K: Ord + Copy> TimingWheel<K> {
    /// Creates a wheel positioned at `start`; the first `advance` fires
    /// entries due after `start`.
    pub fn new(start: u64) -> Self {
        TimingWheel {
            now: start,
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            overflow: Vec::new(),
            len: 0,
        }
    }

    /// Number of scheduled (not yet fired) entries, including stale ones.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel's current time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedules `key` to fire once `advance` passes `due`. A due time
    /// at or before the current time fires on the next advance.
    pub fn schedule(&mut self, due: u64, key: K) {
        let due = due.max(self.now + 1);
        self.len += 1;
        self.insert(due, key);
    }

    fn insert(&mut self, due: u64, key: K) {
        debug_assert!(due > self.now);
        let delta = due - self.now;
        let mut span = SLOTS;
        let mut granularity = 1u64;
        for level in &mut self.levels {
            if delta <= span {
                let slot = ((due / granularity) % SLOTS) as usize;
                if let Some(bucket) = level.get_mut(slot) {
                    bucket.push((due, key));
                    return;
                }
            }
            span = span.saturating_mul(SLOTS);
            granularity *= SLOTS;
        }
        self.overflow.push((due, key));
    }

    /// Advances the wheel to `to`, returning every entry with
    /// `due <= to`, sorted by `(due, key)`.
    pub fn advance(&mut self, to: u64) -> Vec<(u64, K)> {
        let mut fired = Vec::new();
        while self.now < to {
            self.now += 1;
            self.cascade_boundaries();
            // Everything in a level-0 slot was (re-)inserted within the
            // last 64 units, so reaching the slot means it is due now.
            let due_now = self.slot(0, self.now).map(std::mem::take);
            for (due, key) in due_now.into_iter().flatten() {
                debug_assert!(due <= self.now);
                fired.push((due.min(self.now), key));
            }
        }
        self.len -= fired.len();
        fired.sort_unstable();
        fired
    }

    /// Level `l`'s slot for the time `t` (at that level's granularity),
    /// masked by the ring size: every level holds `SLOTS` slots, so
    /// `None` only for a level past the hierarchy.
    fn slot(&mut self, l: usize, t: u64) -> Option<&mut Vec<(u64, K)>> {
        self.levels.get_mut(l)?.get_mut((t % SLOTS) as usize)
    }

    /// Lands an entry in the level-0 slot the fire loop visits next.
    fn fire_next(&mut self, due: u64, key: K) {
        if let Some(bucket) = self.slot(0, self.now) {
            bucket.push((due, key));
        }
    }

    /// At each `64^l` boundary, spills level `l`'s current slot down
    /// into finer levels (or into `fired` on the next slot visit).
    fn cascade_boundaries(&mut self) {
        let mut granularity = SLOTS;
        for l in 1..LEVELS {
            if !self.now.is_multiple_of(granularity) {
                break;
            }
            let entries = self
                .slot(l, self.now / granularity)
                .map(std::mem::take)
                .unwrap_or_default();
            for (due, key) in entries {
                if due <= self.now {
                    // Due exactly at this boundary: land it in the
                    // level-0 slot the fire loop is about to visit.
                    self.fire_next(due, key);
                } else {
                    self.insert(due, key);
                }
            }
            granularity = granularity.saturating_mul(SLOTS);
        }
        // Top-level wrap: re-examine the overflow list.
        if self.now.is_multiple_of(granularity) && !self.overflow.is_empty() {
            let entries = std::mem::take(&mut self.overflow);
            for (due, key) in entries {
                if due <= self.now {
                    self.fire_next(due, key);
                } else {
                    self.insert(due, key);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: a sorted list, fired by linear scan.
    #[derive(Default)]
    struct Naive {
        entries: Vec<(u64, u32)>,
    }

    impl Naive {
        fn schedule(&mut self, now: u64, due: u64, key: u32) {
            self.entries.push((due.max(now + 1), key));
        }
        fn advance(&mut self, to: u64) -> Vec<(u64, u32)> {
            let mut fired: Vec<(u64, u32)> = self
                .entries
                .iter()
                .copied()
                .filter(|(d, _)| *d <= to)
                .collect();
            self.entries.retain(|(d, _)| *d > to);
            fired.sort_unstable();
            fired
        }
    }

    #[test]
    fn fires_in_due_then_key_order() {
        let mut w = TimingWheel::new(0);
        w.schedule(5, 2u32);
        w.schedule(3, 9);
        w.schedule(5, 1);
        assert_eq!(w.advance(10), vec![(3, 9), (5, 1), (5, 2)]);
        assert!(w.is_empty());
    }

    #[test]
    fn past_due_fires_on_next_advance() {
        let mut w = TimingWheel::new(100);
        w.schedule(7, 1u32);
        assert_eq!(w.advance(101), vec![(101, 1)]);
    }

    #[test]
    fn spans_every_level_and_overflow() {
        let mut w = TimingWheel::new(0);
        // One entry per level: 1 (L0), 65 (L1), 64^2+1 (L2), 64^3+1 (L3),
        // and one past the horizon.
        let dues = [1u64, 65, 64 * 64 + 1, 64 * 64 * 64 + 1, 64_u64.pow(4) + 3];
        for (i, d) in dues.iter().enumerate() {
            w.schedule(*d, i as u32);
        }
        assert_eq!(w.len(), 5);
        // Each fires on its own tick — the four past level 0's 64-tick
        // span through the cascades — not earlier and not later.
        for (i, d) in dues.iter().enumerate() {
            assert!(w.advance(d - 1).is_empty(), "{d} fired early");
            assert_eq!(w.advance(*d), vec![(*d, i as u32)], "{d}");
        }
        assert!(w.is_empty());
    }

    #[test]
    fn matches_naive_reference_on_mixed_sequence() {
        // Deterministic pseudo-random walk (splitmix64) interleaving
        // schedules and advances; the wheel must match the sorted scan.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let mut w = TimingWheel::new(0);
        let mut n = Naive::default();
        let mut now = 0u64;
        for i in 0..2000u32 {
            let r = next();
            if r % 3 != 0 {
                let horizon = match r % 5 {
                    0 => 5,
                    1 => 70,
                    2 => 5_000,
                    3 => 300_000,
                    _ => 20_000_000,
                };
                let due = now + 1 + next() % horizon;
                w.schedule(due, i);
                n.schedule(now, due, i);
            } else {
                now += 1 + next() % 200;
                assert_eq!(w.advance(now), n.advance(now), "at t={now}");
            }
        }
        now += 30_000_000;
        assert_eq!(w.advance(now), n.advance(now));
        assert!(w.is_empty());
    }
}
