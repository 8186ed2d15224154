//! The one non-cryptographic hasher of the workspace's hot maps.

use std::hash::Hasher;

/// The FxHash construction (rustc's): one rotate-xor-multiply per word
/// written, a fraction of SipHash's cost on a short fixed-layout key.
/// For maps whose keys the program itself makes (the flow table's shape
/// buckets, the store index's postings) and which are never iterated,
/// so neither flooding resistance nor a per-process seed is wanted.
/// Every method is `#[inline]`: the maps that use it live in other
/// crates, and a call per word would cost more than the mixing.
///
/// # Examples
///
/// ```
/// use athena_types::hash::WordHasher;
/// use std::collections::HashMap;
/// use std::hash::BuildHasherDefault;
///
/// let mut m: HashMap<u32, &str, BuildHasherDefault<WordHasher>> = HashMap::default();
/// m.insert(7, "seven");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply mixes upward only, so a word whose entropy sits in
        // its high bits (an `f64` index key: small integers differ only
        // above bit 44) leaves every lower bit of the state constant. Fold
        // the high half down and multiply once more, so every bit from
        // the fold upward depends on it; then rotate the strong bits down
        // to where the map takes its bucket index from, which leaves its
        // seven tag bits (the top ones) varying as well.
        let h = self.0 ^ (self.0 >> 32);
        h.wrapping_mul(0x517c_c1b7_2722_0a95).rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            self.mix(chunk.iter().fold(0, |w, b| (w << 8) | u64::from(*b)));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// How many distinct bucket indexes (low eight bits) and tags (top
    /// seven bits) 256 keys get, each key hashed by `write`.
    fn spread(write: impl Fn(&mut WordHasher, u32)) -> (usize, usize) {
        let hashes: Vec<u64> = (0..256)
            .map(|i| {
                let mut h = WordHasher::default();
                write(&mut h, i);
                h.finish()
            })
            .collect();
        let low: HashSet<u64> = hashes.iter().map(|h| h & 0xff).collect();
        let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        (low.len(), tags.len())
    }

    /// A map takes its bucket from the low bits and its tag from the top
    /// seven, so both must vary whether a key's entropy sits in a word's
    /// low bits (addresses, ports) or its high bits (an `f64` holding a
    /// small integer, as a store index key does). Of 256 such `f64`
    /// keys, a finish that only rotates puts all in 2 bucket indexes, and
    /// one that returns the state as it is puts all in 1.
    #[test]
    fn low_and_high_entropy_words_spread_over_buckets_and_tags() {
        let addresses = spread(|h, i| {
            h.write_u8(3);
            h.write_u32(0x0a00_0000 + i);
        });
        let floats = spread(|h, i| {
            h.write_u8(2);
            h.write_u64(f64::from(i).to_bits());
        });
        for (name, (low, tags)) in [("addresses", addresses), ("floats", floats)] {
            assert!(low >= 128, "{name}: {low} bucket indexes of 256");
            assert!(tags >= 64, "{name}: {tags} tags of 128");
        }
    }
}
