//! Machine-speed calibration.
//!
//! The benchmark runs on a small shared virtual machine whose effective
//! speed wanders for minutes at a time: two back-to-back sets of ten
//! `cbench_saturate` runs of one binary had median host seconds per round
//! of 1.07 and 1.51. No bound the contract
//! allows (≤ 25 %) survives that, and no amount of repetition inside a
//! run removes a drift that outlasts the run.
//!
//! So a fixed reference kernel is sampled at process start, after set-up
//! and after every rep, and end-to-end times are reported in **reference
//! seconds**: host seconds multiplied by the run's machine speed,
//! `REFERENCE_S / median kernel sample`. When the machine slows by a
//! third, the kernel and the reps slow together and the reported value
//! stays put. One speed per run, not one per rep: a single 50 ms sample
//! says little about the second that follows it, the median of a run's
//! twenty says a lot about the run.
//!
//! A sample is taken in a **child process** (`ledger --kernel`), outside
//! every timer. The kernel allocates; run inside the measured process it
//! would be timed on whatever heap the program under test left behind,
//! and a change to the program could move the divisor. A fresh process
//! owes nothing to the program but the machine they share.
//!
//! The kernel mixes what the program's hot paths mix — integer hashing,
//! small-string keyed map inserts and clones (the store's documents),
//! a sort, and a dependent walk over a few megabytes — so that contention
//! for the core and for the cache both show in it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The argument that makes the binary run the kernel and print a sample.
pub const KERNEL_FLAG: &str = "--kernel";

/// Seconds a kernel run takes on this repository's box at its usual
/// speed. Only a scale: it makes reference seconds read like seconds.
pub const REFERENCE_S: f64 = 0.0095;

/// Timed kernel runs per sample, after one untimed run that touches the
/// child's fresh pages. A sample is their mean: like a rep, it should
/// feel every slowdown that happens while it runs.
const RUNS_PER_SAMPLE: usize = 5;

const WALK_LEN: usize = 1 << 19; // 4 MiB of u64 indices
const WALK_STEPS: usize = 1 << 14;
const DOCS: usize = 2_000;
const FIELDS: usize = 12;
const SORT_LEN: usize = 60_000;
const HASH_ROUNDS: u64 = 1_000_000;

/// The reference kernel and its preallocated inputs.
struct Kernel {
    /// A single-cycle permutation: `walk[i]` is the index visited after `i`.
    walk: Vec<u64>,
    keys: Vec<String>,
}

impl Kernel {
    fn new() -> Self {
        // Sattolo's algorithm with a fixed xorshift stream: one cycle
        // through every slot, so the walk cannot be prefetched.
        let mut walk: Vec<u64> = (0..WALK_LEN as u64).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..WALK_LEN).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            walk.swap(i, (state % i as u64) as usize);
        }
        let keys = (0..FIELDS).map(|i| format!("FIELD_NAME_{i:02}")).collect();
        Kernel { walk, keys }
    }

    fn run(&self) -> u64 {
        // Integer hashing.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..HASH_ROUNDS {
            h = (h ^ i).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Document-shaped maps: build, clone, look up.
        let mut docs: Vec<BTreeMap<String, f64>> = Vec::with_capacity(DOCS);
        for d in 0..DOCS {
            let mut doc = BTreeMap::new();
            for (f, key) in self.keys.iter().enumerate() {
                doc.insert(key.clone(), (d * FIELDS + f) as f64);
            }
            docs.push(doc);
        }
        let copies = docs.clone();
        let mut sum = 0.0;
        for doc in &copies {
            sum += doc.get(&self.keys[FIELDS / 2]).copied().unwrap_or(0.0);
        }
        // A sort.
        let mut v: Vec<u64> = (0..SORT_LEN as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20)
            .collect();
        v.sort_unstable();
        // A dependent walk over 4 MiB.
        let mut at = 0u64;
        for _ in 0..WALK_STEPS {
            at = self.walk[at as usize];
        }
        h ^ sum.to_bits() ^ v[SORT_LEN / 2] ^ at
    }
}

/// The child's side of a sample: mean seconds of a few kernel runs.
pub fn sample_here() -> f64 {
    let kernel = Kernel::new();
    black_box(kernel.run());
    let t = Instant::now();
    for _ in 0..RUNS_PER_SAMPLE {
        black_box(kernel.run());
    }
    t.elapsed().as_secs_f64() / RUNS_PER_SAMPLE as f64
}

/// One sample from a child process; `None` if it could not be had.
fn sample_in_child() -> Option<f64> {
    let output = Command::new(std::env::current_exe().ok()?)
        .arg(KERNEL_FLAG)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let seconds: f64 = String::from_utf8(output.stdout).ok()?.trim().parse().ok()?;
    (output.status.success() && seconds > 0.0).then_some(seconds)
}

/// The samples of one run.
#[derive(Default)]
pub struct Calibrator {
    samples: Vec<f64>,
}

impl Calibrator {
    pub fn sample(&mut self) {
        match sample_in_child() {
            Some(s) => self.samples.push(s),
            None => eprintln!("ledger: no sample from `ledger {KERNEL_FLAG}`"),
        }
    }

    /// The run's machine speed: reference kernel seconds over the median
    /// sample; `None` before any sample was taken.
    pub fn speed(&self) -> Option<f64> {
        let kernel_s = crate::stats::median(&self.samples);
        (kernel_s > 0.0).then(|| REFERENCE_S / kernel_s)
    }

    /// Slowest and fastest sample, as speeds.
    pub fn speed_range(&self) -> (f64, f64) {
        let slowest = self
            .samples
            .iter()
            .copied()
            .fold(f64::MIN_POSITIVE, f64::max);
        let fastest = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        (REFERENCE_S / slowest, REFERENCE_S / fastest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_takes_measurable_time() {
        let k = Kernel::new();
        assert_eq!(k.run(), k.run());
        let s = sample_here();
        assert!(s > 1e-4 && s < 5.0, "a kernel run took {s} s");
    }

    #[test]
    fn walk_is_one_cycle() {
        let k = Kernel::new();
        let mut at = 0u64;
        let mut steps = 0usize;
        loop {
            at = k.walk[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, WALK_LEN);
    }

    #[test]
    fn speed_is_reference_over_median_sample() {
        let mut c = Calibrator::default();
        assert_eq!(c.speed(), None);
        // Machine 25 % slower than the reference, with one outlier.
        c.samples = vec![REFERENCE_S * 1.25, REFERENCE_S * 1.25, REFERENCE_S * 5.0];
        let speed = c.speed().unwrap();
        assert!((speed - 0.8).abs() < 1e-12);
        // A rep that took 2.5 host seconds is a 2.0 reference-second rep.
        assert!((2.5 * speed - 2.0).abs() < 1e-12);
        let (low, high) = c.speed_range();
        assert!((low - 0.2).abs() < 1e-12 && (high - 0.8).abs() < 1e-12);
    }
}
