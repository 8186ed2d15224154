//! Deterministic ordered fan-out over borrowed threads.
//!
//! The paper's prototype inherits parallelism from its substrates (Spark
//! executors, MongoDB shards). This crate gives the reproduction the
//! same property for the few heavy items its call sites hold — compute
//! partitions, engine shards, k-means restarts — without giving up the
//! byte-identical determinism the chaos and recovery gates enforce, and
//! without keeping a thread between jobs: [`par_map_indexed`] /
//! [`par_map`] map over `0..n` / a vector with results **in index
//! order** at any width, [`par_each_mut`] runs a closure on every
//! element of a slice in place, and [`threads`] is the configured width.
//!
//! # One job
//!
//! A job of `n` items at width `w` is cut into fixed chunks of
//! `chunk_size(n, w)` items and run by `runners(n, w) = min(w, chunks)`
//! runners (at least one) — a pure function of the inputs: a requested
//! width is honoured up to one runner per chunk, there are never more
//! runners than items, and no constant caps it. One runner means the
//! caller maps `0..n` in place and no thread is started. Otherwise the
//! job opens a [`std::thread::scope`], starts `runners - 1` threads and
//! **runs as the last runner itself**, so it completes even if no thread
//! could be started, and a nested job simply opens its own scope.
//! Runners claim chunks from one atomic cursor into their own
//! `(start, results)` parts, which the caller concatenates by `start`:
//! which runner computes which chunk is racy, *where the result lands*
//! is not — the same bytes as the width-1 run. Every thread is joined
//! before the job returns, so closures borrow from the caller; a panic
//! in any item is re-raised on the caller with its payload once all
//! runners have stopped. Runners record nothing causal and emit no trace
//! event, so trace streams are identical across widths. Starting and
//! joining a thread costs ≈ 0.1 ms; jobs here live 1–70 ms (DESIGN.md §11).
//!
//! ```
//! let base = vec![10u64, 20, 30];
//! let shifted = athena_parallel::par_map_indexed(64, |i| base[i % 3] + i as u64);
//! assert_eq!(shifted[5], 35);
//! let mut counters = [0u32; 16];
//! athena_parallel::par_each_mut(&mut counters, |c| *c += 1);
//! assert_eq!(counters, [1; 16]);
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

/// The configured job width: `ATHENA_THREADS` if set to a positive
/// integer, otherwise the host's available parallelism. The variable is
/// read per job, so tests and benches can flip it at runtime; the host
/// is asked once (on Linux the call reads cgroup files, ~12 µs).
pub fn threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    let host = *HOST.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()));
    athena_types::env_usize("ATHENA_THREADS", host)
}

const MIN_CHUNK: usize = 32;

/// The fixed chunk size of an `n`-item job at `width`: ~8 chunks per
/// runner (fine enough for the cursor to balance), floored at
/// [`MIN_CHUNK`] so cheap items are not shredded into claim-dominated
/// confetti, capped at `ceil(n / width)` so every runner still gets a
/// chunk when items are few and heavy. A pure function of its inputs.
fn chunk_size(n: usize, width: usize) -> usize {
    let width = width.max(1);
    (n / width.saturating_mul(8))
        .max(MIN_CHUNK)
        .min(n.div_ceil(width))
        .max(1)
}

/// How many runners an `n`-item job at `width` has: one per chunk up to
/// `width` (chunks hold at least one item, so never more than `n`).
fn runners(n: usize, width: usize) -> usize {
    width.min(n.div_ceil(chunk_size(n, width))).max(1)
}

/// Maps `f` over `0..n` at `width`, returning results in index order.
/// The deterministic core every entry point lowers to.
fn run_ordered<R: Send>(n: usize, width: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let runners = runners(n, width);
    if runners == 1 {
        return (0..n).map(f).collect();
    }
    let chunk = chunk_size(n, width);
    // Relaxed: the cursor only partitions indices; the joins publish.
    let cursor = AtomicUsize::new(0);
    let run_chunks = || {
        let mut parts = Vec::new();
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                return parts;
            }
            let end = (start + chunk).min(n);
            parts.push((start, (start..end).map(&f).collect::<Vec<R>>()));
        }
    };
    let mut parts = thread::scope(|s| {
        // A failed spawn is one runner fewer, never a failed job.
        let started: Vec<_> = (1..runners)
            .filter_map(|_| thread::Builder::new().spawn_scoped(s, run_chunks).ok())
            .collect();
        let mut parts = run_chunks();
        for runner in started {
            match runner.join() {
                Ok(theirs) => parts.extend(theirs),
                // The scope joins the remaining runners before unwinding.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        parts
    });
    parts.sort_unstable_by_key(|&(start, _)| start);
    parts.into_iter().flat_map(|(_, results)| results).collect()
}

/// Maps `f` over `0..n` at the configured width, results in index order.
pub fn par_map_indexed<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    run_ordered(n, threads(), f)
}

/// Maps `f` over a vector in parallel, returning results in item order:
/// the parallel, order-preserving `items.iter().map(f).collect()`.
pub fn par_map<T: Sync, R: Send>(items: Vec<T>, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    run_ordered(items.len(), threads(), |i| f(&items[i]))
}

/// Runs `f` on every element of `items` in parallel, in place: for owned
/// stateful partitions (the dataplane's shards and their tick phases).
pub fn par_each_mut<T: Send>(items: &mut [T], f: impl Fn(&mut T) + Sync) {
    // Safe Rust's way to hand `&mut items[i]` to whichever runner claims
    // `i`: each borrow waits in a cell that its one claimant empties.
    let cells: Vec<Mutex<Option<&mut T>>> = items
        .iter_mut()
        .map(|item| Mutex::new(Some(item)))
        .collect();
    run_ordered(cells.len(), threads(), |i| {
        let claimed = cells
            .get(i)
            .and_then(|cell| cell.lock().unwrap_or_else(PoisonError::into_inner).take());
        if let Some(item) = claimed {
            f(item);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const WIDTHS: [usize; 5] = [1, 2, 3, 8, 64];

    fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
        // Env vars are process-global; serialize the tests that set one.
        static ENV: Mutex<()> = Mutex::new(());
        let _guard = ENV.lock().unwrap_or_else(PoisonError::into_inner);
        std::env::set_var("ATHENA_THREADS", n.to_string());
        let out = f();
        std::env::remove_var("ATHENA_THREADS");
        out
    }

    #[test]
    fn par_map_preserves_order_at_every_width() {
        let expect: Vec<u64> = (0..500u64).map(|x| x * 3 + 1).collect();
        for width in WIDTHS {
            let got = with_threads(width, || par_map((0..500u64).collect(), |x| x * 3 + 1));
            assert_eq!(got, expect, "width {width}");
        }
    }

    #[test]
    fn ordered_fold_is_bit_equal_across_widths() {
        // Floating-point addition is not associative: only results in
        // index order give bit-equal sums at different widths.
        let items: Vec<f64> = (0..2000).map(|i| 1.0 / f64::from(i + 1)).collect();
        let sum = |width| {
            with_threads(width, || par_map(items.clone(), |x| x.sin()))
                .into_iter()
                .fold(0.0f64, |a, b| a + b)
        };
        assert_eq!(sum(1).to_bits(), sum(8).to_bits());
    }

    #[test]
    fn empty_and_one_item_jobs_run_inline() {
        assert_eq!(par_map(Vec::<u32>::new(), |x| *x), Vec::<u32>::new());
        let caller = thread::current().id();
        let ran_on = with_threads(8, || par_map(vec![41u32], |_| thread::current().id()));
        assert_eq!(ran_on, vec![caller]);
    }

    #[test]
    fn runner_count_is_a_pure_function_of_items_and_width() {
        for ((n, width), expect) in [
            ((8, 2), 2),
            ((16, 2), 2),
            ((16, 8), 8),
            ((3, 8), 3),
            ((1, 8), 1),
            // One runner is the caller: nothing is started.
            ((0, 8), 1),
            // Never more threads than items, with no cap constant.
            ((100, 100_000), 100),
            ((500, 64), 63),
            ((7, usize::MAX), 7),
        ] {
            assert_eq!(runners(n, width), expect, "runners({n}, {width})");
        }
    }

    #[test]
    fn a_requested_width_is_honoured() {
        // Twelve one-item chunks at width 12 (the resident pool capped
        // this at nine runners on a two-core box): every item waits at a
        // barrier that only twelve concurrent runners can pass.
        let barrier = std::sync::Barrier::new(12);
        let got = with_threads(12, || {
            par_map_indexed(12, |i| {
                barrier.wait();
                i
            })
        });
        assert_eq!(got, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn nested_jobs_complete() {
        let got = with_threads(4, || {
            par_map_indexed(6, |i| par_map_indexed(5, move |j| i * 10 + j))
        });
        assert_eq!(got[3], vec![30, 31, 32, 33, 34]);
        assert_eq!(got.len(), 6);
    }

    #[test]
    fn panics_propagate_without_deadlock() {
        let result = catch_unwind(|| {
            with_threads(4, || {
                par_map_indexed(64, |i| {
                    assert!(i != 17, "boom");
                    i
                })
            })
        });
        let payload = result.expect_err("the item's panic reaches the caller");
        assert!(payload
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("boom")));
        // Nothing outlives a job, so the next one just works.
        let after = with_threads(4, || par_map_indexed(16, |i| i + 1));
        assert_eq!(after[0], 1);
    }

    #[test]
    fn chunk_size_floors_and_caps() {
        // Floor: cheap-item jobs are not shredded at high width.
        assert_eq!(chunk_size(256, 8), 32);
        // Cap: few heavy items still spread across every runner.
        assert_eq!(chunk_size(8, 8), 1);
        assert_eq!(chunk_size(200, 8), 25);
        // Above the floor the ~8-chunks-per-runner rule is unchanged.
        assert_eq!(chunk_size(3000, 8), 46);
        assert_eq!(chunk_size(0, 4), 1);
    }

    #[test]
    fn par_each_mut_visits_every_element_once_in_place() {
        for n in [0usize, 1, 2, 17, 100] {
            for width in WIDTHS {
                let mut items: Vec<(usize, u32)> = (0..n).map(|i| (i, 0)).collect();
                with_threads(width, || {
                    par_each_mut(&mut items, |(_, visits)| *visits += 1)
                });
                let expect: Vec<(usize, u32)> = (0..n).map(|i| (i, 1)).collect();
                assert_eq!(items, expect, "n {n} width {width}");
            }
        }
    }

    #[test]
    fn par_each_mut_reraises_a_panic() {
        let mut items: Vec<usize> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                par_each_mut(&mut items, |i| assert!(*i != 40, "boom"));
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn closures_borrow_from_the_caller() {
        // The regression test for "no `'static`": neither call compiles
        // against a resident pool.
        let local: Vec<u64> = (0..100).collect();
        let doubled = with_threads(4, || par_map_indexed(local.len(), |i| local[i] * 2));
        assert_eq!(doubled[99], 198);
        let mut slots = [0u64; 40];
        let slice = &mut slots[4..36];
        with_threads(4, || par_each_mut(slice, |s| *s = local[7]));
        assert_eq!(slots[3..6], [0, 7, 7]);
        assert_eq!(slots[35..37], [7, 0]);
    }

    #[test]
    fn threads_reads_env_per_call() {
        let n = with_threads(3, threads);
        assert_eq!(n, 3);
    }
}
