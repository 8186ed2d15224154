//! Runtime lock-order sentinel.
//!
//! The static analyzer (`crates/analyze`) derives the workspace's lock
//! acquisition-order graph from the call graph and verifies it against
//! `[analyze] lock_order` in `lint.toml`. That derivation is a sound
//! under-approximation: closures and stoplisted method names are not
//! resolved, so an acquisition order introduced through one of those
//! blind spots would slip past the gate. This module closes the loop at
//! runtime: when `ATHENA_LOCK_SENTINEL=1` (or a test forces it on),
//! every tracked acquisition records an ordered edge from each lock the
//! current thread already holds to the lock being acquired, and
//! [`check_against`] cross-checks the observed edges against the same
//! declared order the static gate verifies.
//!
//! Tracking is name-based: locks are registered under the crate-qualified
//! names the static analyzer derives (`"core/detector"`,
//! `"store/coll"`, …), so one declared order serves both checkers.
//! Two instances sharing a name (e.g. every per-collection lock is
//! `"store/coll"`) are treated as one rank; nesting two *different*
//! instances of the same name is deliberately not recorded — the order
//! is per-name, and such nesting is invisible to it. Re-acquiring the
//! *same instance* on one thread is recorded as a self-edge, which
//! [`check_against`] always reports (with `std::sync` primitives it is a
//! guaranteed deadlock).
//!
//! The same switch also counts acquisitions by lock name and mode
//! ([`acquisitions`]): a clock-free measure of what one operation locks,
//! which a test can pin.
//!
//! When the sentinel is disabled, `acquire` is one relaxed atomic load
//! and the tracked types add a `&'static str` per lock — cheap enough to
//! leave compiled into release builds.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{OnceLock, PoisonError};

/// Global switch: 0 = follow `ATHENA_LOCK_SENTINEL`, 1 = forced on,
/// 2 = forced off. Tests force; production follows the environment.
static FORCE: AtomicU8 = AtomicU8::new(0);
static ENV_ON: OnceLock<bool> = OnceLock::new();

/// Observed acquisition-order edges, global across all threads.
static STATE: std::sync::Mutex<SentinelState> = std::sync::Mutex::new(SentinelState {
    edges: BTreeSet::new(),
    counts: BTreeMap::new(),
});

struct SentinelState {
    /// `(held, acquired)` pairs observed at runtime.
    edges: BTreeSet<(&'static str, &'static str)>,
    /// Acquisitions per `(name, mode)`.
    counts: BTreeMap<(&'static str, Access), u64>,
}

/// How a tracked lock was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Access {
    /// A mutex lock.
    Lock,
    /// A shared read of a reader-writer lock.
    Read,
    /// An exclusive write of a reader-writer lock.
    Write,
}

thread_local! {
    /// Stack of `(name, instance address)` locks this thread holds, in
    /// acquisition order.
    static HELD: std::cell::RefCell<Vec<(&'static str, usize)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Whether acquisition tracking is active.
pub fn enabled() -> bool {
    match FORCE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => *ENV_ON.get_or_init(|| crate::env_flag("ATHENA_LOCK_SENTINEL")),
    }
}

/// Overrides the environment gate: `Some(true)` forces tracking on,
/// `Some(false)` off, `None` restores `ATHENA_LOCK_SENTINEL`. For tests.
pub fn force(on: Option<bool>) {
    let v = match on {
        Some(true) => 1,
        Some(false) => 2,
        None => 0,
    };
    FORCE.store(v, Ordering::Relaxed);
}

fn state_guard() -> std::sync::MutexGuard<'static, SentinelState> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Records the acquisition of lock `name` (instance at `addr`, taken as
/// `access`) by the current thread. Returns a token that pops the
/// thread's held stack when dropped, or `None` when tracking is disabled.
fn acquire(name: &'static str, addr: usize, access: Access) -> Option<HeldLock> {
    if !enabled() {
        return None;
    }
    HELD.with(|held| {
        let mut stack = held.borrow_mut();
        let mut st = state_guard();
        *st.counts.entry((name, access)).or_default() += 1;
        for &(held_name, held_addr) in stack.iter() {
            if held_addr == addr {
                // Same instance re-acquired: a self-deadlock with std
                // primitives. Record it as a self-edge so check_against
                // reports it even if the process somehow survives.
                st.edges.insert((name, name));
            } else if held_name != name {
                st.edges.insert((held_name, name));
            }
        }
        stack.push((name, addr));
    });
    Some(HeldLock { name, addr })
}

/// Release token returned by `acquire`; dropping it pops the matching
/// entry from the thread's held-lock stack.
pub struct HeldLock {
    name: &'static str,
    addr: usize,
}

impl Drop for HeldLock {
    fn drop(&mut self) {
        HELD.with(|held| {
            let mut stack = held.borrow_mut();
            if let Some(i) = stack
                .iter()
                .rposition(|&(n, a)| a == self.addr && n == self.name)
            {
                stack.remove(i);
            }
        });
    }
}

/// Snapshot of every observed `(held, acquired)` edge, sorted.
pub fn edges() -> Vec<(&'static str, &'static str)> {
    state_guard().edges.iter().copied().collect()
}

/// Snapshot of the acquisition counts per `(name, mode)`, sorted.
pub fn acquisitions() -> Vec<((&'static str, Access), u64)> {
    state_guard().counts.iter().map(|(k, n)| (*k, *n)).collect()
}

/// Clears all recorded edges and counts (between test scenarios).
pub fn reset() {
    let mut st = state_guard();
    st.edges.clear();
    st.counts.clear();
}

/// Cross-checks the observed edges against a declared total order (the
/// same `[analyze] lock_order` list the static gate verifies). Returns
/// one message per violation: an inverted edge, a self-edge (re-entrant
/// acquisition), or an observed lock missing from the declared order.
pub fn check_against(order: &[String]) -> Vec<String> {
    let st = state_guard();
    let mut out = Vec::new();
    for &(from, to) in &st.edges {
        if from == to {
            out.push(format!(
                "lock `{from}` re-acquired while already held by the same thread"
            ));
            continue;
        }
        let fi = order.iter().position(|n| n == from);
        let ti = order.iter().position(|n| n == to);
        match (fi, ti) {
            (Some(f), Some(t)) if f >= t => out.push(format!(
                "runtime acquisition `{from}` -> `{to}` inverts the declared lock_order \
                 (`{to}` is declared before `{from}`)"
            )),
            (None, _) => out.push(format!(
                "lock `{from}` was acquired at runtime but is not in lock_order"
            )),
            (_, None) => out.push(format!(
                "lock `{to}` was acquired at runtime but is not in lock_order"
            )),
            _ => {}
        }
    }
    out.dedup();
    out
}

/// A mutex (over the in-repo `parking_lot` shim) that reports every
/// acquisition to the sentinel under a fixed crate-qualified name.
pub struct TrackedMutex<T: ?Sized> {
    name: &'static str,
    inner: parking_lot::Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Creates a tracked mutex. `name` must match the crate-qualified
    /// name the static analyzer derives for this field
    /// (`"<crate>/<field>"`).
    pub const fn new(name: &'static str, value: T) -> Self {
        TrackedMutex {
            name,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> TrackedMutex<T> {
    /// Acquires the lock, recording an order edge from every lock the
    /// thread already holds.
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        let held = acquire(
            self.name,
            std::ptr::from_ref(self) as *const () as usize,
            Access::Lock,
        );
        TrackedMutexGuard {
            g: self.inner.lock(),
            _held: held,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: std::fmt::Debug + ?Sized> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard for [`TrackedMutex`]. Field order matters: the inner guard
/// releases the lock before `_held` pops the sentinel stack.
pub struct TrackedMutexGuard<'a, T: ?Sized> {
    g: parking_lot::MutexGuard<'a, T>,
    _held: Option<HeldLock>,
}

impl<T: ?Sized> Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.g
    }
}

impl<T: ?Sized> DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.g
    }
}

/// A reader-writer lock (over the `parking_lot` shim) that reports both
/// read and write acquisitions to the sentinel. The order discipline does
/// not distinguish modes — a read/write inversion deadlocks just as well.
pub struct TrackedRwLock<T: ?Sized> {
    name: &'static str,
    inner: parking_lot::RwLock<T>,
}

impl<T> TrackedRwLock<T> {
    /// Creates a tracked reader-writer lock (see [`TrackedMutex::new`]
    /// for the naming contract).
    pub const fn new(name: &'static str, value: T) -> Self {
        TrackedRwLock {
            name,
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> TrackedRwLock<T> {
    /// Acquires a shared read guard, recording the acquisition.
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        let held = acquire(
            self.name,
            std::ptr::from_ref(self) as *const () as usize,
            Access::Read,
        );
        TrackedReadGuard {
            g: self.inner.read(),
            _held: held,
        }
    }

    /// Acquires an exclusive write guard, recording the acquisition.
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        let held = acquire(
            self.name,
            std::ptr::from_ref(self) as *const () as usize,
            Access::Write,
        );
        TrackedWriteGuard {
            g: self.inner.write(),
            _held: held,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: std::fmt::Debug + ?Sized> std::fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// Shared-read guard for [`TrackedRwLock`].
pub struct TrackedReadGuard<'a, T: ?Sized> {
    g: parking_lot::RwLockReadGuard<'a, T>,
    _held: Option<HeldLock>,
}

impl<T: ?Sized> Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.g
    }
}

/// Exclusive-write guard for [`TrackedRwLock`].
pub struct TrackedWriteGuard<'a, T: ?Sized> {
    g: parking_lot::RwLockWriteGuard<'a, T>,
    _held: Option<HeldLock>,
}

impl<T: ?Sized> Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.g
    }
}

impl<T: ?Sized> DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.g
    }
}

/// Locks a bare `std::sync::Mutex` under a sentinel name, recovering
/// from poisoning. For crates (telemetry) whose hot paths keep `std`
/// primitives and lock through a poison-recovering helper.
pub fn lock_std<'a, T: ?Sized>(
    m: &'a std::sync::Mutex<T>,
    name: &'static str,
) -> StdMutexGuard<'a, T> {
    let held = acquire(
        name,
        std::ptr::from_ref(m) as *const () as usize,
        Access::Lock,
    );
    StdMutexGuard {
        g: m.lock().unwrap_or_else(PoisonError::into_inner),
        _held: held,
    }
}

/// Guard returned by [`lock_std`]. Carries the sentinel token alongside
/// the `std` guard.
pub struct StdMutexGuard<'a, T: ?Sized> {
    g: std::sync::MutexGuard<'a, T>,
    _held: Option<HeldLock>,
}

impl<T: ?Sized> Deref for StdMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.g
    }
}

impl<T: ?Sized> DerefMut for StdMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test covers the whole lifecycle: FORCE/STATE/HELD are global,
    // and splitting scenarios across #[test] fns would interleave them.
    #[test]
    fn records_edges_and_detects_inversions() {
        force(Some(true));
        reset();

        let a = TrackedMutex::new("test/a", 0u32);
        let b = TrackedMutex::new("test/b", 0u32);
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        assert!(edges().contains(&("test/a", "test/b")));

        // Consistent with the declared order: no violations.
        let order = vec!["test/a".to_string(), "test/b".to_string()];
        assert!(check_against(&order).is_empty());

        // Inverted declaration: the same edge is now a violation.
        let inverted = vec!["test/b".to_string(), "test/a".to_string()];
        let v = check_against(&inverted);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("inverts"), "{v:?}");

        // Undeclared participant.
        let partial = vec!["test/a".to_string()];
        assert!(check_against(&partial)[0].contains("not in lock_order"));

        // Stack pops: with a and b released, acquiring b then a records
        // the reverse edge too.
        {
            let _gb = b.lock();
            let _ga = a.lock();
        }
        assert!(edges().contains(&("test/b", "test/a")));

        // RwLock + std helpers record under their names as well.
        reset();
        let rw = TrackedRwLock::new("test/rw", 1u32);
        let m = std::sync::Mutex::new(2u32);
        {
            let _gr = rw.read();
            let _gm = lock_std(&m, "test/std");
        }
        assert!(edges().contains(&("test/rw", "test/std")));
        // Every acquisition is counted by name and mode.
        {
            let _gw = rw.write();
        }
        assert_eq!(
            acquisitions(),
            [
                (("test/rw", Access::Read), 1),
                (("test/rw", Access::Write), 1),
                (("test/std", Access::Lock), 1),
            ]
        );

        // Disabled: nothing is recorded.
        reset();
        force(Some(false));
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        assert!(edges().is_empty());
        assert!(acquisitions().is_empty());
        force(None);
    }
}
