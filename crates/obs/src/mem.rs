//! Allocation tracking and per-unit memory budgets.
//!
//! [`TrackingAlloc`] is a `#[global_allocator]` shim over the system
//! allocator that maintains two process-wide gauges — `live_bytes`
//! (currently allocated) and `peak_bytes` (high-water mark) — plus a
//! per-thread gross-allocation counter that per-unit **memory budgets**
//! are measured against. Binaries opt in:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: qual_obs::mem::TrackingAlloc = qual_obs::mem::TrackingAlloc;
//! ```
//!
//! Without the shim installed every probe reads zero and budgets never
//! trigger — the library never assumes it owns the allocator.
//!
//! The budget discipline mirrors the solver-step budgets in the engine:
//! [`unit_budget`] arms a limit for the current thread (the worker about
//! to run one unit), the engine's work-accounting loop polls
//! [`unit_overrun`] — one relaxed atomic load when no budget is armed
//! anywhere — and an overrun unwinds as a structured diagnostic through
//! the same rollback-and-exclude path as a solver-step overrun, instead
//! of the process dying by OOM.
//!
//! Safety inside the allocator: the thread-local counters are
//! const-initialized `Cell`s (no lazy init, no `Drop`), so touching them
//! from `alloc` can neither recurse nor re-enter TLS destruction;
//! accesses go through `try_with` so allocation during thread teardown
//! degrades to "not counted" rather than aborting.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Bytes currently allocated process-wide (when the shim is installed).
static LIVE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE`].
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Threads with an armed unit budget; zero keeps both the allocator's
/// per-thread accounting and [`unit_overrun`] on their fast paths.
static BUDGETS_ARMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Gross bytes this thread has allocated (frees are not subtracted:
    /// budgets bound the *work* a unit's allocations represent, and a
    /// same-thread net gauge would be confounded by cross-thread frees).
    static THREAD_ALLOCATED: Cell<u64> = const { Cell::new(0) };
    /// The armed budget, as (baseline gross bytes, limit).
    static THREAD_BUDGET: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// The tracking allocator. A unit struct: all state is static.
pub struct TrackingAlloc;

fn note_alloc(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // Most allocations set no new high: a plain load skips the locked
    // read-modify-write then. Skipping is exact, because it happens only
    // when `PEAK` already holds at least `live`.
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
    if BUDGETS_ARMED.load(Ordering::Relaxed) > 0 {
        // Teardown-tolerant: a dead TLS slot just loses the count.
        let _ = THREAD_ALLOCATED.try_with(|c| c.set(c.get().wrapping_add(bytes)));
    }
}

fn note_dealloc(bytes: u64) {
    let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(bytes))
    });
}

// SAFETY: delegates every operation to `System`; the bookkeeping around
// the delegation allocates nothing (const-init TLS cells, atomics).
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        note_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let old = layout.size() as u64;
            let new = new_size as u64;
            if new >= old {
                note_alloc(new - old);
            } else {
                note_dealloc(old - new);
            }
        }
        p
    }
}

/// Bytes currently allocated, or 0 when the shim is not installed.
#[must_use]
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// The process-lifetime allocation high-water mark, or 0 when the shim
/// is not installed.
#[must_use]
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Gross bytes the current thread has allocated while any budget was
/// armed (the gauge unit budgets are measured in).
#[must_use]
pub fn thread_allocated_bytes() -> u64 {
    THREAD_ALLOCATED.try_with(Cell::get).unwrap_or(0)
}

/// An armed per-unit memory budget on the current thread. Dropping the
/// guard disarms it (restoring any outer budget).
pub struct UnitBudget {
    prev: Option<(u64, u64)>,
}

impl Drop for UnitBudget {
    fn drop(&mut self) {
        let _ = THREAD_BUDGET.try_with(|b| b.set(self.prev));
        BUDGETS_ARMED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Arms a memory budget of `limit_bytes` for the current thread's next
/// unit of work, measured as gross allocation from this point on. The
/// engine polls [`unit_overrun`] from its work-accounting loop.
#[must_use]
pub fn unit_budget(limit_bytes: u64) -> UnitBudget {
    BUDGETS_ARMED.fetch_add(1, Ordering::SeqCst);
    let baseline = thread_allocated_bytes();
    let prev = THREAD_BUDGET
        .try_with(|b| b.replace(Some((baseline, limit_bytes))))
        .unwrap_or(None);
    UnitBudget { prev }
}

/// Whether the current thread has blown its armed memory budget, as
/// `Some((used_bytes, limit_bytes))`. One relaxed atomic load when no
/// budget is armed anywhere in the process.
#[must_use]
pub fn unit_overrun() -> Option<(u64, u64)> {
    if BUDGETS_ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    let (baseline, limit) = THREAD_BUDGET.try_with(Cell::get).ok().flatten()?;
    let used = thread_allocated_bytes().saturating_sub(baseline);
    (used > limit).then_some((used, limit))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the shim, so the gauges stay at
    // whatever the atomics hold; budgets are driven here by simulating
    // the allocator's bookkeeping directly.

    /// The gauges are process-wide, and the harness runs tests on
    /// parallel threads: each test here holds this lock, so another
    /// test's simulated allocation never lands between one test's
    /// `note_dealloc` and its read of the gauge.
    fn serialize() -> std::sync::MutexGuard<'static, ()> {
        static GAUGES: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GAUGES.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn budget_arms_measures_and_restores() {
        let _g = serialize();
        assert_eq!(unit_overrun(), None, "no budget armed");
        {
            let _b = unit_budget(100);
            assert_eq!(unit_overrun(), None, "nothing allocated yet");
            note_alloc(64);
            assert_eq!(unit_overrun(), None, "64 <= 100");
            note_alloc(64);
            let (used, limit) = unit_overrun().expect("128 > 100");
            assert_eq!(limit, 100);
            assert!(used >= 128);
        }
        assert_eq!(unit_overrun(), None, "guard drop disarms");
    }

    #[test]
    fn nested_budgets_shadow_and_restore() {
        let _g = serialize();
        let _outer = unit_budget(u64::MAX);
        {
            let _inner = unit_budget(10);
            note_alloc(11);
            assert!(unit_overrun().is_some(), "inner budget trips");
        }
        assert_eq!(unit_overrun(), None, "outer budget is generous");
    }

    #[test]
    fn live_gauge_never_underflows() {
        let _g = serialize();
        let before = live_bytes();
        note_dealloc(u64::MAX);
        assert_eq!(live_bytes(), 0);
        note_alloc(before); // restore for other tests' sanity
    }
}
