//! Cooperative per-thread deadlines.
//!
//! A `cquald` worker thread installs a [`DeadlineGuard`] before
//! analyzing a request; the engine's per-expression work accounting and
//! the solver's worklist loop poll [`expired`] at their natural step
//! boundaries. When the wall clock passes the deadline the poll flips
//! to `true` *sticky* — every later poll on that thread agrees — and
//! the analysis unwinds through the same structured fault-isolation
//! paths a blown work budget takes: rolled back, excluded, reported. No
//! thread is ever killed; a "hung" analysis is one that stopped
//! checking, and the checks sit inside every loop the analysis can
//! spend time in.
//!
//! The token is thread-local on purpose: one worker analyzes one
//! request at a time, and a thread-local costs no synchronization on
//! the poll fast path.

use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    /// The current deadline, if any, and whether it already fired.
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
    static FIRED: Cell<bool> = const { Cell::new(false) };
    /// Poll counter: the clock is read once per `CHECK_EVERY` polls.
    static POLLS: Cell<u32> = const { Cell::new(0) };
}

/// How many [`expired`] polls share one clock read. The engine polls
/// per AST node and the solver per ~1k edge relaxations; reading the
/// clock every 64th poll bounds deadline overshoot well under a
/// millisecond while keeping the fast path branch-and-increment only.
const CHECK_EVERY: u32 = 64;

/// Installs a deadline `ms` milliseconds from now on this thread and
/// returns the guard that removes it. Dropping the guard (normally or
/// during unwinding) clears the deadline and the fired latch.
#[must_use]
pub fn deadline_after_ms(ms: u64) -> DeadlineGuard {
    DEADLINE.with(|d| d.set(Some(Instant::now() + Duration::from_millis(ms))));
    FIRED.with(|f| f.set(false));
    POLLS.with(|p| p.set(0));
    DeadlineGuard { _priv: () }
}

/// Clears this thread's deadline when dropped.
pub struct DeadlineGuard {
    _priv: (),
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        DEADLINE.with(|d| d.set(None));
        FIRED.with(|f| f.set(false));
    }
}

/// Whether this thread's deadline (if any) has passed. Sticky: once
/// `true`, stays `true` until the guard drops, so a cancelled unit
/// cannot un-cancel itself halfway through unwinding.
#[must_use]
pub fn expired() -> bool {
    if FIRED.with(Cell::get) {
        return true;
    }
    let Some(deadline) = DEADLINE.with(Cell::get) else {
        return false;
    };
    let polls = POLLS.with(|p| {
        let n = p.get().wrapping_add(1);
        p.set(n);
        n
    });
    // Read the clock on the very first poll after the guard installs —
    // time already spent (a stall before the loop even started) must be
    // observed promptly — then on every `CHECK_EVERY`-th poll.
    if polls != 1 && !polls.is_multiple_of(CHECK_EVERY) {
        return false;
    }
    if Instant::now() >= deadline {
        FIRED.with(|f| f.set(true));
        true
    } else {
        false
    }
}

/// Forces this thread's deadline to fire on the next poll (testing and
/// supervisor-initiated cancellation).
pub fn cancel_now() {
    if DEADLINE.with(Cell::get).is_some() {
        FIRED.with(|f| f.set(true));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_deadline_never_expires() {
        for _ in 0..1000 {
            assert!(!expired());
        }
    }

    #[test]
    fn deadline_fires_and_is_sticky_then_clears() {
        {
            let _g = deadline_after_ms(1);
            std::thread::sleep(Duration::from_millis(5));
            // Poll until the batched clock read happens.
            let mut fired = false;
            for _ in 0..(CHECK_EVERY * 2) {
                if expired() {
                    fired = true;
                    break;
                }
            }
            assert!(fired, "past deadline must be observed within a batch");
            assert!(expired(), "sticky once fired");
        }
        assert!(!expired(), "guard drop clears the deadline");
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let _g = deadline_after_ms(120_000);
        for _ in 0..(CHECK_EVERY * 4) {
            assert!(!expired());
        }
    }

    #[test]
    fn cancel_now_fires_immediately() {
        let _g = deadline_after_ms(120_000);
        cancel_now();
        assert!(expired());
    }

    #[test]
    fn deadlines_are_per_thread() {
        let _g = deadline_after_ms(1);
        std::thread::sleep(Duration::from_millis(5));
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..(CHECK_EVERY * 2) {
                    assert!(!expired(), "other threads are unaffected");
                }
            });
        });
    }
}
