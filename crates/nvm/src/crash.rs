//! Deterministic crash-point injection.
//!
//! Recoverability (paper §3, Theorem 5.4) must hold for a crash at *any*
//! point in the execution. To test that, a [`CrashInjector`] counts
//! persistence events (flushes, fences, commits and decommits) and, when
//! a pre-armed budget is exhausted, aborts the executing thread by
//! panicking with a recognizable payload. The test harness catches the unwind, invokes
//! [`crate::PmemPool::crash`] to discard non-persisted lines, runs
//! recovery, and verifies the heap invariants.
//!
//! Counting *persistence events* rather than instructions keeps the crash
//! points aligned with the moments the persistent image actually changes,
//! which is where the interesting interleavings live. Tests typically
//! sweep the budget from 1 to the total number of events observed in a
//! crash-free run, plus random budgets under concurrency.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Panic payload used to signal an injected crash, and the only one the
/// injector raises. Harnesses match on this with [`CrashPoint::is`] after
/// `catch_unwind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint;

impl CrashPoint {
    /// Returns true if a caught panic payload is an injected crash.
    pub fn is(payload: &(dyn std::any::Any + Send)) -> bool {
        payload.is::<CrashPoint>()
    }
}

/// What firing the injector does to the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashAction {
    /// Panic with [`CrashPoint`] — the cooperative style: the harness
    /// catches the unwind in-process and simulates the power failure
    /// itself (`PmemPool::crash`).
    Panic,
    /// `SIGKILL` the whole process — the kill-based style: no unwinding,
    /// no destructors, no chance to "finish" anything. Only meaningful
    /// when the surviving state lives outside the process (a file-backed
    /// pool) and a parent process performs the recovery check.
    Kill,
}

/// Counts persistence events and injects a crash when armed.
///
/// Disarmed by default; [`CrashInjector::arm`] gives a budget of events
/// after which the *next* event panics. The injector is shared (`Arc`) so a
/// pool and many threads can observe the same budget; the panic fires in
/// whichever thread exhausts it, and only once per arming.
///
/// [`CrashInjector::arm_kill`] swaps the panic for a real `SIGKILL` of the
/// process — the deterministic flavour of the fork-based crash harness
/// (`crates/crashtest`): persistence event N is an exact, replayable
/// program point, and the kill at it is a true fail-stop (nothing after
/// the event executes, not even unwinding).
#[derive(Debug, Default)]
pub struct CrashInjector {
    /// Remaining events before crash; negative = disarmed.
    budget: AtomicI64,
    /// Total events observed since construction (never reset by arm).
    observed: AtomicU64,
    /// 0 = panic (default), 1 = SIGKILL self.
    action: AtomicU8,
}

impl CrashInjector {
    /// A new, disarmed injector.
    pub fn new() -> Arc<Self> {
        Arc::new(CrashInjector {
            budget: AtomicI64::new(-1),
            observed: AtomicU64::new(0),
            action: AtomicU8::new(0),
        })
    }

    /// Arm the injector: after `n` further events, the next event panics
    /// with [`CrashPoint`]. `n == 0` means the very next event crashes.
    pub fn arm(&self, n: u64) {
        self.action.store(0, Ordering::SeqCst);
        self.budget.store(n as i64, Ordering::SeqCst);
    }

    /// Arm the injector to `SIGKILL` the whole process at the event
    /// instead of panicking. See [`CrashAction::Kill`].
    pub fn arm_kill(&self, n: u64) {
        self.action.store(1, Ordering::SeqCst);
        self.budget.store(n as i64, Ordering::SeqCst);
    }

    /// Disarm without crashing.
    pub fn disarm(&self) {
        self.budget.store(-1, Ordering::SeqCst);
    }

    /// Number of persistence events observed over the injector's lifetime.
    /// Run once disarmed to learn the event count, then sweep `arm(0..n)`.
    pub fn observed(&self) -> u64 {
        self.observed.load(Ordering::SeqCst)
    }

    /// Record one persistence event; panics with [`CrashPoint`] if the
    /// armed budget is exhausted. Called by the pool on flush and fence.
    #[inline]
    pub fn on_event(&self) {
        self.observed.fetch_add(1, Ordering::Relaxed);
        // Fast path: disarmed.
        if self.budget.load(Ordering::Relaxed) < 0 {
            return;
        }
        let prev = self.budget.fetch_sub(1, Ordering::SeqCst);
        if prev == 0 {
            // Our decrement consumed the final budget: crash here. Leave
            // the counter negative so concurrent threads do not also fire.
            self.budget.store(i64::MIN / 2, Ordering::SeqCst);
            if self.action.load(Ordering::SeqCst) == 1 {
                // Fail-stop for real: SIGKILL cannot be caught, so nothing
                // past this persistence event runs in any thread. If the
                // kill somehow fails, fall through to the panic so the
                // event never passes silently.
                let _ = crate::sys::kill(crate::sys::getpid(), crate::sys::SIGKILL);
                std::thread::sleep(std::time::Duration::from_secs(10));
            }
            std::panic::panic_any(CrashPoint);
        }
        // prev < 0: lost a race with the crashing thread, which left the
        // budget deeply negative; treat as disarmed.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_never_fires() {
        let inj = CrashInjector::new();
        for _ in 0..1000 {
            inj.on_event();
        }
        assert_eq!(inj.observed(), 1000);
    }

    #[test]
    fn fires_after_budget() {
        let inj = CrashInjector::new();
        inj.arm(3);
        inj.on_event();
        inj.on_event();
        inj.on_event();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inj.on_event()));
        let payload = r.expect_err("should have crashed");
        assert!(CrashPoint::is(&*payload));
    }

    #[test]
    fn fires_only_once() {
        let inj = CrashInjector::new();
        inj.arm(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inj.on_event()));
        assert!(r.is_err());
        // Subsequent events are quiet.
        inj.on_event();
        inj.on_event();
    }

    #[test]
    fn disarm_cancels() {
        let inj = CrashInjector::new();
        inj.arm(1);
        inj.on_event();
        inj.disarm();
        inj.on_event(); // would have fired
    }

    #[test]
    fn crash_point_matches_no_other_payload() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new(CrashPoint);
        assert!(CrashPoint::is(&*boxed));
        for other in [Box::new("injected crash point") as Box<dyn std::any::Any + Send>, Box::new(42u32)] {
            assert!(!CrashPoint::is(&*other));
        }
    }
}
