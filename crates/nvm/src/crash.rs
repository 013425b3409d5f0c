//! Deterministic crash-point injection.
//!
//! Recoverability (paper §3, Theorem 5.4) must hold for a crash at *any*
//! persistence event (flush, fence, commit or decommit). A
//! [`CrashInjector`] counts them and, when an armed budget runs out,
//! **fires**: the thread at that event panics with [`CrashPoint`], or the
//! process is killed ([`CrashInjector::arm_kill`]). The contract is fire →
//! freeze → one image per style: on a `Mode::Tracked` pool the fire
//! freezes the crash image under the pool's lock, so no later event on any
//! thread changes it, [`crate::PmemPool::crash_image`] reads it under each
//! [`crate::CrashStyle`] without changing it, and
//! [`crate::PmemPool::crash_with`] reverts the pool to one of them.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Panic payload of an injected crash. `std::thread::scope` re-raises a
/// worker's with a payload of its own, so a harness that tells a crash
/// from a real panic joins its workers and reads their payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint;

impl CrashPoint {
    /// True if a panic payload is the one an injected crash raises.
    pub fn is(payload: &(dyn std::any::Any + Send)) -> bool {
        payload.is::<CrashPoint>()
    }
}

/// A fired budget: far below the disarmed `-1`, out of a racing decrement's reach.
const FIRED: i64 = i64::MIN / 2;

/// Counts persistence events and injects a crash when armed.
///
/// Disarmed by default; [`CrashInjector::arm`] gives a budget of events
/// after which the *next* event fires. The injector is shared (`Arc`) so a
/// pool and many threads can observe the same budget; it fires in
/// whichever thread exhausts it, only once per arming, and
/// [`CrashInjector::fired`] says so until the next `arm` or `disarm`.
///
/// [`CrashInjector::arm_kill`] swaps the panic for a `SIGKILL` of the
/// process: the fork-based harness's (`crates/crashtest`) exact,
/// replayable fail-stop at persistence event N.
#[derive(Debug, Default)]
pub struct CrashInjector {
    /// Remaining events before crash; `-1` = disarmed, [`FIRED`] or
    /// below = fired.
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

    /// Arm the injector: after `n` further events, the next event fires,
    /// panicking with [`CrashPoint`]. `n == 0` means the very next event
    /// crashes.
    pub fn arm(&self, n: u64) {
        self.action.store(0, Ordering::SeqCst);
        self.budget.store(n as i64, Ordering::SeqCst);
    }

    /// Arm the injector to `SIGKILL` the whole process at the event
    /// instead of panicking: no unwinding, no destructors, so only state
    /// outside the process (a file-backed pool) survives, for a parent
    /// process to check.
    pub fn arm_kill(&self, n: u64) {
        self.action.store(1, Ordering::SeqCst);
        self.budget.store(n as i64, Ordering::SeqCst);
    }

    /// Disarm without crashing.
    pub fn disarm(&self) {
        self.budget.store(-1, Ordering::SeqCst);
    }

    /// Number of persistence events observed over the injector's lifetime.
    pub fn observed(&self) -> u64 {
        self.observed.load(Ordering::SeqCst)
    }

    /// True once the armed budget ran out, until the next `arm` or
    /// `disarm`: the crash happened, whatever payload reached the caller.
    pub fn fired(&self) -> bool {
        self.budget.load(Ordering::SeqCst) <= FIRED
    }

    /// Record one persistence event; true if this one is the fire (the
    /// caller must then call [`CrashInjector::fire`]). Only one caller
    /// per arming sees true.
    #[inline]
    pub(crate) fn tick(&self) -> bool {
        self.observed.fetch_add(1, Ordering::Relaxed);
        // Fast path: disarmed, or fired already.
        if self.budget.load(Ordering::Relaxed) < 0 {
            return false;
        }
        // The decrement that ends the budget fires, and marks it FIRED:
        // a racing thread finds it negative and does not fire too.
        self.budget.fetch_sub(1, Ordering::SeqCst) == 0 && {
            self.budget.store(FIRED, Ordering::SeqCst);
            true
        }
    }

    /// Crash the calling thread with [`CrashPoint`], or kill the process.
    pub(crate) fn fire(&self) -> ! {
        if self.action.load(Ordering::SeqCst) == 1 {
            // SIGKILL cannot be caught: nothing past this event runs in
            // any thread. Should the kill fail, the panic still fires.
            let _ = crate::sys::kill(crate::sys::getpid(), crate::sys::SIGKILL);
            std::thread::sleep(std::time::Duration::from_secs(10));
        }
        std::panic::panic_any(CrashPoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event as the pool records it.
    fn on_event(inj: &CrashInjector) {
        if inj.tick() {
            inj.fire()
        }
    }

    #[test]
    fn disarmed_never_fires() {
        let inj = CrashInjector::new();
        for _ in 0..1000 {
            on_event(&inj);
        }
        assert_eq!(inj.observed(), 1000);
    }

    #[test]
    fn fires_after_budget() {
        let inj = CrashInjector::new();
        inj.arm(3);
        on_event(&inj);
        on_event(&inj);
        on_event(&inj);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| on_event(&inj)));
        let payload = r.expect_err("should have crashed");
        assert!(CrashPoint::is(&*payload));
    }

    #[test]
    fn fires_only_once() {
        let inj = CrashInjector::new();
        inj.arm(0);
        assert!(!inj.fired());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| on_event(&inj)));
        assert!(r.is_err());
        // Subsequent events are quiet, and the injector says it fired
        // until it is disarmed.
        on_event(&inj);
        on_event(&inj);
        assert!(inj.fired());
        inj.disarm();
        assert!(!inj.fired());
    }

    #[test]
    fn disarm_cancels() {
        let inj = CrashInjector::new();
        inj.arm(1);
        on_event(&inj);
        inj.disarm();
        on_event(&inj); // would have fired
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
