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

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

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

/// The low bit of an armed budget: the fire kills the process.
const KILL: i64 = 1;

/// Counts persistence events and injects a crash when armed.
///
/// Every pool owns one ([`crate::PmemPool::injector`]), disarmed from the
/// pool's creation and counting each of its events from then on;
/// [`CrashInjector::arm`] gives a budget of events after which the *next*
/// event fires. Every thread on the pool observes the same budget; it
/// fires in whichever thread exhausts it, only once per arming, and
/// [`CrashInjector::fired`] says so until the next `arm` or `disarm`.
///
/// [`CrashInjector::arm_kill`] swaps the panic for a `SIGKILL` of the
/// process: the fork-based harness's (`crates/crashtest`) exact,
/// replayable fail-stop at persistence event N.
#[derive(Debug)]
pub struct CrashInjector {
    /// Twice the events left before the fire, plus [`KILL`] for a
    /// `SIGKILL`, so that one store arms it; `-1` = disarmed, [`FIRED`]
    /// or below = fired.
    budget: AtomicI64,
    /// Total events observed since construction (never reset by arm).
    observed: AtomicU64,
}

impl Default for CrashInjector {
    /// A disarmed injector that has observed nothing.
    fn default() -> Self {
        CrashInjector { budget: AtomicI64::new(-1), observed: AtomicU64::new(0) }
    }
}

impl CrashInjector {
    /// Arm the injector so that after `n` further events, the next event
    /// fires, panicking with [`CrashPoint`]. `n == 0` means the very next
    /// event crashes.
    pub fn arm(&self, n: u64) {
        self.budget.store(2 * n as i64, Ordering::SeqCst);
    }

    /// Arm the injector to `SIGKILL` the whole process at the event
    /// instead of panicking: no unwinding, no destructors, so only state
    /// outside the process (a file-backed pool) survives, for a parent
    /// process to check.
    pub fn arm_kill(&self, n: u64) {
        self.budget.store(2 * n as i64 + KILL, Ordering::SeqCst);
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

    /// Record one persistence event; `Some(kill)` if this one is the
    /// fire (the caller must then call [`CrashInjector::fire`] with it).
    /// Only one caller per arming sees `Some`.
    #[inline]
    pub(crate) fn tick(&self) -> Option<bool> {
        self.observed.fetch_add(1, Ordering::Relaxed);
        // Fast path: disarmed, or fired already.
        if self.budget.load(Ordering::Relaxed) < 0 {
            return None;
        }
        // The decrement that ends the budget fires, and marks it FIRED:
        // a racing thread finds it negative and does not fire too.
        let left = self.budget.fetch_sub(2, Ordering::SeqCst);
        (left == 0 || left == KILL).then(|| {
            self.budget.store(FIRED, Ordering::SeqCst);
            left == KILL
        })
    }

    /// Crash the calling thread with [`CrashPoint`], or kill the process.
    pub(crate) fn fire(&self, kill: bool) -> ! {
        if kill {
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
        if let Some(kill) = inj.tick() {
            inj.fire(kill)
        }
    }

    #[test]
    fn disarmed_never_fires() {
        let inj = CrashInjector::default();
        for _ in 0..1000 {
            on_event(&inj);
        }
        assert_eq!(inj.observed(), 1000);
    }

    #[test]
    fn fires_after_budget() {
        let inj = CrashInjector::default();
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
        let inj = CrashInjector::default();
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

    /// The arming word carries the action: the fire says whether to kill.
    #[test]
    fn the_fire_carries_its_action() {
        let inj = CrashInjector::default();
        inj.arm_kill(2);
        assert_eq!([inj.tick(), inj.tick(), inj.tick(), inj.tick()], [None, None, Some(true), None]);
        inj.arm(1);
        assert_eq!([inj.tick(), inj.tick(), inj.tick()], [None, Some(false), None]);
        assert!(inj.fired());
    }

    #[test]
    fn disarm_cancels() {
        let inj = CrashInjector::default();
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
