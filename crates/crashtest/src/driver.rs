//! The crash-point driver every power-failure sweep runs on. It names
//! only `nvm` types: a heap on one pool is a [`Victim`].
//!
//! [`crash_at`] builds a victim on a fresh [`CrashInjector`] and runs it,
//! crashed at the `budget + 1`-th persistence event after the run arms
//! it; [`sweep`] does so for budgets 0, 1, 2 … until a run completes,
//! whose budget is the event count. The fire freezes the victim's crash
//! image, so one run serves every [`CrashStyle`].

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::thread::ScopedJoinHandle;

use nvm::{CrashInjector, CrashPoint, CrashStyle, PmemPool};

/// The strict model and two eviction seeds (half and a tenth of the dirty
/// lines kept): the styles a sweep checks unless it names its own.
pub const STYLES: [CrashStyle; 3] = [
    CrashStyle::StrictFlushOnly,
    CrashStyle::RandomEviction { survive_permille: 500, seed: 11 },
    CrashStyle::RandomEviction { survive_permille: 100, seed: 12 },
];

/// A heap the driver can crash.
pub trait Victim: Sized {
    /// The pool the heap lives on.
    fn pool(&self) -> &PmemPool;
    /// The heap a crash image holds, not yet recovered, on a
    /// `Mode::Direct` pool of its own.
    fn adopt(image: &[u8]) -> Self;
}

/// One crash point: `build` a victim, then `run` it; `run`'s second
/// argument arms the injector. Returns the victim, frozen at the fire, and
/// whether the injector fired. Any panic but the injected crash is
/// resumed: a `run` that starts threads joins them with [`join`].
pub fn crash_at<V: Victim>(
    budget: u64,
    build: impl FnOnce(Arc<CrashInjector>) -> V,
    run: impl FnOnce(&V, &dyn Fn()),
) -> (V, bool) {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        // Print every panic but the injected crash.
        let report = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !CrashPoint::is(info.payload()) {
                report(info)
            }
        }));
    });
    let inj = CrashInjector::new();
    let victim = build(inj.clone());
    let ran = panic::catch_unwind(AssertUnwindSafe(|| run(&victim, &|| inj.arm(budget))));
    let fired = inj.fired();
    inj.disarm();
    match ran {
        Err(payload) if !fired || !CrashPoint::is(&*payload) => panic::resume_unwind(payload),
        _ => (victim, fired),
    }
}

/// Join every worker, then resume a panic if one panicked: a real one
/// before the injected crash, which `scope`'s own re-raise would hide
/// behind a payload of its own. A thread's cache drains at its exit,
/// after `scope` has stopped waiting for it, so only a join leaves the
/// heap quiescent (a simulated crash needs that).
pub fn join(workers: Vec<ScopedJoinHandle<'_, ()>>) {
    let mut panics: Vec<_> = workers.into_iter().filter_map(|w| w.join().err()).collect();
    panics.sort_by_key(|payload| CrashPoint::is(&**payload));
    if let Some(payload) = panics.into_iter().next() {
        panic::resume_unwind(payload)
    }
}

/// [`crash_at`] every budget until a run completes; `check` gets each
/// crashed victim, the heap adopted from each of `styles`' images of it,
/// the budget and the style. Returns the event count and the victim whose
/// run completed.
pub fn sweep<V: Victim>(
    styles: &[CrashStyle],
    mut build: impl FnMut(Arc<CrashInjector>) -> V,
    mut run: impl FnMut(&V, &dyn Fn()),
    mut check: impl FnMut(&V, V, u64, CrashStyle),
) -> (u64, V) {
    for budget in 0.. {
        let (victim, fired) = crash_at(budget, &mut build, &mut run);
        if !fired {
            return (budget, victim);
        }
        for &style in styles {
            check(&victim, V::adopt(&victim.pool().crash_image(style)), budget, style);
        }
    }
    unreachable!("a run crashed at every one of 2^64 budgets")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ralloc::{Ralloc, RallocConfig};

    /// Thread A fires; thread B, let go when A unwinds, panics for real.
    /// [`crash_at`] resumes B's panic; when B does not panic, the run is a
    /// crash.
    #[test]
    fn a_real_panic_after_the_fire_is_resumed() {
        let run = |fail: bool| {
            let build = |inj| Ralloc::create(4 << 20, RallocConfig { injector: Some(inj), ..RallocConfig::tracked() });
            crash_at(0, build, |heap, arm| {
                let (fired, after_fire) = std::sync::mpsc::channel::<()>();
                arm();
                std::thread::scope(|s| {
                    let a = s.spawn(move || {
                        let _fired = fired;
                        heap.pool().fence()
                    });
                    let b = s.spawn(move || {
                        _ = after_fire.recv();
                        assert!(!fail, "a real failure");
                    });
                    join(vec![a, b]);
                })
            })
            .1
        };
        assert!(run(false), "the injector did not fire");
        let r = panic::catch_unwind(AssertUnwindSafe(|| run(true)));
        let payload = r.expect_err("a real panic after the fire was taken for the crash");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"a real failure"));
    }
}
