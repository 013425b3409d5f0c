//! Offline stand-in for `parking_lot`: the same non-poisoning `Mutex` /
//! `RwLock` API, implemented over `std::sync`. A thread that panics while
//! holding a lock does not poison it for everyone else — matching
//! parking_lot semantics, which the workspace relies on in crash tests.
//!
//! Under `--cfg tsan` (a ThreadSanitizer build) both are spin locks over
//! this crate's own atomics instead (`spin.rs`): std is not rebuilt with
//! the sanitizer, so TSan cannot see the hand-off in std's futex path and
//! reports every access a std lock orders as a race.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

#[cfg(tsan)]
mod spin;
#[cfg(tsan)]
pub use spin::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(not(tsan))]
mod std_lock;
#[cfg(not(tsan))]
pub use std_lock::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(5);
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn panicked_holder_does_not_poison() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("die holding the lock");
        })
        .join();
        *m.lock() += 1; // must not panic
        assert_eq!(*m.lock(), 1);
    }
}
