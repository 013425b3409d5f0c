//! The locks of a ThreadSanitizer build (`--cfg tsan`): spin locks whose
//! every hand-off is an acquire or release on an atomic of this crate,
//! which the sanitizer instruments. A waiter yields its CPU between
//! tries. Like the std-backed locks they never poison: a guard dropped
//! by an unwinding thread unlocks as any other does.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::*};

/// Spin until `try_once` succeeds.
fn spin(mut try_once: impl FnMut() -> bool) {
    while !try_once() {
        std::thread::yield_now();
    }
}

/// Non-poisoning mutex with parking_lot's `lock()` signature.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    locked: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: the value moves with the mutex, so it needs only `T: Send`.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: `locked` lets one thread at a time reach the value, which it
// may then move out of (`mem::replace`), so sharing needs `T: Send`
// only, as for std's `Mutex`.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    #[inline]
    pub const fn new(value: T) -> Mutex<T> {
        Mutex { locked: AtomicBool::new(false), value: UnsafeCell::new(value) }
    }

    #[inline]
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        spin(|| self.locked.compare_exchange_weak(false, true, Acquire, Relaxed).is_ok());
        MutexGuard { mutex: self }
    }

    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let won = self.locked.compare_exchange(false, true, Acquire, Relaxed).is_ok();
        won.then_some(MutexGuard { mutex: self })
    }

    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<T: ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// A held [`Mutex`]; dropping it unlocks.
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: this guard holds the lock, so no other reference to the
        // value exists.
        unsafe { &*self.mutex.value.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, and `&mut self` makes this the only
        // reference through the guard.
        unsafe { &mut *self.mutex.value.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.mutex.locked.store(false, Release);
    }
}

/// `RwLock::state` while a writer holds the lock; any other value counts
/// the readers.
const WRITER: usize = usize::MAX;

/// Non-poisoning reader-writer lock with parking_lot's API.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    state: AtomicUsize,
    value: UnsafeCell<T>,
}

// SAFETY: the value moves with the lock, so it needs only `T: Send`.
unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
// SAFETY: readers share `&T` across threads (`T: Sync`), and a writer may
// move the value out (`T: Send`), as for std's `RwLock`.
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

impl<T> RwLock<T> {
    #[inline]
    pub const fn new(value: T) -> RwLock<T> {
        RwLock { state: AtomicUsize::new(0), value: UnsafeCell::new(value) }
    }
}

impl<T: ?Sized> RwLock<T> {
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        spin(|| {
            let readers = self.state.load(Relaxed);
            readers < WRITER - 1
                && self.state.compare_exchange_weak(readers, readers + 1, Acquire, Relaxed).is_ok()
        });
        RwLockReadGuard { lock: self }
    }

    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        spin(|| self.state.compare_exchange_weak(0, WRITER, Acquire, Relaxed).is_ok());
        RwLockWriteGuard { lock: self }
    }
}

impl<T: ?Sized> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

/// A shared hold on an [`RwLock`]; dropping it releases the hold.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: this guard counts as a reader, so no writer holds the
        // lock and no `&mut T` exists.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.state.fetch_sub(1, Release);
    }
}

/// The exclusive hold on an [`RwLock`]; dropping it unlocks.
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: this guard holds the lock exclusively: no reader or
        // other writer has a reference to the value.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, and `&mut self` makes this the only
        // reference through the guard.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.state.store(0, Release);
    }
}
