//! The locks of every build but a ThreadSanitizer one: `std::sync`'s,
//! with the poison taken off.

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Non-poisoning mutex with parking_lot's `lock()` signature.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    #[inline]
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    #[inline]
    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(v) => v,
            Err(e) => e.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        }
    }

    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(v) => v,
            Err(e) => e.into_inner(),
        }
    }
}

/// Non-poisoning reader-writer lock with parking_lot's API.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    #[inline]
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.0.read() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        }
    }

    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.0.write() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        }
    }
}
