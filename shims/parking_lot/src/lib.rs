//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships a minimal API-compatible subset implemented over `std::sync`
//! primitives. Semantics match what the rest of the workspace relies on:
//! `lock()`/`read()`/`write()` never return `Result` and never poison —
//! a panicked holder simply releases the lock for the next acquirer.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// A non-poisoning mutual-exclusion lock.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized>(std::sync::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    #[cfg_attr(feature = "count", track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "count")]
        count::acquired(std::panic::Location::caller());
        MutexGuard(self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(g)),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard(p.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_tuple("Mutex").field(&&*guard).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// A non-poisoning reader-writer lock.
#[derive(Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard.
    #[cfg_attr(feature = "count", track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(feature = "count")]
        count::acquired(std::panic::Location::caller());
        RwLockReadGuard(self.0.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Acquires an exclusive write guard.
    #[cfg_attr(feature = "count", track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(feature = "count")]
        count::acquired(std::panic::Location::caller());
        RwLockWriteGuard(self.0.write().unwrap_or_else(PoisonError::into_inner))
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

/// Lock acquisitions by call site, for tests that hold a code path to a
/// lock budget.
///
/// Under the `count` feature, [`Mutex::lock`], [`RwLock::read`] and
/// [`RwLock::write`] take their caller's location and, while
/// [`counted`](count::counted) runs, add one to the calling thread's
/// table under that location. Unarmed, an acquisition pays one relaxed
/// load. Only a dev-dependency enables the feature: a build that is
/// measured never counts.
#[cfg(feature = "count")]
pub mod count {
    use std::cell::OnceCell;
    use std::panic::Location;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdGuard, PoisonError};

    /// Where a lock was taken.
    pub type Site = &'static Location<'static>;

    type Table = Vec<(Site, u64)>;

    /// Whether a [`counted`] call is running: the one load an unarmed
    /// acquisition costs.
    static ARMED: AtomicBool = AtomicBool::new(false);

    /// Every thread's table, registered at the thread's first counted
    /// acquisition and kept after it exits.
    static TABLES: StdMutex<Vec<Arc<StdMutex<Table>>>> = StdMutex::new(Vec::new());

    /// Held by the running [`counted`] call.
    static SESSION: StdMutex<()> = StdMutex::new(());

    thread_local! {
        static MINE: OnceCell<Arc<StdMutex<Table>>> = const { OnceCell::new() };
    }

    fn hold<T>(lock: &StdMutex<T>) -> StdGuard<'_, T> {
        lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts one acquisition at `site` on this thread, when armed.
    pub(crate) fn acquired(site: Site) {
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
        let _ = MINE.try_with(|mine| {
            let table = mine.get_or_init(|| {
                let table = Arc::default();
                hold(&TABLES).push(Arc::clone(&table));
                table
            });
            let mut table = hold(table);
            match table.iter_mut().find(|(s, _)| *s == site) {
                Some((_, n)) => *n += 1,
                None => table.push((site, 1)),
            }
        });
    }

    /// Disarms when [`counted`] returns or unwinds.
    struct Armed;

    impl Drop for Armed {
        fn drop(&mut self) {
            ARMED.store(false, Ordering::SeqCst);
        }
    }

    /// Runs `f` armed and returns, with its result, the acquisitions
    /// every thread made while it ran, summed by call site and ordered by
    /// file, line and column.
    ///
    /// Calls run one at a time, and any thread's acquisitions count —
    /// a test that counts is the only test of its binary.
    pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Vec<(Site, u64)>) {
        let _one_at_a_time = hold(&SESSION);
        for table in hold(&TABLES).iter() {
            hold(table).clear();
        }
        let result = {
            ARMED.store(true, Ordering::SeqCst);
            let _armed = Armed;
            f()
        };
        let mut counts: Table = Vec::new();
        for table in hold(&TABLES).iter() {
            for (site, n) in hold(table).drain(..) {
                match counts.iter_mut().find(|(s, _)| *s == site) {
                    Some((_, total)) => *total += n,
                    None => counts.push((site, n)),
                }
            }
        }
        counts.sort_by_key(|(site, _)| (site.file(), site.line(), site.column()));
        (result, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn lock_survives_panicked_holder() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: no poisoning, lock still usable.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[cfg(feature = "count")]
    #[test]
    fn counted_tells_call_sites_apart_and_sums_threads() {
        let (m, l) = (Arc::new(Mutex::new(0)), RwLock::new(0));
        let from = line!();
        let (_, counts) = count::counted(|| {
            for _ in 0..3 {
                *m.lock() += 1;
            }
            drop(l.read());
            drop(l.write());
            let m = Arc::clone(&m);
            std::thread::spawn(move || *m.lock() += 1).join().unwrap();
        });
        // The other tests of this binary may lock meanwhile.
        let to = line!();
        let counts: Vec<_> = counts
            .into_iter()
            .filter(|(s, _)| s.file() == file!() && (from..to).contains(&s.line()))
            .collect();
        let lines: Vec<(u32, u64)> = counts.iter().map(|(s, n)| (s.line(), *n)).collect();
        assert_eq!(lines.len(), 4, "{lines:?}");
        assert_eq!(lines.iter().map(|(_, n)| n).sum::<u64>(), 6);
        assert_eq!(lines[0].1, 3, "the loop's site");
    }
}
