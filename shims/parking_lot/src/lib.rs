//! Minimal offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so this shim provides
//! the exact subset the workspace uses: non-poisoning [`RwLock`] and
//! [`Mutex`] types plus a [`Condvar`] with parking_lot's `&mut guard`
//! signature. They wrap the `std::sync` primitives and recover from
//! poisoning instead of propagating it, which matches parking_lot's
//! semantics (no poisoning) for the workloads here. The `Mutex`/`Condvar`
//! pair is what `orpheus-core`'s async executor builds its job queues and
//! tickets from, and [`ArcSwap`] is the epoch-swap cell `orpheus-core`'s
//! MVCC snapshot reads publish shard snapshots through.

use std::sync::{Arc, RwLockReadGuard, RwLockWriteGuard};

/// A reader-writer lock that never poisons.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The write lock if it is free right now, `None` if anyone holds
    /// the lock.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

/// A mutual-exclusion lock that never poisons.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(|e| e.into_inner())))
    }
}

/// Guard of a [`Mutex`]. Holds an `Option` internally so [`Condvar::wait`]
/// can take the std guard out and put the re-acquired one back through a
/// `&mut` borrow — parking_lot's signature, std's machinery.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present outside wait")
    }
}

/// A condition variable usable with [`Mutex`]/[`MutexGuard`]. As in
/// parking_lot, `wait` takes the guard by `&mut` and the caller keeps
/// using it after the wakeup; spurious wakeups are possible, so always
/// wait in a predicate loop.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present outside wait");
        let inner = self.0.wait(inner).unwrap_or_else(|e| e.into_inner());
        guard.0 = Some(inner);
    }

    /// Wait with a timeout (parking_lot's `wait_for`). Returns whether the
    /// wait timed out; as with [`Condvar::wait`], spurious wakeups are
    /// possible, so re-check the predicate and the remaining time.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard present outside wait");
        let (inner, result) = match self.0.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(e) => {
                let (g, r) = e.into_inner();
                (g, r)
            }
        };
        guard.0 = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// An epoch-swap cell: an `Arc<T>` that readers [`load`](ArcSwap::load)
/// without ever blocking on a writer's critical section, and writers
/// replace atomically with [`store`](ArcSwap::store).
///
/// This is the offline stand-in for the `arc-swap` crate's cell of the
/// same name, implemented as a `Mutex<Arc<T>>`: a `load` holds the mutex
/// only long enough to bump the refcount (a few instructions — never
/// across user code), so readers are wait-free for all practical
/// purposes even while a writer is busy preparing the *next* value
/// outside the cell. The protocol it supports:
///
/// 1. readers `load()` the current epoch's value and use it lock-free;
/// 2. a writer builds a fresh `Arc<T>` privately (no reader can see the
///    work in progress);
/// 3. the writer `store()`s the new `Arc`, atomically retiring the old
///    epoch — in-flight readers keep their old `Arc` alive until they
///    drop it, so no value is ever torn or freed early.
///
/// `orpheus-core` publishes each shard's committed database state
/// through one of these, which is what lets checkouts and SELECTs run
/// while a commit holds the shard's write lock.
#[derive(Debug)]
pub struct ArcSwap<T> {
    cell: Mutex<Arc<T>>,
}

impl<T> ArcSwap<T> {
    /// Create a cell holding `value` as epoch zero.
    pub fn new(value: Arc<T>) -> ArcSwap<T> {
        ArcSwap {
            cell: Mutex::new(value),
        }
    }

    /// Clone out the current epoch's `Arc`. The internal lock is held
    /// only for the refcount bump, never across reader code, so loads
    /// never wait on a writer preparing the next value.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.cell.lock())
    }

    /// Atomically publish `value` as the new epoch. Readers that loaded
    /// the previous epoch keep using it; new loads see `value`. If this
    /// held the last reference to the previous epoch, it is dropped after
    /// the internal lock is released, so loads never wait on that drop.
    pub fn store(&self, value: Arc<T>) {
        drop(self.swap(value));
    }

    /// Publish `value` and return the epoch it replaced. The internal lock
    /// is released before this returns.
    pub fn swap(&self, value: Arc<T>) -> Arc<T> {
        std::mem::replace(&mut self.cell.lock(), value)
    }
}

impl<T: Default> Default for ArcSwap<T> {
    fn default() -> ArcSwap<T> {
        ArcSwap::new(Arc::new(T::default()))
    }
}

/// Outcome of [`Condvar::wait_for`], mirroring parking_lot's type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed (as opposed to
    /// a notification or a spurious wakeup).
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_write_roundtrip() {
        let lock = RwLock::new(1);
        *lock.write() += 1;
        assert_eq!(*lock.read(), 2);
        assert_eq!(lock.into_inner(), 2);
    }

    #[test]
    fn concurrent_writes_serialize() {
        let lock = Arc::new(RwLock::new(0u64));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let lock = Arc::clone(&lock);
                scope.spawn(move || {
                    for _ in 0..100 {
                        *lock.write() += 1;
                    }
                });
            }
        });
        assert_eq!(*lock.read(), 800);
    }

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn condvar_signals_across_threads() {
        let pair = Arc::new((Mutex::new(0usize), Condvar::new()));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pair = Arc::clone(&pair);
                scope.spawn(move || {
                    let (m, cv) = &*pair;
                    let mut count = m.lock();
                    *count += 1;
                    cv.notify_all();
                    // The guard stays usable after waits (predicate loop).
                    while *count < 4 {
                        cv.wait(&mut count);
                    }
                });
            }
        });
        assert_eq!(*pair.0.lock(), 4);
    }

    #[test]
    fn wait_for_times_out_and_keeps_the_guard_usable() {
        let pair = (Mutex::new(false), Condvar::new());
        let (m, cv) = &pair;
        let mut done = m.lock();
        let result = cv.wait_for(&mut done, std::time::Duration::from_millis(10));
        assert!(result.timed_out());
        // The guard survived the timed-out wait.
        *done = true;
        drop(done);
        assert!(*m.lock());
    }

    #[test]
    fn arc_swap_load_store_roundtrip() {
        let cell = ArcSwap::new(Arc::new(1u64));
        let before = cell.load();
        cell.store(Arc::new(2));
        // The old epoch stays alive and unchanged for holders...
        assert_eq!(*before, 1);
        // ...while new loads see the new epoch.
        assert_eq!(*cell.load(), 2);
        let old = cell.swap(Arc::new(3));
        assert_eq!(*old, 2);
        assert_eq!(*cell.load(), 3);
    }

    /// Whether a load finished in time, and the thread that made it.
    type LoadReport = (bool, std::thread::JoinHandle<()>);

    /// A value whose drop loads its own cell from another thread and
    /// reports whether that load finished within a second. The thread is
    /// joined by whoever receives the report: joining it here would wait
    /// forever on a `store` that drops under the lock.
    struct LoadsOnDrop {
        cell: std::sync::OnceLock<Arc<ArcSwap<LoadsOnDrop>>>,
        loaded: std::sync::mpsc::Sender<LoadReport>,
    }

    impl Drop for LoadsOnDrop {
        fn drop(&mut self) {
            let Some(cell) = self.cell.take() else { return };
            let (done, wait) = std::sync::mpsc::channel();
            let loader = std::thread::spawn(move || {
                drop(cell.load());
                let _ = done.send(());
            });
            let in_time = wait.recv_timeout(std::time::Duration::from_secs(1)).is_ok();
            let _ = self.loaded.send((in_time, loader));
        }
    }

    #[test]
    fn arc_swap_store_drops_the_retired_epoch_outside_its_lock() {
        let (loaded, outcome) = std::sync::mpsc::channel();
        let first = Arc::new(LoadsOnDrop {
            cell: std::sync::OnceLock::new(),
            loaded: loaded.clone(),
        });
        let cell = Arc::new(ArcSwap::new(Arc::clone(&first)));
        assert!(first.cell.set(Arc::clone(&cell)).is_ok());
        drop(first);
        // The cell holds the last reference to `first`: this store drops
        // it, and its drop's load must not wait for the store to return.
        cell.store(Arc::new(LoadsOnDrop {
            cell: std::sync::OnceLock::new(),
            loaded,
        }));
        let (in_time, loader) = outcome.try_recv().expect("the retired epoch was dropped");
        loader.join().expect("the loading thread finished");
        assert!(
            in_time,
            "a load made while the retired epoch dropped waited on the store"
        );
    }

    #[test]
    fn arc_swap_readers_never_see_a_torn_epoch() {
        // Each published epoch is a self-consistent pair (n, 2n); readers
        // racing against the publisher must only ever observe consistent
        // pairs, whichever epoch they land on.
        let cell = Arc::new(ArcSwap::new(Arc::new((0u64, 0u64))));
        std::thread::scope(|scope| {
            let publisher = Arc::clone(&cell);
            scope.spawn(move || {
                for n in 1..=500u64 {
                    publisher.store(Arc::new((n, 2 * n)));
                }
            });
            for _ in 0..4 {
                let reader = Arc::clone(&cell);
                scope.spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..500 {
                        let epoch = reader.load();
                        assert_eq!(epoch.1, 2 * epoch.0, "torn epoch observed");
                        // Epochs are also monotone for any single reader.
                        assert!(epoch.0 >= last);
                        last = epoch.0;
                    }
                });
            }
        });
        assert_eq!(cell.load().0, 500);
    }

    #[test]
    fn wait_for_returns_early_on_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        std::thread::scope(|scope| {
            let notifier = Arc::clone(&pair);
            scope.spawn(move || {
                let (m, cv) = &*notifier;
                *m.lock() = true;
                cv.notify_all();
            });
            let (m, cv) = &*pair;
            let mut done = m.lock();
            while !*done {
                let result = cv.wait_for(&mut done, std::time::Duration::from_secs(5));
                assert!(!result.timed_out() || *done);
            }
        });
    }
}
