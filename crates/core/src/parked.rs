//! Bounded, process-wide lists of spare allocations.
//!
//! Two kinds of storage outlive the engine that used them: a dropped
//! memory's word arrays, swept back to zero ([`crate::mem`]), and a traced
//! run's record buffers, emptied once their records are merged
//! ([`crate::worker`]).  Each waits in a [`Parked`] list for the next build
//! that needs one, so that build touches pages an earlier one already faulted
//! in instead of asking the allocator for fresh ones.  What a list holds must
//! be as good as new — all-zero words, no records — because the next taker may
//! be any engine of the process, serving any tenant.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// At most `cap` spare `T`s; parking into a full list frees the
/// longest-parked one, so shapes nobody builds any more age out.
pub(crate) struct Parked<T> {
    list: Mutex<Vec<T>>,
    cap: usize,
}

impl<T> Parked<T> {
    pub(crate) const fn new(cap: usize) -> Self {
        Parked { list: Mutex::new(Vec::new()), cap }
    }

    /// The list itself, oldest first.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Vec<T>> {
        // The list is consistent between any two of its operations, so a
        // panic elsewhere while the lock was held loses nothing.
        self.list.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Keep `item` for a later [`Parked::take`].
    pub(crate) fn park(&self, item: T) {
        let mut list = self.lock();
        let _evicted = (list.len() >= self.cap).then(|| list.remove(0));
        list.push(item);
        // Unlock first: the evicted item is freed as this returns.
        drop(list);
    }

    /// The most recently parked item that `fits` (its pages are the
    /// likeliest to be cached still), if any.
    pub(crate) fn take(&self, fits: impl FnMut(&T) -> bool) -> Option<T> {
        let mut list = self.lock();
        let i = list.iter().rposition(fits)?;
        Some(list.remove(i))
    }
}
