//! The warm engine pool: a fixed number of execution slots, each keeping
//! the arenas ([`rapwam::Memory`]) of its last run alive for reuse.
//!
//! The paper's whole performance story is that per-PE Stack Sets are
//! long-lived resources with strong locality; a serving layer that
//! reallocates them per query throws that away.  The pool keeps one
//! recyclable memory per slot: a request that acquires a slot whose memory
//! matches its shape (area sizes × worker count) runs *warm* — the arenas
//! are reset in place, which costs proportional to what the previous query
//! touched, not to their capacity.
//!
//! Slots are recycled in **LIFO order, preferring warm slots**: a release
//! pushes onto a stack and an acquire takes the most recently used slot
//! that still holds arenas (falling back to the newest cold one).  The old
//! FIFO recycle order rotated through every slot, so a large pool took
//! `size` requests before *any* slot ran warm twice; with LIFO a
//! low-concurrency trickle keeps hitting the same hot arenas — the pool
//! warms up at the speed of its actual concurrency, not its capacity.
//!
//! The pool doubles as the admission controller: at most `size` queries
//! execute concurrently, at most `max_queue` more may wait (bounded
//! queueing), and a waiter gives up when its deadline or the queue timeout
//! passes.  Everything beyond that is rejected immediately — under
//! overload the server sheds load instead of collapsing.

use crate::cache::CacheEntry;
use pwam_obs::Counter;
use rapwam::{Memory, QueryCursor};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Pool sizing and queueing policy.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of engine slots (concurrent queries).
    pub size: usize,
    /// Maximum number of requests allowed to wait for a slot; the rest are
    /// rejected outright.
    pub max_queue: usize,
    /// Upper bound on how long a queued request waits for a slot (the
    /// request deadline applies too, whichever is sooner).
    pub queue_timeout: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { size: 4, max_queue: 32, queue_timeout: Duration::from_secs(5) }
    }
}

/// Why an acquisition failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireError {
    /// The wait queue is full (admission control).
    Rejected,
    /// No slot freed up within the wait budget.
    Timeout,
}

/// The pool itself.  Free slots live on a stack under a mutex: releasing
/// pushes, acquiring pops the most recently used slot that still holds
/// recycled arenas (so warm slots are reused first), and waiters park on a
/// condvar.
///
/// The counters are the pool's own and the only copy: the server's registry
/// adopts these handles, so what a scrape prints is what `acquire` added.
pub struct EnginePool {
    config: PoolConfig,
    slots: Mutex<Vec<Option<Memory>>>,
    available: Condvar,
    /// Slots acquired (successful admissions).
    pub(crate) requests: Arc<Counter>,
    /// Runs that reused a slot's warm arenas.
    pub(crate) warm_hits: Arc<Counter>,
    /// Runs that had to allocate fresh arenas (first use or shape change).
    pub(crate) cold_builds: Arc<Counter>,
    /// Requests turned away because the queue was full.
    pub(crate) rejections: Arc<Counter>,
    /// Requests that gave up waiting for a slot.
    pub(crate) queue_timeouts: Arc<Counter>,
    /// Runs that ended in an engine error (their memory is not recycled).
    pub(crate) run_errors: Arc<Counter>,
    /// Requests currently waiting for a slot; admission control reads it.
    queue_depth: AtomicUsize,
    /// High-water mark of the wait queue.
    max_queue_depth: AtomicUsize,
}

/// Pop the preferred free slot: the newest warm one, else the newest cold
/// one.  (`rposition` keeps it LIFO within each class.)
fn take_slot(slots: &mut Vec<Option<Memory>>) -> Option<Option<Memory>> {
    if slots.is_empty() {
        return None;
    }
    let pos = slots.iter().rposition(Option::is_some).unwrap_or(slots.len() - 1);
    Some(slots.remove(pos))
}

impl EnginePool {
    /// Create a pool with `config.size` empty (cold) slots.
    pub fn new(config: PoolConfig) -> Self {
        assert!(config.size >= 1, "pool needs at least one slot");
        let slots = (0..config.size).map(|_| None).collect();
        EnginePool {
            config,
            slots: Mutex::new(slots),
            available: Condvar::new(),
            requests: Arc::default(),
            warm_hits: Arc::default(),
            cold_builds: Arc::default(),
            rejections: Arc::default(),
            queue_timeouts: Arc::default(),
            run_errors: Arc::default(),
            queue_depth: AtomicUsize::new(0),
            max_queue_depth: AtomicUsize::new(0),
        }
    }

    /// Slots currently executing a run (configured size minus the free
    /// stack).  A gauge reading for the telemetry plane.
    pub(crate) fn busy_slots(&self) -> usize {
        self.config.size - self.slots.lock().unwrap().len()
    }

    /// Requests currently waiting for a slot.
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// High-water mark of the wait queue.
    pub(crate) fn max_queue_depth(&self) -> usize {
        self.max_queue_depth.load(Ordering::Relaxed)
    }

    /// Acquire a slot.  A free slot is taken immediately; otherwise the
    /// request queues — unless `max_queue` requests are already waiting
    /// ([`AcquireError::Rejected`]) — and waits at most
    /// `min(queue_timeout, wait_budget)` ([`AcquireError::Timeout`]).
    pub fn acquire(&self, wait_budget: Option<Duration>) -> Result<SlotGuard<'_>, AcquireError> {
        // Fast path: a free slot means no queueing at all — but only while
        // nobody is parked waiting, otherwise a stream of newcomers could
        // barge released slots ahead of the queue and starve the waiters
        // into spurious timeouts.
        if self.queue_depth.load(Ordering::Acquire) == 0 {
            if let Some(memory) = take_slot(&mut self.slots.lock().unwrap()) {
                self.requests.inc();
                return Ok(SlotGuard { pool: self, memory, returned: false });
            }
        }
        // Admission control: count ourselves into the wait queue, reject if
        // it is full.  `fetch_add` + check is one atomic op; the transient
        // overshoot it allows is bounded by the concurrently-arriving
        // requests, which is the precision admission control needs.
        let depth = self.queue_depth.fetch_add(1, Ordering::AcqRel);
        if depth >= self.config.max_queue {
            self.queue_depth.fetch_sub(1, Ordering::AcqRel);
            self.rejections.inc();
            return Err(AcquireError::Rejected);
        }
        self.max_queue_depth.fetch_max(depth + 1, Ordering::Relaxed);
        let timeout = match wait_budget {
            Some(budget) => budget.min(self.config.queue_timeout),
            None => self.config.queue_timeout,
        };
        let deadline = Instant::now() + timeout;
        let mut slots = self.slots.lock().unwrap();
        loop {
            if let Some(memory) = take_slot(&mut slots) {
                drop(slots);
                self.queue_depth.fetch_sub(1, Ordering::AcqRel);
                self.requests.inc();
                return Ok(SlotGuard { pool: self, memory, returned: false });
            }
            let now = Instant::now();
            if now >= deadline {
                drop(slots);
                self.queue_depth.fetch_sub(1, Ordering::AcqRel);
                self.queue_timeouts.inc();
                return Err(AcquireError::Timeout);
            }
            let (guard, _timed_out) =
                self.available.wait_timeout(slots, deadline - now).expect("pool lock poisoned");
            slots = guard;
        }
    }

    /// Record whether a run reused warm arenas.
    pub(crate) fn record_run(&self, warm: bool) {
        if warm {
            self.warm_hits.inc();
        } else {
            self.cold_builds.inc();
        }
    }

    /// Record a run that died with an engine error (its memory is lost).
    pub(crate) fn record_error(&self) {
        self.run_errors.inc();
    }
}

/// An acquired pool slot.  Take the recycled memory with
/// [`SlotGuard::take_memory`], hand the engine's memory back with
/// [`SlotGuard::put_memory`]; dropping the guard returns the slot to the
/// pool either way (empty if the run errored out).
pub struct SlotGuard<'a> {
    pool: &'a EnginePool,
    memory: Option<Memory>,
    returned: bool,
}

impl SlotGuard<'_> {
    /// The slot's recycled memory from a previous run, if any.
    pub(crate) fn take_memory(&mut self) -> Option<Memory> {
        self.memory.take()
    }

    /// Store the memory to recycle on this slot's next run.
    pub(crate) fn put_memory(&mut self, memory: Memory) {
        self.memory = Some(memory);
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        if !self.returned {
            self.returned = true;
            // Push on top of the stack: the next acquire reuses this
            // (warmest) slot first.
            self.pool.slots.lock().unwrap().push(self.memory.take());
            self.pool.available.notify_one();
        }
    }
}

// ---------------------------------------------------------------------
// Parked cursors
// ---------------------------------------------------------------------

/// An all-solutions query parked *out of* its pool slot.
///
/// A cursor's engine halts at each answer, and a query waiting for its
/// client to ask for the next answer should not occupy an execution slot:
/// the engine (with its full Stack Set) moves into this table, the slot
/// goes back to the pool, and a later `query-next` re-admits the cursor
/// through the normal acquire path like any other run.
pub(crate) struct ParkedQuery {
    /// The parked engine + program bundle.
    pub(crate) cursor: QueryCursor,
    /// Keeps the program's session (and its symbol table, needed to render
    /// answer terms) alive even if the program cache evicts the entry.
    pub(crate) entry: Arc<CacheEntry>,
    /// Whether the cursor's engine was built on recycled arenas.
    pub(crate) warm: bool,
    /// Cumulative instruction count at the previous answer boundary, so
    /// each `query-next` leg can report a delta into the server counters.
    pub(crate) instructions_seen: u64,
    /// Engine wall-clock microseconds charged to the server counters so
    /// far.
    pub(crate) micros_seen: u64,
    /// Refreshed on every cursor operation; the eviction clock.
    pub(crate) last_used: Instant,
}

/// The parked-cursor table: id → [`ParkedQuery`], with lazy idle eviction.
///
/// There is no eviction thread; every cursor operation (and every metrics
/// scrape) first sweeps out cursors idle past `idle_timeout`.  A client
/// that abandons a cursor therefore costs one engine's arenas for at most
/// the deadline plus the gap to the next cursor touch — and since an
/// abandoned cursor is only a parked struct, not a thread or a slot,
/// that is purely memory, never capacity.
pub(crate) struct CursorTable {
    idle_timeout: Duration,
    capacity: usize,
    next_id: AtomicU64,
    parked: Mutex<HashMap<u64, ParkedQuery>>,
    /// Cursors ever opened.
    pub(crate) opened: Arc<Counter>,
    /// Cursors closed by the client or auto-closed on exhaustion/error.
    pub(crate) closed: Arc<Counter>,
    /// Cursors reclaimed by the idle-eviction deadline.
    pub(crate) evicted: Arc<Counter>,
}

impl CursorTable {
    /// A table holding at most `capacity` parked cursors, each evictable
    /// after `idle_timeout` without a touch.
    pub(crate) fn new(idle_timeout: Duration, capacity: usize) -> Self {
        CursorTable {
            idle_timeout,
            capacity,
            next_id: AtomicU64::new(1),
            parked: Mutex::new(HashMap::new()),
            opened: Arc::default(),
            closed: Arc::default(),
            evicted: Arc::default(),
        }
    }

    /// Drop every cursor idle past the deadline (their engines' arenas are
    /// freed with them).  Returns the ids of the evicted cursors so the
    /// caller can log each eviction to the flight recorder.
    pub(crate) fn evict_idle(&self) -> Vec<u64> {
        let now = Instant::now();
        let mut parked = self.parked.lock().unwrap();
        let mut evicted = Vec::new();
        parked.retain(|id, p| {
            let keep = now.duration_since(p.last_used) <= self.idle_timeout;
            if !keep {
                evicted.push(*id);
            }
            keep
        });
        if !evicted.is_empty() {
            self.evicted.add(evicted.len() as u64);
        }
        evicted
    }

    /// Park a cursor, assigning its wire id.  `None` when the table is
    /// full — the caller reports an admission rejection and the cursor
    /// (with its arenas) is dropped.
    pub(crate) fn park(&self, parked: ParkedQuery) -> Option<u64> {
        let mut map = self.parked.lock().unwrap();
        if map.len() >= self.capacity {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        map.insert(id, parked);
        self.opened.inc();
        Some(id)
    }

    /// Remove a cursor for stepping or closing.  While it is out of the
    /// table a concurrent operation on the same id sees "unknown cursor" —
    /// one operation at a time per cursor, by construction.
    pub(crate) fn take(&self, id: u64) -> Option<ParkedQuery> {
        self.parked.lock().unwrap().remove(&id)
    }

    /// Put a stepped cursor back under its id with a fresh idle clock.
    pub(crate) fn repark(&self, id: u64, mut parked: ParkedQuery) {
        parked.last_used = Instant::now();
        self.parked.lock().unwrap().insert(id, parked);
    }

    /// Record a cursor closed (client `query-close`, exhaustion, or death
    /// by engine error).  The caller has already dropped or consumed it.
    pub(crate) fn note_closed(&self) {
        self.closed.inc();
    }

    /// Cursors currently parked.
    pub(crate) fn parked(&self) -> usize {
        self.parked.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapwam::MemoryConfig;

    fn small_pool(size: usize, max_queue: usize) -> EnginePool {
        EnginePool::new(PoolConfig { size, max_queue, queue_timeout: Duration::from_millis(50) })
    }

    #[test]
    fn slots_start_cold_and_keep_memory_warm() {
        let pool = small_pool(1, 4);
        {
            let mut slot = pool.acquire(None).unwrap();
            assert!(slot.take_memory().is_none(), "first acquisition is cold");
            slot.put_memory(Memory::new(MemoryConfig::small(), 2));
        }
        let mut slot = pool.acquire(None).unwrap();
        let mem = slot.take_memory().expect("second acquisition sees the recycled memory");
        assert_eq!(mem.num_arenas(), 2);
    }

    #[test]
    fn acquire_prefers_the_warm_slot_over_untouched_cold_ones() {
        // A pool larger than the offered concurrency must warm up at the
        // speed of that concurrency: with LIFO recycle order the single
        // released (warm) slot is reused immediately, even though three
        // never-touched cold slots are also free.  The old FIFO channel
        // rotated through all four slots before any ran warm twice.
        let pool = small_pool(4, 4);
        {
            let mut slot = pool.acquire(None).unwrap();
            assert!(slot.take_memory().is_none(), "first acquisition is cold");
            slot.put_memory(Memory::new(MemoryConfig::small(), 2));
        }
        for round in 0..3 {
            let mut slot = pool.acquire(None).unwrap();
            let mem = slot
                .take_memory()
                .unwrap_or_else(|| panic!("round {round}: warm slot not preferred over cold ones"));
            slot.put_memory(mem);
        }
    }

    #[test]
    fn acquire_prefers_warm_even_below_a_cold_top_of_stack() {
        // Release order warm-then-cold leaves a cold slot on top of the
        // stack; the acquire must still dig out the newest *warm* slot
        // (an errored run returns its slot empty — that must not shadow a
        // good one).
        let pool = small_pool(2, 4);
        let mut a = pool.acquire(None).unwrap();
        let b = pool.acquire(None).unwrap();
        a.put_memory(Memory::new(MemoryConfig::small(), 2));
        drop(a); // warm
        drop(b); // cold, now on top
        let mut slot = pool.acquire(None).unwrap();
        assert!(slot.take_memory().is_some(), "warm slot must be preferred over the cold top");
    }

    #[test]
    fn exhausted_pool_times_out_waiters() {
        let pool = small_pool(1, 1);
        let _held = pool.acquire(None).unwrap();
        assert!(matches!(pool.acquire(Some(Duration::from_millis(10))), Err(AcquireError::Timeout)));
        assert_eq!(pool.queue_timeouts.get(), 1);
        assert_eq!(pool.requests.get(), 1);
        assert_eq!(pool.max_queue_depth(), 1);
        assert_eq!(pool.queue_depth(), 0, "a waiter that gave up left the queue");
    }

    #[test]
    fn zero_queue_rejects_as_soon_as_the_pool_is_busy() {
        let pool = small_pool(1, 0);
        let _held = pool.acquire(None).unwrap();
        assert!(matches!(pool.acquire(None), Err(AcquireError::Rejected)));
        assert_eq!(pool.rejections.get(), 1);
    }

    #[test]
    fn overfull_queue_rejects_immediately() {
        let pool = small_pool(1, 1);
        let _held = pool.acquire(None).unwrap();
        std::thread::scope(|s| {
            // One thread parks in the queue; once it is inside, a second
            // arrival must be rejected without waiting.
            let waiter = s.spawn(|| pool.acquire(Some(Duration::from_millis(200))));
            while pool.queue_depth() == 0 {
                std::thread::yield_now();
            }
            let second = pool.acquire(Some(Duration::from_millis(200)));
            assert!(matches!(second, Err(AcquireError::Rejected)));
            assert!(matches!(waiter.join().unwrap(), Err(AcquireError::Timeout)));
        });
        assert_eq!(pool.rejections.get(), 1);
    }

    #[test]
    fn released_slot_unblocks_a_waiter() {
        let pool = small_pool(1, 4);
        let held = pool.acquire(None).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| pool.acquire(Some(Duration::from_secs(5))).map(|_| ()));
            while pool.queue_depth() == 0 {
                std::thread::yield_now();
            }
            drop(held);
            assert!(waiter.join().unwrap().is_ok());
        });
    }

    #[test]
    fn run_accounting_reaches_the_stats() {
        let pool = small_pool(2, 2);
        pool.record_run(true);
        pool.record_run(true);
        pool.record_run(false);
        pool.record_error();
        assert_eq!(pool.warm_hits.get(), 2);
        assert_eq!(pool.cold_builds.get(), 1);
        assert_eq!(pool.run_errors.get(), 1);
    }
}
