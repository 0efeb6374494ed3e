//! The data memory: one Stack-Set arena per PE plus a small shared region.
//!
//! Every read and write performed by the abstract machine goes through
//! [`Memory::read`] / [`Memory::write`], which
//!
//! * bounds-check the access against the area layout,
//! * route the access to the [`StackSetArena`] that owns the address,
//! * update that arena's reference counters ([`AreaStats`]), and
//! * optionally append a full [`MemRef`] record to the arena's trace buffer.
//!
//! Sharding the storage per PE mirrors the paper's architecture: each PE's
//! Stack Set is physically its own allocation, so an execution backend can
//! hand a whole arena to an OS thread.  Global word addresses remain stable —
//! the [`AddressMap`] translates them to an (arena, offset) pair — and a
//! deterministic merge (every reference carries a global sequence number)
//! reproduces the single interleaved trace the cache simulator consumes,
//! byte-for-byte.
//!
//! # Concurrency
//!
//! Each arena sits behind its own mutex and the sequence counter is atomic,
//! so the memory is shared-state safe: any number of OS threads may access
//! it concurrently, and an access is one short critical section on the
//! *owning* arena's lock.  This models the paper's shared-memory machine
//! directly — a PE reaches into another PE's Stack Set only for the Global
//! object kinds of Table 1, so in steady state every lock is uncontended and
//! almost all traffic stays on the accessing thread's own arena.  Under the
//! strict (interleaved) backend only one thread touches the
//! memory at a time and the recorded order is exactly the reference order;
//! under the relaxed backend the per-reference order is whatever the race
//! produced (the sequence numbers still give a total order for the merge).
//!
//! Read-modify-write sequences that must be atomic under concurrency (the
//! Parcall Frame scheduling/completion counters) use [`Memory::rmw_uint`],
//! which holds the owning arena's lock across the read and the write while
//! recording exactly the same two references the split read/write pair
//! would have recorded.
//!
//! Answer extraction and debugging use [`Memory::read_untraced`] so that
//! inspecting a result does not perturb the measured reference counts.  The
//! shared region above the Stack Sets holds coordination state (the query
//! board) and is likewise accessed only through untraced accessors.

use crate::cell::Cell;
use crate::error::{EngineError, EngineResult};
use crate::layout::{AddressMap, Area, MemoryConfig, ObjectKind, SHARED_REGION_WORDS};
use crate::trace::{AreaStats, MemRef, RefDelta};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One reference record tagged with its position in the global interleaving
/// order, so per-arena trace buffers can be merged deterministically.
#[derive(Debug, Clone, Copy)]
struct SeqRef {
    seq: u64,
    r: MemRef,
}

/// The storage of one PE's Stack Set: its words, its reference counters and
/// (optionally) its share of the reference trace.
#[derive(Debug)]
pub struct StackSetArena {
    /// Global address of the arena's first word.
    base: u32,
    words: Vec<Cell>,
    /// Reference counters for accesses landing in this arena (indexed by
    /// issuing PE in `stats.per_pe`, which may differ from the owner).
    stats: AreaStats,
    /// This arena's slice of the reference trace (when enabled), in issue
    /// order and tagged with global sequence numbers.
    trace: Option<Vec<SeqRef>>,
    /// Per area (by [`Area::index`]), one past the highest arena offset
    /// written there; [`Memory::reset`] only has to clear each area's used
    /// prefix, so recycling a warm arena costs proportional to what the
    /// previous run used, not the arena's capacity.  One mark for the whole
    /// arena would not do: the areas are laid out back to back, so a single
    /// choice-point or trail write would put the heap's and local stack's
    /// entire capacity below the mark.
    touched: [usize; Area::ALL.len()],
}

impl StackSetArena {
    fn new(base: u32, words: u32, num_workers: usize, collect_trace: bool) -> Self {
        StackSetArena {
            base,
            words: vec![Cell::Empty; words as usize],
            stats: AreaStats::new(num_workers),
            trace: if collect_trace { Some(Vec::new()) } else { None },
            touched: [0; Area::ALL.len()],
        }
    }

    /// Store `value` at `offset`, which lies in `area`, and advance that
    /// area's reset mark.
    #[inline(always)]
    fn store(&mut self, offset: usize, value: Cell, area: Area) {
        self.words[offset] = value;
        let mark = &mut self.touched[area.index()];
        *mark = (*mark).max(offset + 1);
    }

    /// Record one reference in this arena's counters (and trace buffer).
    fn record(&mut self, seq: &AtomicU64, pe: u8, addr: u32, write: bool, object: ObjectKind) -> usize {
        let r = MemRef {
            pe,
            addr,
            write,
            area: object.area(),
            object,
            locality: object.locality(),
            locked: object.locked(),
        };
        self.stats.record(&r);
        // The global sequence counter only orders trace records; skipping it
        // when tracing is off keeps the hot path free of a shared cache line
        // that every thread of the relaxed backend would otherwise fight over.
        if let Some(t) = &mut self.trace {
            t.push(SeqRef { seq: seq.fetch_add(1, Ordering::Relaxed), r });
        }
        (addr - self.base) as usize
    }
}

/// One arena plus the lock that guards it when the memory is shared.
///
/// The arena lives in an [`UnsafeCell`] rather than inside the mutex so a
/// backend that serialises memory access *by construction* (interleaved
/// round-robin on one host thread) can
/// reach it without an atomic operation per reference — the lock is only
/// taken when [`Memory::serial`] is off.
#[derive(Debug)]
struct ArenaSlot {
    cell: UnsafeCell<StackSetArena>,
    lock: Mutex<()>,
}

// SAFETY: the arena behind `cell` is only accessed through
// `Memory::with_arena`, which either holds `lock` for the duration of the
// access or runs in serial mode, where the execution backend guarantees at
// most one thread touches the memory at a time (with the backend's
// channel/join synchronisation providing the happens-before edges between
// consecutive accessors).
unsafe impl Sync for ArenaSlot {}

impl ArenaSlot {
    fn new(arena: StackSetArena) -> Self {
        ArenaSlot { cell: UnsafeCell::new(arena), lock: Mutex::new(()) }
    }
}

/// The word-addressed data memory, sharded into one lockable arena per PE.
///
/// The public address space is unchanged from the flat layout: word `addr`
/// belongs to arena `map.owner(addr)` at offset `addr - arena.base`, and the
/// shared region sits above the last Stack Set.
#[derive(Debug)]
pub struct Memory {
    arenas: Vec<ArenaSlot>,
    /// The shared coordination region (query board); untraced by design.
    shared: Mutex<Vec<Cell>>,
    pub map: AddressMap,
    /// Next global sequence number (total references recorded so far).
    seq: AtomicU64,
    collect_trace: bool,
    /// When set, arena accesses skip the per-arena lock entirely.  Sound
    /// only while the execution backend serialises every memory access (see
    /// [`Memory::set_serial`]); the default is the always-locked shared mode.
    serial: bool,
}

impl Memory {
    /// Allocate the data memory for `num_workers` Stack Sets.
    pub fn new(config: MemoryConfig, num_workers: usize, collect_trace: bool) -> Self {
        let map = AddressMap::new(config, num_workers);
        let set_words = config.stack_set_words();
        let arenas = (0..num_workers)
            .map(|w| {
                ArenaSlot::new(StackSetArena::new(
                    w as u32 * set_words,
                    set_words,
                    num_workers,
                    collect_trace,
                ))
            })
            .collect();
        Memory {
            arenas,
            shared: Mutex::new(vec![Cell::Empty; SHARED_REGION_WORDS as usize]),
            map,
            seq: AtomicU64::new(0),
            collect_trace,
            serial: false,
        }
    }

    /// Switch the memory between serial (lock-free) and shared (per-arena
    /// locked) access.
    ///
    /// # Soundness contract
    ///
    /// Serial mode may only be enabled while the execution backend
    /// guarantees that at most one thread performs memory accesses at any
    /// moment, with a happens-before edge between consecutive accessors.
    /// The interleaved scheduler (single-threaded by construction) and the
    /// strict threaded scheduler (its token channel's send/recv pair orders
    /// the handoff) both qualify; the relaxed backend, where workers run
    /// free, does not and must keep the locks.  The classic dispatch path
    /// also keeps the locks so it prices the pre-flattening cost model.
    pub fn set_serial(&mut self, serial: bool) {
        self.serial = serial;
    }

    /// Whether arena accesses currently bypass the per-arena locks.
    pub fn serial(&self) -> bool {
        self.serial
    }

    /// Whether the batched-accounting fast path is available: serial mode
    /// (no locks to take) *and* tracing off (no per-reference record to
    /// append, and no sequence number to claim).  When this is true, the
    /// executor may serve own-arena accesses through the private
    /// `serial_read` / `serial_write` helpers and count them in the
    /// worker's [`RefDelta`] instead of the arena's [`AreaStats`]; the
    /// flush ([`Memory::flush_delta`]) restores identical aggregate counts.
    #[inline(always)]
    pub fn fast(&self) -> bool {
        self.serial && !self.collect_trace
    }

    /// Read one word of arena `idx` at `offset` without recording — the
    /// caller accounts the reference in a [`RefDelta`].  Only callable in
    /// serial mode (checked in debug builds); same soundness argument as
    /// the serial branch of `with_arena`.
    #[inline(always)]
    pub(crate) fn serial_read(&self, idx: usize, offset: u32) -> Cell {
        debug_assert!(self.serial);
        // SAFETY: serial mode promises external serialisation of all
        // accessors (see `set_serial`), so this shared access cannot alias
        // a live exclusive borrow.
        unsafe { (&(*self.arenas[idx].cell.get()).words)[offset as usize] }
    }

    /// Write one word of arena `idx` at `offset` (which lies in `area`)
    /// without recording — the caller accounts the reference in a
    /// [`RefDelta`].  Maintains the area's reset mark exactly like
    /// [`Memory::write`].
    #[inline(always)]
    pub(crate) fn serial_write(&self, idx: usize, offset: u32, value: Cell, area: Area) {
        debug_assert!(self.serial);
        // SAFETY: as in `serial_read`; serial mode makes this the only
        // live borrow.
        let a = unsafe { &mut *self.arenas[idx].cell.get() };
        a.store(offset as usize, value, area);
    }

    /// Fold a worker's batched fast-path reference counts into its own
    /// arena's counters and clear the delta.  Called at batch boundaries
    /// and before counters are read out, so aggregate statistics are
    /// indistinguishable from unbatched accounting.  (Fast-path accesses
    /// are own-arena by construction, so `own` — the worker id — is always
    /// the arena every deferred count belongs to.)
    pub fn flush_delta(&self, own: usize, delta: &mut RefDelta) {
        if delta.total == 0 {
            return;
        }
        self.with_arena(own, |a| a.stats.bulk_record(own as u8, &delta.counts));
        delta.clear();
    }

    /// Run `f` with exclusive access to arena `idx`, taking its lock unless
    /// the memory is in serial mode.
    #[inline(always)]
    fn with_arena<R>(&self, idx: usize, f: impl FnOnce(&mut StackSetArena) -> R) -> R {
        let slot = &self.arenas[idx];
        if self.serial {
            // SAFETY: serial mode promises external serialisation of all
            // accessors (see `set_serial`), so the exclusive borrow cannot
            // alias another live borrow.
            f(unsafe { &mut *slot.cell.get() })
        } else {
            let _guard = slot.lock.lock().unwrap();
            // SAFETY: `lock` is held for the whole access.
            f(unsafe { &mut *slot.cell.get() })
        }
    }

    /// Total number of words in the memory: every Stack Set arena plus the
    /// shared region.
    pub fn len(&self) -> usize {
        (0..self.arenas.len()).map(|i| self.with_arena(i, |a| a.words.len())).sum::<usize>()
            + self.shared.lock().unwrap().len()
    }

    /// True if the memory holds no words.  Since the shared region always
    /// exists this is never the case in practice.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of Stack Set arenas (one per PE).
    pub fn num_arenas(&self) -> usize {
        self.arenas.len()
    }

    /// A snapshot of one arena's reference counters.
    pub fn arena_stats(&self, worker: usize) -> AreaStats {
        self.with_arena(worker, |a| a.stats.clone())
    }

    /// Number of trace records currently buffered in one arena.
    pub fn trace_len(&self, worker: usize) -> usize {
        self.with_arena(worker, |a| a.trace.as_ref().map_or(0, Vec::len))
    }

    /// Merge every arena's counters into one aggregate view (what a flat
    /// memory would have counted).
    pub fn merged_stats(&self) -> AreaStats {
        let mut total = AreaStats::new(self.map.num_workers);
        for i in 0..self.arenas.len() {
            self.with_arena(i, |a| total.merge(&a.stats));
        }
        total
    }

    /// Take the collected trace out of the memory, merging the per-arena
    /// buffers back into the global interleaving order (leaves the buffers
    /// empty behind).  Returns `None` when tracing is disabled.
    ///
    /// Every recorded reference carries the value of a global sequence
    /// counter, so the merge is a deterministic sort that reproduces the
    /// exact order in which the references were issued — under a strict
    /// backend the merged trace is byte-for-byte the trace a single flat
    /// buffer would have collected; under the relaxed backend it is the
    /// total order the race actually produced.
    pub fn take_trace(&mut self) -> Option<Vec<MemRef>> {
        if !self.collect_trace {
            return None;
        }
        let mut all: Vec<SeqRef> = Vec::with_capacity(*self.seq.get_mut() as usize);
        for slot in &mut self.arenas {
            let a = slot.cell.get_mut();
            if let Some(t) = &mut a.trace {
                all.append(t);
            }
            a.trace = None;
        }
        self.collect_trace = false;
        all.sort_unstable_by_key(|s| s.seq);
        Some(all.into_iter().map(|s| s.r).collect())
    }

    /// Whether a full trace is being collected.
    pub fn tracing(&self) -> bool {
        self.collect_trace
    }

    /// Read one word, recording the reference in the owning arena.
    #[inline]
    pub fn read(&self, pe: u8, addr: u32, object: ObjectKind) -> Cell {
        debug_assert_eq!(
            self.map.area_of(addr),
            object.area(),
            "object kind {object:?} used outside its area"
        );
        self.with_arena(self.map.owner(addr), |arena| {
            let offset = arena.record(&self.seq, pe, addr, false, object);
            arena.words[offset]
        })
    }

    /// Write one word, recording the reference in the owning arena.
    #[inline]
    pub fn write(&self, pe: u8, addr: u32, value: Cell, object: ObjectKind) {
        debug_assert_eq!(
            self.map.area_of(addr),
            object.area(),
            "object kind {object:?} used outside its area"
        );
        self.with_arena(self.map.owner(addr), |arena| {
            let offset = arena.record(&self.seq, pe, addr, true, object);
            arena.store(offset, value, object.area());
        });
    }

    /// Return the memory to its pristine post-allocation state without
    /// freeing the arenas: every word written since allocation (or the last
    /// reset) is cleared, the reference counters and trace buffers are
    /// reborn, and the global sequence counter restarts.  The warm-engine
    /// path of the serving layer goes through here.
    pub fn reset(&mut self, collect_trace: bool) {
        for slot in &mut self.arenas {
            let a = slot.cell.get_mut();
            for area in Area::ALL {
                let start = self.map.config.area_offset(area) as usize;
                let mark = std::mem::take(&mut a.touched[area.index()]);
                if mark > start {
                    a.words[start..mark].fill(Cell::Empty);
                }
            }
            a.stats = AreaStats::new(self.map.num_workers);
            a.trace = if collect_trace { Some(Vec::new()) } else { None };
        }
        self.shared.get_mut().unwrap().fill(Cell::Empty);
        *self.seq.get_mut() = 0;
        self.collect_trace = collect_trace;
    }

    /// Atomically read the unsigned word at `addr`, apply `f`, and write the
    /// result back, holding the owning arena's lock across both accesses.
    ///
    /// Records exactly the read reference followed by the write reference —
    /// the same traffic as a split [`Memory::read`]/[`Memory::write`] pair —
    /// so strict-mode traces are unchanged, while concurrent updates of the
    /// same counter word (Parcall Frame scheduling/completion counts under
    /// the relaxed backend) can no longer lose increments.  Returns the value
    /// read.
    pub fn rmw_uint(
        &self,
        pe: u8,
        addr: u32,
        object: ObjectKind,
        f: impl FnOnce(u32) -> u32,
    ) -> EngineResult<u32> {
        debug_assert_eq!(
            self.map.area_of(addr),
            object.area(),
            "object kind {object:?} used outside its area"
        );
        self.with_arena(self.map.owner(addr), |arena| {
            let offset = arena.record(&self.seq, pe, addr, false, object);
            let old = match arena.words[offset] {
                Cell::Uint(v) => v,
                other => {
                    return Err(EngineError::Internal(format!("rmw on non-uint word at {addr}: {other:?}")))
                }
            };
            let offset = arena.record(&self.seq, pe, addr, true, object);
            arena.store(offset, Cell::Uint(f(old)), object.area());
            Ok(old)
        })
    }

    /// Read one word without recording a reference (answer extraction,
    /// debugging, scheduler shadow checks).
    #[inline]
    pub fn read_untraced(&self, addr: u32) -> Cell {
        self.with_arena(self.map.owner(addr), |arena| arena.words[(addr - arena.base) as usize])
    }

    /// Read a word of the shared region (query board).  Untraced: the shared
    /// region is host coordination state, not part of the paper's Table 1
    /// storage model.
    #[inline]
    pub fn shared_read(&self, slot: u32) -> Cell {
        self.shared.lock().unwrap()[slot as usize]
    }

    /// Write a word of the shared region (query board).  Untraced.
    #[inline]
    pub fn shared_write(&self, slot: u32, value: Cell) {
        self.shared.lock().unwrap()[slot as usize] = value;
    }

    /// Check that `addr` (the next free word) still lies inside `area` of
    /// `worker`; produce an out-of-memory error otherwise.
    pub fn check_top(&self, worker: usize, area: Area, addr: u32) -> EngineResult<()> {
        if addr >= self.map.area_end(worker, area) {
            Err(EngineError::OutOfMemory { worker, area })
        } else {
            Ok(())
        }
    }

    /// Base address of an area for a worker (convenience forward).
    pub fn area_base(&self, worker: usize, area: Area) -> u32 {
        self.map.area_base(worker, area)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Locality;

    fn mem() -> Memory {
        Memory::new(MemoryConfig::small(), 2, true)
    }

    #[test]
    fn read_write_round_trip() {
        let m = mem();
        let base = m.area_base(0, Area::Heap);
        m.write(0, base, Cell::Int(7), ObjectKind::HeapTerm);
        assert_eq!(m.read(0, base, ObjectKind::HeapTerm), Cell::Int(7));
        let stats = m.merged_stats();
        assert_eq!(stats.total.reads, 1);
        assert_eq!(stats.total.writes, 1);
    }

    #[test]
    fn trace_records_every_reference_in_order() {
        let mut m = mem();
        let h = m.area_base(1, Area::Heap);
        let g = m.area_base(1, Area::GoalStack);
        m.write(1, h, Cell::Int(1), ObjectKind::HeapTerm);
        m.write(1, g, Cell::Uint(2), ObjectKind::GoalFrame);
        m.read(0, h, ObjectKind::HeapTerm);
        let t = m.take_trace().unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].pe, 1);
        assert!(t[0].write);
        assert_eq!(t[1].area, Area::GoalStack);
        assert!(t[1].locked);
        assert_eq!(t[2].pe, 0);
        assert!(!t[2].write);
        assert_eq!(t[2].locality, Locality::Global);
    }

    #[test]
    fn merged_trace_interleaves_arenas_in_issue_order() {
        let mut m = mem();
        let h0 = m.area_base(0, Area::Heap);
        let h1 = m.area_base(1, Area::Heap);
        // Alternate writes between the two arenas; the merged trace must
        // come back in exactly this order even though the accesses were
        // buffered in two different arenas.
        for i in 0..4 {
            m.write(0, h0 + i, Cell::Int(i as i64), ObjectKind::HeapTerm);
            m.write(1, h1 + i, Cell::Int(i as i64), ObjectKind::HeapTerm);
        }
        assert_eq!(m.trace_len(0), 4);
        assert_eq!(m.trace_len(1), 4);
        let t = m.take_trace().unwrap();
        let addrs: Vec<u32> = t.iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![h0, h1, h0 + 1, h1 + 1, h0 + 2, h1 + 2, h0 + 3, h1 + 3]);
    }

    #[test]
    fn cross_pe_accesses_land_in_the_owning_arena() {
        let m = mem();
        let h1 = m.area_base(1, Area::Heap);
        // PE 0 writes into PE 1's heap: the reference is accounted to
        // arena 1 (the owner), attributed to issuing PE 0.
        m.write(0, h1, Cell::Int(9), ObjectKind::HeapTerm);
        assert_eq!(m.arena_stats(0).total.total(), 0);
        assert_eq!(m.arena_stats(1).total.writes, 1);
        assert_eq!(m.arena_stats(1).per_pe[0].writes, 1);
        assert_eq!(m.arena_stats(1).per_pe[1].total(), 0);
    }

    #[test]
    fn untraced_reads_do_not_count() {
        let mut m = mem();
        let base = m.area_base(0, Area::Heap);
        m.write(0, base, Cell::Int(3), ObjectKind::HeapTerm);
        assert_eq!(m.read_untraced(base), Cell::Int(3));
        assert_eq!(m.merged_stats().total.total(), 1, "only the traced write counts");
        assert_eq!(m.take_trace().unwrap().len(), 1);
    }

    #[test]
    fn rmw_records_a_read_then_a_write() {
        let mut m = mem();
        let pf = m.area_base(0, Area::LocalStack);
        m.write(0, pf, Cell::Uint(3), ObjectKind::ParcallCount);
        let old = m.rmw_uint(1, pf, ObjectKind::ParcallCount, |v| v + 1).unwrap();
        assert_eq!(old, 3);
        assert_eq!(m.read_untraced(pf), Cell::Uint(4));
        let t = m.take_trace().unwrap();
        assert_eq!(t.len(), 3);
        assert!(!t[1].write, "rmw records the read first");
        assert!(t[2].write, "then the write");
        assert_eq!(t[1].pe, 1);
        assert_eq!(t[2].addr, pf);
        // Counter-word corruption is an engine error, not a panic.
        m.write(0, pf, Cell::Int(-1), ObjectKind::ParcallCount);
        assert!(m.rmw_uint(0, pf, ObjectKind::ParcallCount, |v| v).is_err());
    }

    #[test]
    fn concurrent_rmw_never_loses_increments() {
        let m = Memory::new(MemoryConfig::small(), 2, false);
        let pf = m.area_base(0, Area::LocalStack);
        m.write(0, pf, Cell::Uint(0), ObjectKind::ParcallCount);
        std::thread::scope(|s| {
            for pe in 0..2u8 {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.rmw_uint(pe, pf, ObjectKind::ParcallCount, |v| v + 1).unwrap();
                    }
                });
            }
        });
        assert_eq!(m.read_untraced(pf), Cell::Uint(2000));
        assert_eq!(m.merged_stats().total.total(), 4001);
    }

    #[test]
    fn shared_region_round_trips_without_counting() {
        let mut m = mem();
        m.shared_write(0, Cell::Uint(42));
        assert_eq!(m.shared_read(0), Cell::Uint(42));
        assert_eq!(m.merged_stats().total.total(), 0);
        assert_eq!(m.take_trace().unwrap().len(), 0);
    }

    #[test]
    fn check_top_detects_overflow() {
        let m = mem();
        let end = m.map.area_end(0, Area::Trail);
        assert!(m.check_top(0, Area::Trail, end - 1).is_ok());
        assert_eq!(
            m.check_top(0, Area::Trail, end),
            Err(EngineError::OutOfMemory { worker: 0, area: Area::Trail })
        );
    }

    #[test]
    fn tracing_can_be_disabled() {
        let mut m = Memory::new(MemoryConfig::small(), 1, false);
        let base = m.area_base(0, Area::Heap);
        m.write(0, base, Cell::Int(1), ObjectKind::HeapTerm);
        assert!(!m.tracing());
        assert!(m.take_trace().is_none());
        assert_eq!(m.merged_stats().total.writes, 1);
    }

    #[test]
    fn reset_clears_touched_words_counters_and_trace() {
        let mut m = mem();
        let h0 = m.area_base(0, Area::Heap);
        let h1 = m.area_base(1, Area::Heap);
        m.write(0, h0 + 3, Cell::Int(9), ObjectKind::HeapTerm);
        m.write(1, h1, Cell::Int(7), ObjectKind::HeapTerm);
        m.shared_write(0, Cell::Uint(1));
        m.reset(true);
        assert_eq!(m.read_untraced(h0 + 3), Cell::Empty);
        assert_eq!(m.read_untraced(h1), Cell::Empty);
        assert_eq!(m.shared_read(0), Cell::Empty);
        assert_eq!(m.merged_stats().total.total(), 0);
        assert!(m.tracing());
        // A reset memory behaves exactly like a fresh one.
        m.write(0, h0, Cell::Int(1), ObjectKind::HeapTerm);
        let t = m.take_trace().unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].addr, h0);
        // Reset can also disarm tracing for the next run.
        m.reset(false);
        assert!(!m.tracing());
        assert!(m.take_trace().is_none());
    }

    #[test]
    fn reset_sweeps_each_area_only_up_to_its_own_mark() {
        let mut m = mem();
        let h = m.area_base(0, Area::Heap);
        let c = m.area_base(0, Area::ControlStack);
        m.write(0, h + 1, Cell::Int(1), ObjectKind::HeapTerm);
        m.write(0, c, Cell::Uint(2), ObjectKind::ChoicePoint);
        m.with_arena(0, |a| {
            // The Control-stack word sits above the whole heap and local
            // stack in the arena; it must not drag their marks up with it.
            assert_eq!(a.touched[Area::Heap.index()], 2);
            assert_eq!(a.touched[Area::LocalStack.index()], 0);
            assert_eq!(a.touched[Area::ControlStack.index()], (c - a.base) as usize + 1);
            // Plant a word no write accounted for, past the heap's mark: a
            // reset that swept the heap up to the Control-stack write (one
            // arena-wide mark) would clear it.
            a.words[5] = Cell::Int(99);
        });
        m.reset(true);
        assert_eq!(m.read_untraced(h + 1), Cell::Empty);
        assert_eq!(m.read_untraced(c), Cell::Empty);
        assert_eq!(m.read_untraced(h + 5), Cell::Int(99), "the heap was swept past its own mark");
        m.with_arena(0, |a| assert_eq!(a.touched, [0; Area::ALL.len()]));
    }

    #[test]
    fn serial_mode_counts_and_traces_identically() {
        let mut locked = mem();
        let mut serial = mem();
        serial.set_serial(true);
        assert!(serial.serial() && !locked.serial());
        for m in [&locked, &serial] {
            let h0 = m.area_base(0, Area::Heap);
            let h1 = m.area_base(1, Area::Heap);
            m.write(0, h0, Cell::Int(5), ObjectKind::HeapTerm);
            m.write(1, h1, Cell::Int(6), ObjectKind::HeapTerm);
            assert_eq!(m.read(0, h1, ObjectKind::HeapTerm), Cell::Int(6));
            m.rmw_uint(0, m.area_base(0, Area::LocalStack), ObjectKind::ParcallCount, |v| v).unwrap_err();
        }
        let ls = locked.merged_stats();
        let ss = serial.merged_stats();
        assert_eq!(ls.total.reads, ss.total.reads);
        assert_eq!(ls.total.writes, ss.total.writes);
        let lt: Vec<_> = locked.take_trace().unwrap();
        let st: Vec<_> = serial.take_trace().unwrap();
        assert_eq!(lt.len(), st.len());
        for (a, b) in lt.iter().zip(st.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn fast_path_flush_counts_identically_to_recorded_accesses() {
        let slow = Memory::new(MemoryConfig::small(), 1, false);
        let mut fast = Memory::new(MemoryConfig::small(), 1, false);
        fast.set_serial(true);
        assert!(fast.fast());
        assert!(!slow.fast(), "locked mode must not advertise the fast path");
        // Same access pattern through both paths (arena 0's base is 0, so
        // global addresses double as offsets).
        let h = slow.area_base(0, Area::Heap);
        let t = slow.area_base(0, Area::Trail);
        slow.write(0, h, Cell::Int(1), ObjectKind::HeapTerm);
        assert_eq!(slow.read(0, h, ObjectKind::HeapTerm), Cell::Int(1));
        slow.write(0, t, Cell::Uint(7), ObjectKind::TrailEntry);
        let mut delta = RefDelta::default();
        fast.serial_write(0, h, Cell::Int(1), Area::Heap);
        delta.count(ObjectKind::HeapTerm, true);
        assert_eq!(fast.serial_read(0, h), Cell::Int(1));
        delta.count(ObjectKind::HeapTerm, false);
        fast.serial_write(0, t, Cell::Uint(7), Area::Trail);
        delta.count(ObjectKind::TrailEntry, true);
        // Before the flush nothing is visible; after it the aggregates match.
        assert_eq!(fast.merged_stats().total.total(), 0);
        fast.flush_delta(0, &mut delta);
        assert_eq!(delta.total, 0);
        let (fs, ss) = (fast.merged_stats(), slow.merged_stats());
        assert_eq!(fs.total, ss.total);
        assert_eq!(fs.per_area, ss.per_area);
        assert_eq!(fs.per_object, ss.per_object);
        assert_eq!(fs.global_refs, ss.global_refs);
        assert_eq!(fs.local_refs, ss.local_refs);
        assert_eq!(fs.per_pe, ss.per_pe);
        // The reset marks are maintained, so reset still clears.
        fast.reset(false);
        assert_eq!(fast.serial_read(0, h), Cell::Empty);
        assert_eq!(fast.serial_read(0, t), Cell::Empty);
    }

    #[test]
    fn reset_preserves_the_serial_flag() {
        let mut m = mem();
        m.set_serial(true);
        m.reset(true);
        assert!(m.serial());
        let h = m.area_base(0, Area::Heap);
        m.write(0, h, Cell::Int(2), ObjectKind::HeapTerm);
        assert_eq!(m.read(0, h, ObjectKind::HeapTerm), Cell::Int(2));
    }

    #[test]
    fn len_counts_every_arena_and_the_shared_region() {
        let m = mem();
        let expected = 2 * MemoryConfig::small().stack_set_words() as usize + SHARED_REGION_WORDS as usize;
        assert_eq!(m.len(), expected);
        assert!(!m.is_empty());
        assert_eq!(m.len() as u64, m.map.total_words());
    }
}
