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
//! This is the paper's shared memory: any PE may load or store any word, and
//! only the bookkeeping of an access costs a lock.
//!
//! **Words are atomics.**  An arena word is a lock-free pair of `AtomicU64`s
//! (`Word`), so loading or storing a cell never takes a lock and is sound from
//! any thread, for any program — including one whose parallel goals are *not*
//! independent and race on a variable cell.  A store writes the high half
//! (the `i64` of a [`Cell::Int`], nothing else uses it) and then
//! Release-stores the low half (tag, arity, 32-bit payload); a load
//! Acquire-loads the low half and reads the high half only for an `Int`.
//! Whatever the interleaving, a load returns a well-formed cell whose tag and
//! payload were each stored by some writer: a torn `Int` is still an `Int`
//! carrying a value that was written.  The Release/Acquire pair on the low
//! half also publishes what a cell points at: a PE that loads a `Str` another
//! PE stored sees the functor and arguments that PE built first.  No `&mut`
//! to the words exists while a query runs; only [`Memory::reset`] and the
//! drop (`&mut self`) form one.
//!
//! **The book is locked.**  Each arena's *book* — its [`AreaStats`], its
//! trace buffer and the reset marks of recorded writes — sits behind the
//! arena's mutex.  An access is one of two kinds:
//!
//! * *Recorded* ([`Memory::read`], [`Memory::write`], [`Memory::rmw_uint`]):
//!   takes the owning arena's book lock (skipped in serial mode, see
//!   [`Memory::serial`]), counts the reference, appends the trace record
//!   when tracing is on, and moves the word inside the critical section.
//!   References into another PE's Stack Set (a thief picking up a stolen
//!   goal, slot words, a Message to a parent, a binding) and every reference
//!   of a traced run are recorded.
//! * *Owner-path* (the crate-private `owner_read` / `owner_write` /
//!   `owner_rmw_uint`): a PE's untraced reference to its own Stack Set,
//!   whatever the object — Parcall Frames, Goal Frames, Markers and Messages
//!   included.  It takes no lock and touches no shared counter; the PE counts
//!   it in its worker-local [`RefDelta`] and folds the batch into the book
//!   with [`Memory::flush_delta`].  Both backends use it, because almost
//!   every reference stays inside the issuing PE's own Stack Set — the
//!   paper's central finding — and a parallel goal nobody stole is one of
//!   them.
//!
//! **Counters are atomic by the word, not by the lock.**  The Parcall Frame
//! words several PEs update (goals to schedule, goals completed, status) hold
//! a [`Cell::Uint`], which lives wholly in the low half, so a
//! read-modify-write of one is a single `AcqRel` compare-exchange
//! (`Word::update_uint`).  [`Memory::rmw_uint`] and the owner path issue the
//! same one — the recorded flavour merely brackets it with the two book
//! records a split read/write pair would have made — so the owner's unlocked
//! update and a remote PE's locked one cannot lose each other.  The only
//! plain stores to those words are the ones that initialise a frame, before
//! any of its Goal Frames is on a board.  The compare-exchange is also the
//! happens-before edge of the counter-last completion commit: a child's
//! bindings are ordered before its increment (Release), and a parent that
//! loads the final count (Acquire, on either path) sees every binding the
//! children stored before incrementing it.
//!
//! Under the strict (interleaved) backend only one thread touches the memory
//! and the recorded order is exactly the reference order; under the relaxed
//! backend the per-reference order is whatever the race produced (the
//! sequence numbers still give a total order for the merge).
//!
//! # Where words come from
//!
//! A dropped memory clears the words it wrote — each area up to its reset
//! mark, as [`Memory::reset`] does — and parks its word arrays in a small
//! process-wide list; [`Memory::new`] takes a parked array of the right
//! length before it asks the allocator.  A "cold" engine build therefore
//! costs what the previous run of that shape touched, not the Stack Sets'
//! capacity (see the `PARKED` list in this file for why asking the allocator
//! every time cost the capacity, and for the bound).  A parked array may next
//! hold another program's data, so the completeness of the sweep is a
//! confidentiality property; `tests/parked_words.rs` checks it over whole
//! arrays.
//!
//! Answer extraction and debugging use [`Memory::read_untraced`] so that
//! inspecting a result does not perturb the measured reference counts.  The
//! shared region above the Stack Sets holds coordination state (the query
//! board) and is likewise accessed only through untraced accessors.

use crate::cell::Cell;
use crate::error::{EngineError, EngineResult};
use crate::layout::{AddressMap, Area, MemoryConfig, ObjectKind, SHARED_REGION_WORDS};
use crate::trace::{AreaStats, MemRef, RefDelta};
use pwam_front::atoms::Atom;
use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

// Tags of the low half of a `Word`.  `Empty` is all-zero so a zero-filled
// allocation is a pristine arena.
const TAG_EMPTY: u8 = 0;
const TAG_REF: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_LIS: u8 = 3;
const TAG_CON: u8 = 4;
const TAG_INT: u8 = 5;
const TAG_FUN: u8 = 6;
const TAG_CODE: u8 = 7;
const TAG_UINT: u8 = 8;

#[inline(always)]
const fn pack(tag: u8, arity: u8, payload: u32) -> u64 {
    tag as u64 | (arity as u64) << 8 | (payload as u64) << 32
}

/// The two halves of a cell's stored form: `lo = tag | arity << 8 |
/// payload << 32`; `hi` is the value of an `Int` and zero otherwise.
#[inline(always)]
pub(crate) fn encode(cell: Cell) -> (u64, u64) {
    match cell {
        Cell::Empty => (pack(TAG_EMPTY, 0, 0), 0),
        Cell::Ref(a) => (pack(TAG_REF, 0, a), 0),
        Cell::Str(a) => (pack(TAG_STR, 0, a), 0),
        Cell::Lis(a) => (pack(TAG_LIS, 0, a), 0),
        Cell::Con(Atom(a)) => (pack(TAG_CON, 0, a), 0),
        Cell::Int(v) => (pack(TAG_INT, 0, 0), v as u64),
        Cell::Fun(Atom(a), n) => (pack(TAG_FUN, n, a), 0),
        Cell::Code(a) => (pack(TAG_CODE, 0, a), 0),
        Cell::Uint(v) => (pack(TAG_UINT, 0, v), 0),
    }
}

/// Rebuild a cell from its low half, fetching the high half only when the
/// tag says it carries the value.
#[inline(always)]
pub(crate) fn decode(lo: u64, hi: impl FnOnce() -> u64) -> Cell {
    let payload = (lo >> 32) as u32;
    match lo as u8 {
        TAG_REF => Cell::Ref(payload),
        TAG_STR => Cell::Str(payload),
        TAG_LIS => Cell::Lis(payload),
        TAG_CON => Cell::Con(Atom(payload)),
        TAG_INT => Cell::Int(hi() as i64),
        TAG_FUN => Cell::Fun(Atom(payload), (lo >> 8) as u8),
        TAG_CODE => Cell::Code(payload),
        TAG_UINT => Cell::Uint(payload),
        tag => {
            debug_assert_eq!(tag, TAG_EMPTY, "arena word with an unknown tag");
            Cell::Empty
        }
    }
}

/// One arena word: a tagged cell stored as a lock-free atomic pair.
///
/// `store` writes the halves, always `hi` before `lo`, and `load` reads them
/// `lo` before `hi`; see the module's Concurrency section for what that order
/// guarantees.  On x86-64 every one of these is a plain `mov`.  `update_uint`
/// touches `lo` alone (one `lock cmpxchg`).
#[derive(Debug)]
#[repr(C, align(16))]
struct Word {
    lo: AtomicU64,
    hi: AtomicU64,
}

impl Word {
    #[inline(always)]
    fn load(&self) -> Cell {
        // Acquire pairs with the Release in `store`: having seen this `lo`,
        // the `hi` load below cannot return a value older than the one its
        // writer stored, and neither can loads of the words the cell points at.
        decode(self.lo.load(Ordering::Acquire), || self.hi.load(Ordering::Relaxed))
    }

    #[inline(always)]
    fn store(&self, cell: Cell) {
        let (lo, hi) = encode(cell);
        if lo as u8 == TAG_INT {
            // Ordered before the tag by the Release below.
            self.hi.store(hi, Ordering::Relaxed);
        }
        self.lo.store(lo, Ordering::Release);
    }

    /// Replace the `Uint` this word holds by `f` of it and return the value
    /// replaced; a word holding anything else is left alone and returned as
    /// the error.  A `Uint` lives wholly in `lo`, so the update is one
    /// compare-exchange, atomic against every other update and store of the
    /// word whoever issues it and whether or not they hold a lock.  The
    /// Release half orders everything the caller stored before (a child's
    /// bindings before its completion count); the Acquire half, like `load`'s,
    /// shows the caller what earlier updaters stored before theirs.
    #[inline(always)]
    fn update_uint(&self, mut f: impl FnMut(u32) -> u32) -> Result<u32, Cell> {
        self.lo
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |lo| {
                (lo as u8 == TAG_UINT).then(|| pack(TAG_UINT, 0, f((lo >> 32) as u32)))
            })
            .map(|lo| (lo >> 32) as u32)
            .map_err(|lo| decode(lo, || self.hi.load(Ordering::Relaxed)))
    }
}

/// Word arrays of dropped memories, every word swept back to zero, waiting
/// for the next [`Memory::new`] with a Stack Set of the same length.
///
/// Asking the allocator every time is what made a "cold" build cost its
/// capacity: glibc serves the first 26 MB array by `mmap` (lazy zero pages),
/// but freeing it raises the allocator's dynamic mmap threshold past that
/// size, so every later array comes off the heap and `alloc_zeroed` memsets
/// all of it — resident pages and a millisecond per PE, whatever the run then
/// touches.  A dropped memory instead clears what it wrote (its reset marks
/// say where) and parks the arrays here, so the next build of that shape
/// costs what the previous run touched.  An array keeps only the pages it
/// ever touched; the list holds at most [`MAX_PARKED`] arrays and frees the
/// longest-parked one to admit another, so shapes nobody builds any more age
/// out.
///
/// A parked array may next serve another tenant's query: that
/// [`Memory::sweep_words`] leaves no word behind is a confidentiality
/// property — the one the serving pool's warm slots already rest on.
static PARKED: Mutex<Vec<Box<[Word]>>> = Mutex::new(Vec::new());

/// Two 8-PE memories' worth: an 8-PE engine and its 8-PE successor.
const MAX_PARKED: usize = 16;

fn parked() -> MutexGuard<'static, Vec<Box<[Word]>>> {
    // The list is consistent between any two of its operations, so a panic
    // elsewhere while the lock was held loses nothing.
    PARKED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether every half of every word is zero: the post-allocation state.
fn all_zero(words: &[Word]) -> bool {
    words.iter().all(|w| w.lo.load(Ordering::Relaxed) == 0 && w.hi.load(Ordering::Relaxed) == 0)
}

/// Park a swept word array for the next [`empty_words`] of its length.
fn park(words: Box<[Word]>) {
    if words.is_empty() {
        return;
    }
    // A dirty word parked here surfaces in whichever memory is built next,
    // far from its cause.  Checking every array would add seconds of scanning
    // to the test suite; the small Stack Sets the unit tests build are cheap
    // (the full-size ones are covered by `tests/parked_words.rs`).
    #[cfg(test)]
    if words.len() <= MemoryConfig::small().stack_set_words() as usize && !std::thread::panicking() {
        assert!(all_zero(&words), "a swept arena still holds a written word");
    }
    let mut list = parked();
    let _evicted = (list.len() >= MAX_PARKED).then(|| list.remove(0));
    list.push(words);
    // Unlock first: the evicted array is freed as this returns.
    drop(list);
}

/// `n` words of zeroed storage, every one reading [`Cell::Empty`]: a parked
/// array of that length when there is one (the most recently parked, whose
/// touched pages are the likeliest to be cached still), fresh from the
/// allocator otherwise.  Asking the allocator for zeroed memory (rather than
/// writing `n` empty words) leaves the untouched tail of a Stack Set as
/// never-faulted zero pages the first time round.
fn empty_words(n: usize) -> Box<[Word]> {
    let layout = Layout::array::<Word>(n).expect("arena size overflows the address space");
    if layout.size() == 0 {
        return Box::default();
    }
    {
        let mut list = parked();
        if let Some(i) = list.iter().rposition(|words| words.len() == n) {
            return list.remove(i);
        }
    }
    // SAFETY: `layout` has non-zero size.  The all-zero bit pattern is a
    // valid `Word` (two `AtomicU64`s holding 0), so the `n` zeroed elements
    // are initialised, and `Box<[Word]>` frees them with this same layout.
    unsafe {
        let p = alloc_zeroed(layout).cast::<Word>();
        if p.is_null() {
            handle_alloc_error(layout);
        }
        Box::from_raw(std::ptr::slice_from_raw_parts_mut(p, n))
    }
}

/// One reference record tagged with its position in the global interleaving
/// order, so per-arena trace buffers can be merged deterministically.
#[derive(Debug, Clone, Copy)]
struct SeqRef {
    seq: u64,
    r: MemRef,
}

/// Per area (by [`Area::index`]), one past the highest arena offset written
/// there; [`Memory::reset`] only has to clear each area's used prefix, so
/// recycling a warm arena costs proportional to what the previous run used,
/// not the arena's capacity.  One mark for the whole arena would not do: the
/// areas are laid out back to back, so a single choice-point or trail write
/// would put the heap's and local stack's entire capacity below the mark.
type Marks<T> = [T; Area::ALL.len()];

/// The trace record of one reference to an `object` word.
fn mem_ref(pe: u8, addr: u32, write: bool, object: ObjectKind) -> MemRef {
    MemRef {
        pe,
        addr,
        write,
        area: object.area(),
        object,
        locality: object.locality(),
        locked: object.locked(),
    }
}

/// The bookkeeping of an arena's *recorded* accesses, guarded by the arena's
/// lock.
#[derive(Debug)]
struct Book {
    /// Reference counters for accesses landing in this arena (indexed by
    /// issuing PE in `stats.per_pe`, which may differ from the owner).
    stats: AreaStats,
    /// This arena's slice of the reference trace (when enabled), in issue
    /// order and tagged with global sequence numbers.
    trace: Option<Vec<SeqRef>>,
    /// Reset marks of the recorded writes (any PE, under the lock).
    marks: Marks<usize>,
}

impl Book {
    fn new(num_workers: usize, collect_trace: bool) -> Self {
        Book {
            stats: AreaStats::new(num_workers),
            trace: if collect_trace { Some(Vec::new()) } else { None },
            marks: [0; Area::ALL.len()],
        }
    }

    /// Record one reference in this arena's counters (and trace buffer).
    fn record(&mut self, seq: &AtomicU64, pe: u8, addr: u32, write: bool, object: ObjectKind) {
        let r = mem_ref(pe, addr, write, object);
        self.stats.record(&r);
        // The global sequence counter only orders trace records; skipping it
        // when tracing is off keeps the hot path free of a shared cache line
        // that every thread of the relaxed backend would otherwise fight over.
        if let Some(t) = &mut self.trace {
            t.push(SeqRef { seq: seq.fetch_add(1, Ordering::Relaxed), r });
        }
    }

    /// Advance `area`'s reset mark past a recorded write at arena `offset`.
    #[inline(always)]
    fn mark_written(&mut self, area: Area, offset: usize) {
        let mark = &mut self.marks[area.index()];
        *mark = (*mark).max(offset + 1);
    }
}

/// The storage of one PE's Stack Set: its words, and behind the arena's lock
/// its reference counters and (optionally) its share of the reference trace.
#[derive(Debug)]
pub struct StackSetArena {
    /// Global address of the arena's first word.
    base: u32,
    words: Box<[Word]>,
    /// Reset marks of the owner-path writes.  Only the thread stepping the
    /// owning PE moves them (a Relaxed load and a conditional Relaxed store,
    /// never a shared read-modify-write); nothing reads them until
    /// [`Memory::reset`], which has `&mut self`.
    owner_marks: Marks<AtomicUsize>,
    /// Guards `book` when the memory is shared.  The book lives in an
    /// [`UnsafeCell`] rather than inside the mutex so a backend that
    /// serialises memory access *by construction* (interleaved round-robin
    /// on one host thread) can reach it without an atomic operation per
    /// recorded reference — the lock is only taken when [`Memory::serial`]
    /// is off.
    lock: Mutex<()>,
    book: UnsafeCell<Book>,
}

// SAFETY: every field but `book` is `Sync` on its own (the words and owner
// marks are atomics).  `book` is only reached through `Memory::with_arena`,
// which either holds `lock` for the duration of the access or runs in serial
// mode, where a single host thread drives every PE (see
// `Memory::set_serial`), and through `&mut Memory`.
unsafe impl Sync for StackSetArena {}

impl StackSetArena {
    fn new(base: u32, words: u32, num_workers: usize, collect_trace: bool) -> Self {
        StackSetArena {
            base,
            words: empty_words(words as usize),
            owner_marks: Default::default(),
            lock: Mutex::new(()),
            book: UnsafeCell::new(Book::new(num_workers, collect_trace)),
        }
    }

    /// The word at global address `addr`, which this arena owns.
    #[inline(always)]
    fn word(&self, addr: u32) -> &Word {
        &self.words[(addr - self.base) as usize]
    }

    /// Advance the owner's reset mark of `area` past an owner-path write at
    /// arena `offset`.
    #[inline(always)]
    fn mark_owner_written(&self, area: Area, offset: usize) {
        // Relaxed: the owning PE's thread is the mark's only writer, and
        // `reset` reads it through `&mut self`.
        let mark = &self.owner_marks[area.index()];
        if offset >= mark.load(Ordering::Relaxed) {
            mark.store(offset + 1, Ordering::Relaxed);
        }
    }
}

/// The engine error for a counter word that does not hold a `Uint`.
fn not_a_uint(addr: u32, found: Cell) -> EngineError {
    EngineError::Internal(format!("rmw on non-uint word at {addr}: {found:?}"))
}

/// The word-addressed data memory, sharded into one arena per PE.
///
/// The public address space is unchanged from the flat layout: word `addr`
/// belongs to arena `map.owner(addr)` at offset `addr - arena.base`, and the
/// shared region sits above the last Stack Set.
#[derive(Debug)]
pub struct Memory {
    arenas: Vec<StackSetArena>,
    /// The shared coordination region (query board); untraced by design.
    shared: Mutex<Vec<Cell>>,
    pub map: AddressMap,
    /// Next global sequence number (total references recorded so far).
    seq: AtomicU64,
    collect_trace: bool,
    /// When set, recorded accesses skip the per-arena book lock.  Sound only
    /// while one thread performs every memory access (see
    /// [`Memory::set_serial`]); the default is the locked shared mode.
    serial: bool,
}

impl Memory {
    /// Allocate the data memory for `num_workers` Stack Sets.
    pub fn new(config: MemoryConfig, num_workers: usize, collect_trace: bool) -> Self {
        let map = AddressMap::new(config, num_workers);
        let set_words = config.stack_set_words();
        let arenas = (0..num_workers)
            .map(|w| StackSetArena::new(w as u32 * set_words, set_words, num_workers, collect_trace))
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

    /// Switch recorded accesses between serial (no book lock) and shared
    /// (per-arena book lock) mode.  Word loads and stores are lock-free
    /// atomics in both.
    ///
    /// # Soundness contract
    ///
    /// Serial mode may only be on while a single thread performs every
    /// memory access.  The crate upholds that, not the caller, which is why
    /// this is not public: `Engine::build` is the only caller and turns
    /// serial mode on exactly when the engine's configuration is not
    /// `sched::free_running` — the same value `sched::drive` picks the
    /// driver by, so a serial memory is only ever stepped by the interleaved
    /// driver's one host thread.  An [`Engine`](crate::Engine) is not `Sync`,
    /// so `&self` readers of a serial memory's books (statistics) stay on the
    /// thread that holds the engine, and [`Engine::into_memory`](crate::Engine::into_memory)
    /// hands the memory out with serial mode off.  The relaxed backend, where
    /// every PE free-runs on its own thread, keeps the book locks.
    pub(crate) fn set_serial(&mut self, serial: bool) {
        self.serial = serial;
    }

    /// Whether recorded accesses currently bypass the per-arena book locks.
    /// Only an engine turns this on, for the one thread that drives it (the
    /// soundness contract is on the crate-private `set_serial`); a memory
    /// from [`Memory::new`] or out of an engine is never serial.
    pub fn serial(&self) -> bool {
        self.serial
    }

    /// Whether the memory allows the unrecorded owner path: tracing is off,
    /// so there is no per-reference record to append and no sequence number
    /// to claim.  A PE may then serve references to its own Stack Set through
    /// the private `owner_read` / `owner_write` helpers and count them in
    /// its worker's [`RefDelta`] instead of the arena's [`AreaStats`]; the
    /// flush ([`Memory::flush_delta`]) restores identical aggregate counts.
    /// Locking does not enter into it: the words are atomics either way.
    #[inline(always)]
    pub fn fast(&self) -> bool {
        !self.collect_trace
    }

    /// Load one word of arena `idx` at `offset` without recording — the
    /// caller, the PE that owns the arena, accounts the reference in a
    /// [`RefDelta`].
    #[inline(always)]
    pub(crate) fn owner_read(&self, idx: usize, offset: u32) -> Cell {
        self.arenas[idx].words[offset as usize].load()
    }

    /// Store one word of arena `idx` at `offset` (which lies in `area`)
    /// without recording — the caller, the PE that owns the arena, accounts
    /// the reference in a [`RefDelta`].  Advances the owner's reset mark.
    #[inline(always)]
    pub(crate) fn owner_write(&self, idx: usize, offset: u32, value: Cell, area: Area) {
        let arena = &self.arenas[idx];
        arena.words[offset as usize].store(value);
        arena.mark_owner_written(area, offset as usize);
    }

    /// [`Memory::rmw_uint`] on the owner path: atomically replace the `Uint`
    /// at `offset` of arena `idx` (which lies in `area`) by `f` of it, without
    /// recording — the caller, the PE that owns the arena, accounts the read
    /// and the write in a [`RefDelta`].  Advances the owner's reset mark.
    #[inline(always)]
    pub(crate) fn owner_rmw_uint(
        &self,
        idx: usize,
        offset: u32,
        area: Area,
        f: impl FnMut(u32) -> u32,
    ) -> EngineResult<u32> {
        let arena = &self.arenas[idx];
        let old =
            arena.words[offset as usize].update_uint(f).map_err(|c| not_a_uint(arena.base + offset, c))?;
        arena.mark_owner_written(area, offset as usize);
        Ok(old)
    }

    /// Fold a worker's batched owner-path reference counts into its own
    /// arena's counters and clear the delta.  Called at batch boundaries
    /// and before counters are read out, so aggregate statistics are
    /// indistinguishable from unbatched accounting.  (Owner-path accesses
    /// are own-arena by construction, so `own` — the worker id — is always
    /// the arena every deferred count belongs to.)
    pub fn flush_delta(&self, own: usize, delta: &mut RefDelta) {
        if delta.total == 0 {
            return;
        }
        self.with_arena(own, |_, book| book.stats.bulk_record(own as u8, &delta.counts));
        delta.clear();
    }

    /// Run `f` on arena `idx` with exclusive access to its book, taking the
    /// book lock unless the memory is in serial mode.
    #[inline(always)]
    fn with_arena<R>(&self, idx: usize, f: impl FnOnce(&StackSetArena, &mut Book) -> R) -> R {
        let arena = &self.arenas[idx];
        if self.serial {
            // SAFETY: serial mode promises that one thread performs every
            // access (see `set_serial`) and `f` cannot re-enter, so the
            // exclusive borrow of the book cannot alias another live borrow.
            f(arena, unsafe { &mut *arena.book.get() })
        } else {
            let _guard = arena.lock.lock().expect("a thread panicked holding an arena's book lock");
            // SAFETY: `lock` is held for the whole access.
            f(arena, unsafe { &mut *arena.book.get() })
        }
    }

    /// Total number of words in the memory: every Stack Set arena plus the
    /// shared region.
    pub fn len(&self) -> usize {
        self.arenas.iter().map(|a| a.words.len()).sum::<usize>() + SHARED_REGION_WORDS as usize
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
        self.with_arena(worker, |_, book| book.stats.clone())
    }

    /// Number of trace records currently buffered in one arena.
    pub fn trace_len(&self, worker: usize) -> usize {
        self.with_arena(worker, |_, book| book.trace.as_ref().map_or(0, Vec::len))
    }

    /// Merge every arena's counters into one aggregate view (what a flat
    /// memory would have counted).
    pub fn merged_stats(&self) -> AreaStats {
        let mut total = AreaStats::new(self.map.num_workers);
        for i in 0..self.arenas.len() {
            self.with_arena(i, |_, book| total.merge(&book.stats));
        }
        total
    }

    /// Take the collected trace out of the memory, merging the per-arena
    /// buffers back into the global interleaving order (leaves the buffers
    /// empty behind).  Returns `None` when tracing is disabled.
    ///
    /// Every recorded reference claimed exactly one value of a dense global
    /// sequence counter, so its sequence number *is* its index in the merged
    /// trace and the merge places each record there, comparing nothing.  The
    /// result reproduces the exact order in which the references were issued
    /// — under a strict backend the merged trace is byte-for-byte the trace
    /// a single flat buffer would have collected; under the relaxed backend
    /// it is the total order the race actually produced.
    pub fn take_trace(&mut self) -> Option<Vec<MemRef>> {
        if !self.collect_trace {
            return None;
        }
        self.collect_trace = false;
        let n = *self.seq.get_mut() as usize;
        // Every element is overwritten: `n` distinct indices get placed.
        let mut all = vec![mem_ref(0, 0, false, ObjectKind::HeapTerm); n];
        let mut placed = 0;
        for arena in &mut self.arenas {
            for s in arena.book.get_mut().trace.take().unwrap_or_default() {
                all[s.seq as usize] = s.r;
                placed += 1;
            }
        }
        assert_eq!(placed, n, "a claimed sequence number has no trace record");
        Some(all)
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
        self.with_arena(self.map.owner(addr), |arena, book| {
            book.record(&self.seq, pe, addr, false, object);
            arena.word(addr).load()
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
        self.with_arena(self.map.owner(addr), |arena, book| {
            book.record(&self.seq, pe, addr, true, object);
            arena.word(addr).store(value);
            book.mark_written(object.area(), (addr - arena.base) as usize);
        });
    }

    /// Return the memory to its pristine post-allocation state without
    /// freeing the arenas: every word written since allocation (or the last
    /// reset) is cleared, the reference counters and trace buffers are
    /// reborn, and the global sequence counter restarts.  The warm-engine
    /// path of the serving layer goes through here.
    pub fn reset(&mut self, collect_trace: bool) {
        self.sweep_words();
        for arena in &mut self.arenas {
            *arena.book.get_mut() = Book::new(self.map.num_workers, collect_trace);
        }
        self.shared.get_mut().unwrap().fill(Cell::Empty);
        *self.seq.get_mut() = 0;
        self.collect_trace = collect_trace;
    }

    /// Clear every arena word written since allocation (or the last sweep)
    /// and take the reset marks back to zero.  Each area is swept only up to
    /// its own mark, so the cost is what the run touched.
    fn sweep_words(&mut self) {
        for arena in &mut self.arenas {
            let book = arena.book.get_mut();
            for area in Area::ALL {
                let start = self.map.config.area_offset(area) as usize;
                // A remote recorded write (a Message, a binding) can land
                // above anything the owner wrote, and the other way round.
                let mark = std::mem::take(&mut book.marks[area.index()])
                    .max(std::mem::take(arena.owner_marks[area.index()].get_mut()));
                if mark > start {
                    for word in &mut arena.words[start..mark] {
                        *word.lo.get_mut() = 0;
                        *word.hi.get_mut() = 0;
                    }
                }
            }
        }
    }

    /// Whether every arena word is in its post-allocation state, both halves
    /// zero — what [`Memory::new`] hands out and what a sweep must restore.
    /// Scans every word of every arena; for tests of the sweep.
    #[doc(hidden)]
    pub fn is_pristine(&self) -> bool {
        self.arenas.iter().all(|arena| all_zero(&arena.words))
    }

    /// Atomically read the unsigned word at `addr`, apply `f`, and write the
    /// result back.
    ///
    /// Records exactly the read reference followed by the write reference —
    /// the same traffic as a split [`Memory::read`]/[`Memory::write`] pair —
    /// so strict-mode traces are unchanged.  The update is atomic by the word,
    /// not by the lock: it is one compare-exchange (`Word::update_uint`), the
    /// same one the owner path issues with no lock at all, so concurrent
    /// updates of a counter word (Parcall Frame scheduling/completion counts
    /// and status under the relaxed backend) cannot lose each other whichever
    /// path each comes by.  The book lock held here guards the two records
    /// and the reset mark, nothing else.  `f` may run more than once when
    /// updates race.  Returns the value read.
    pub fn rmw_uint(
        &self,
        pe: u8,
        addr: u32,
        object: ObjectKind,
        f: impl FnMut(u32) -> u32,
    ) -> EngineResult<u32> {
        debug_assert_eq!(
            self.map.area_of(addr),
            object.area(),
            "object kind {object:?} used outside its area"
        );
        self.with_arena(self.map.owner(addr), |arena, book| {
            book.record(&self.seq, pe, addr, false, object);
            let old = arena.word(addr).update_uint(f).map_err(|c| not_a_uint(addr, c))?;
            book.record(&self.seq, pe, addr, true, object);
            book.mark_written(object.area(), (addr - arena.base) as usize);
            Ok(old)
        })
    }

    /// Read one word without recording a reference (answer extraction,
    /// debugging, scheduler shadow checks).
    #[inline]
    pub fn read_untraced(&self, addr: u32) -> Cell {
        self.arenas[self.map.owner(addr)].word(addr).load()
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

/// A dropped memory's word arrays are swept here — where the layout that
/// gives the area offsets is still known — and parked, so a parked array is
/// always all-[`Cell::Empty`] and its length is all a later build must match.
impl Drop for Memory {
    fn drop(&mut self) {
        self.sweep_words();
        for arena in &mut self.arenas {
            park(std::mem::take(&mut arena.words));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Locality;
    use crate::model::{interleave, ModelStep, ModelWord};

    fn mem() -> Memory {
        Memory::new(MemoryConfig::small(), 2, true)
    }

    /// One of every `Cell` variant, with the extreme payloads.
    fn every_variant() -> Vec<Cell> {
        vec![
            Cell::Empty,
            Cell::Ref(0),
            Cell::Ref(u32::MAX),
            Cell::Str(u32::MAX),
            Cell::Lis(u32::MAX),
            Cell::Con(Atom(u32::MAX)),
            Cell::Int(0),
            Cell::Int(-1),
            Cell::Int(i64::MIN),
            Cell::Int(i64::MAX),
            Cell::Fun(Atom(u32::MAX), 255),
            Cell::Fun(Atom(7), 0),
            Cell::Code(u32::MAX),
            Cell::Uint(u32::MAX),
        ]
    }

    #[test]
    fn words_round_trip_every_cell_variant() {
        assert_eq!(std::mem::size_of::<Word>(), 16);
        assert_eq!(encode(Cell::Empty), (0, 0), "a zeroed word must read Empty");
        let word = &empty_words(1)[0];
        assert_eq!(word.load(), Cell::Empty);
        for cell in every_variant() {
            let (lo, hi) = encode(cell);
            assert_eq!(decode(lo, || hi), cell);
            word.store(cell);
            assert_eq!(word.load(), cell);
        }
        // A non-`Int` store leaves the stale high half alone and no load
        // looks at it.
        word.store(Cell::Int(i64::MIN));
        word.store(Cell::Uint(3));
        assert_eq!(word.load(), Cell::Uint(3));
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
        // Counter-word corruption is an engine error, not a panic, on
        // either path, and leaves the word alone.
        m.write(0, pf, Cell::Int(-1), ObjectKind::ParcallCount);
        assert!(m.rmw_uint(0, pf, ObjectKind::ParcallCount, |v| v + 1).is_err());
        assert!(m.owner_rmw_uint(0, pf, Area::LocalStack, |v| v + 1).is_err());
        assert_eq!(m.read_untraced(pf), Cell::Int(-1));
    }

    #[test]
    fn concurrent_rmw_never_loses_increments() {
        let m = Memory::new(MemoryConfig::small(), 2, false);
        let pf = m.area_base(0, Area::LocalStack);
        let rounds = if cfg!(miri) { 50 } else { 1000 };
        m.write(0, pf, Cell::Uint(0), ObjectKind::ParcallCount);
        std::thread::scope(|s| {
            for pe in 0..2u8 {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..rounds {
                        m.rmw_uint(pe, pf, ObjectKind::ParcallCount, |v| v + 1).unwrap();
                    }
                });
            }
        });
        assert_eq!(m.read_untraced(pf), Cell::Uint(2 * rounds));
        assert_eq!(m.merged_stats().total.total(), 4 * rounds as u64 + 1);
    }

    /// The relaxed backend's access mix on one arena, all at once: the owner
    /// on its unrecorded path, a remote PE on the recorded path (different
    /// words), and both incrementing one Parcall counter — the owner with no
    /// lock, the remote PE under the book lock.
    #[test]
    fn owner_path_remote_writes_and_rmw_share_an_arena() {
        let m = Memory::new(MemoryConfig::small(), 2, false);
        let rounds: u32 = if cfg!(miri) { 40 } else { 20_000 };
        let heap = m.area_base(0, Area::Heap);
        let (own, remote) = (heap, heap + 1);
        let count = m.area_base(0, Area::LocalStack);
        m.write(0, count, Cell::Uint(0), ObjectKind::ParcallCount);
        // Each writer cycles through cells only it stores, so a loaded cell
        // is "one that was stored" iff it belongs to its word's own cycle.
        let own_cycle = |i: u32| if i.is_multiple_of(2) { Cell::Int(-(i as i64)) } else { Cell::Str(i) };
        let remote_cycle = |i: u32| {
            if i.is_multiple_of(2) {
                Cell::Int(i as i64 + (1 << 40))
            } else {
                Cell::Fun(Atom(i), 9)
            }
        };
        let from_own = |c: Cell| match c {
            Cell::Int(v) => v <= 0 && v > -(rounds as i64) && v % 2 == 0,
            Cell::Str(i) => i < rounds && i % 2 == 1,
            _ => false,
        };
        let from_remote = |c: Cell| match c {
            Cell::Int(v) => (v - (1 << 40)) >= 0 && (v - (1 << 40)) < rounds as i64 && v % 2 == 0,
            Cell::Fun(Atom(i), 9) => i < rounds && i % 2 == 1,
            Cell::Empty => true, // before the remote PE's first store
            _ => false,
        };
        let barrier = std::sync::Barrier::new(2);
        let mut delta = RefDelta::default();
        std::thread::scope(|s| {
            let (m, barrier) = (&m, &barrier);
            s.spawn(move || {
                barrier.wait();
                for i in 0..rounds {
                    m.write(1, remote, remote_cycle(i), ObjectKind::HeapTerm);
                    assert!(
                        from_own(m.read(1, own, ObjectKind::HeapTerm)),
                        "remote load of the owner's word"
                    );
                    m.rmw_uint(1, count, ObjectKind::ParcallCount, |v| v + 1).unwrap();
                }
            });
            // The owner: its heap word and the counter both on the owner
            // path (arena 0's base is 0, so addresses double as offsets).
            m.owner_write(0, own - heap, own_cycle(0), Area::Heap);
            delta.count(ObjectKind::HeapTerm, true);
            barrier.wait();
            for i in 1..rounds {
                m.owner_write(0, own - heap, own_cycle(i), Area::Heap);
                delta.count(ObjectKind::HeapTerm, true);
                assert!(from_remote(m.owner_read(0, remote - heap)), "owner load of the remote PE's word");
                delta.count(ObjectKind::HeapTerm, false);
                m.owner_rmw_uint(0, count, Area::LocalStack, |v| v + 1).unwrap();
                delta.count(ObjectKind::ParcallCount, false);
                delta.count(ObjectKind::ParcallCount, true);
            }
        });
        // The remote PE's counts are in the book already; the owner's only
        // once its delta is flushed.
        assert_eq!(m.merged_stats().per_pe[0].total(), 1, "the counter's initialising write");
        m.flush_delta(0, &mut delta);
        assert_eq!(m.read_untraced(count), Cell::Uint(2 * rounds - 1), "an increment was lost");
        assert_eq!(m.read_untraced(own), own_cycle(rounds - 1));
        assert_eq!(m.read_untraced(remote), remote_cycle(rounds - 1));
        let (n, stats) = (rounds as u64, m.merged_stats());
        // Owner: n writes + (n-1) reads + (n-1) rmw pairs; remote: n writes +
        // n reads + n rmw pairs; plus the counter's initialising write.
        assert_eq!(stats.per_pe[0], crate::trace::RwCount { reads: 2 * (n - 1), writes: n + (n - 1) + 1 });
        assert_eq!(stats.per_pe[1], crate::trace::RwCount { reads: 2 * n, writes: 2 * n });
        assert_eq!(stats.total.total(), 8 * n - 2);
        assert_eq!(stats.object(ObjectKind::ParcallCount).total(), 2 * (2 * n - 1) + 1);
        assert_eq!(stats.locked_refs, stats.object(ObjectKind::ParcallCount).total());
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

    /// First, middle and last word of every area of every arena.
    fn probes(m: &Memory) -> Vec<u32> {
        let mut out = Vec::new();
        for w in 0..m.num_arenas() {
            for area in Area::ALL {
                let (base, end) = (m.area_base(w, area), m.map.area_end(w, area));
                out.extend([base, base + (end - base) / 2, end - 1]);
            }
        }
        out
    }

    #[test]
    fn fresh_and_reset_memories_read_empty_everywhere_probed() {
        let mut m = mem();
        for addr in probes(&m) {
            assert_eq!(m.read_untraced(addr), Cell::Empty, "fresh word {addr}");
        }
        // Dirty every probe through whichever path reaches it — the owner's
        // unrecorded one for even addresses, a remote PE's recorded one for
        // odd — then reset.
        for addr in probes(&m) {
            let (owner, area) = (m.map.owner(addr), m.map.area_of(addr));
            if addr % 2 == 0 {
                m.owner_write(owner, addr - m.area_base(owner, Area::Heap), Cell::Int(i64::MIN), area);
            } else {
                let kind = *ObjectKind::ALL.iter().find(|k| k.area() == area).unwrap();
                m.write(1 - owner as u8, addr, Cell::Fun(Atom(u32::MAX), 255), kind);
            }
            assert_ne!(m.read_untraced(addr), Cell::Empty);
        }
        m.reset(false);
        for addr in probes(&m) {
            assert_eq!(m.read_untraced(addr), Cell::Empty, "reset word {addr}");
        }
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
        m.with_arena(0, |a, book| {
            // The Control-stack word sits above the whole heap and local
            // stack in the arena; it must not drag their marks up with it.
            assert_eq!(book.marks[Area::Heap.index()], 2);
            assert_eq!(book.marks[Area::LocalStack.index()], 0);
            assert_eq!(book.marks[Area::ControlStack.index()], (c - a.base) as usize + 1);
            // Plant a word no write accounted for, past the heap's mark: a
            // reset that swept the heap up to the Control-stack write (one
            // arena-wide mark) would clear it.
            a.words[5].store(Cell::Int(99));
        });
        m.reset(true);
        assert_eq!(m.read_untraced(h + 1), Cell::Empty);
        assert_eq!(m.read_untraced(c), Cell::Empty);
        assert_eq!(m.read_untraced(h + 5), Cell::Int(99), "the heap was swept past its own mark");
        m.with_arena(0, |_, book| assert_eq!(book.marks, [0; Area::ALL.len()]));
        // No mark covers the plant, so the sweep at drop would park it with
        // the array and another test's fresh memory would read it.
        let plant = &mut m.arenas[0].words[5];
        (*plant.lo.get_mut(), *plant.hi.get_mut()) = (0, 0);
    }

    #[test]
    fn reset_honours_the_owner_marks_and_the_recorded_marks() {
        let mut m = Memory::new(MemoryConfig::small(), 2, false);
        let h = m.area_base(0, Area::Heap);
        let msg = m.area_base(0, Area::MessageBuffer);
        // The owner writes low on its own path; a remote PE's recorded
        // writes land above it in the same area (a binding) and in an area
        // the owner never wrote (a Message).
        m.owner_write(0, 2, Cell::Int(1), Area::Heap);
        m.write(1, h + 9, Cell::Ref(h + 9), ObjectKind::HeapTerm);
        m.write(1, msg + 4, Cell::Uint(7), ObjectKind::Message);
        // And the other way round: the owner above the recorded mark.
        m.write(1, h + 20, Cell::Int(2), ObjectKind::HeapTerm);
        m.owner_write(0, 40, Cell::Int(3), Area::Heap);
        let a = &m.arenas[0];
        assert_eq!(a.owner_marks[Area::Heap.index()].load(Ordering::Relaxed), 41);
        assert_eq!(a.owner_marks[Area::MessageBuffer.index()].load(Ordering::Relaxed), 0);
        m.with_arena(0, |a, book| {
            assert_eq!(book.marks[Area::Heap.index()], 21);
            assert_eq!(book.marks[Area::MessageBuffer.index()], (msg - a.base) as usize + 5);
        });
        // A lower owner write does not pull its mark back.
        m.owner_write(0, 1, Cell::Int(4), Area::Heap);
        assert_eq!(m.arenas[0].owner_marks[Area::Heap.index()].load(Ordering::Relaxed), 41);
        m.reset(false);
        for addr in [h + 1, h + 2, h + 9, h + 20, h + 40, msg + 4] {
            assert_eq!(m.read_untraced(addr), Cell::Empty, "word {addr} survived the reset");
        }
        let a = &mut m.arenas[0];
        assert!(a.owner_marks.iter_mut().all(|mark| *mark.get_mut() == 0));
        assert_eq!(a.book.get_mut().marks, [0; Area::ALL.len()]);
    }

    /// `MemoryConfig::small()` with a Stack-Set length no other test builds,
    /// so what this test parks only this test can take.
    fn own_size(extra_heap_words: u32) -> MemoryConfig {
        MemoryConfig { heap_words: (1 << 14) + extra_heap_words, ..MemoryConfig::small() }
    }

    fn parked_of(config: MemoryConfig) -> usize {
        parked().iter().filter(|words| words.len() == config.stack_set_words() as usize).count()
    }

    fn word_arrays(m: &Memory) -> Vec<*const Word> {
        let mut arrays: Vec<_> = m.arenas.iter().map(|a| a.words.as_ptr()).collect();
        arrays.sort_unstable();
        arrays
    }

    #[test]
    fn a_dropped_memory_sweeps_its_words_and_the_next_of_that_size_reuses_them() {
        let config = own_size(1);
        let m = Memory::new(config, 2, true);
        assert!(m.is_pristine());
        let arrays = word_arrays(&m);
        // An `Int` through each path, so both halves of a word are dirty.
        let msg = m.area_base(1, Area::MessageBuffer);
        m.write(0, msg + 3, Cell::Int(i64::MIN), ObjectKind::Message);
        m.owner_write(0, 17, Cell::Int(-1), Area::Heap);
        assert!(!m.is_pristine());
        drop(m);
        assert_eq!(parked_of(config), 2);
        // Another shape of the same Stack-Set size: length is the only key.
        let next = Memory::new(config, 1, false);
        assert_eq!(parked_of(config), 1);
        assert!(arrays.contains(&next.arenas[0].words.as_ptr()), "the array came from the allocator");
        assert!(next.is_pristine());
        let again = Memory::new(config, 2, false);
        assert_eq!(parked_of(config), 0);
        assert_eq!(word_arrays(&again).iter().filter(|a| arrays.contains(a)).count(), 1);
        assert!(again.is_pristine());
    }

    #[test]
    fn the_parked_list_never_exceeds_its_bound() {
        let config = own_size(2);
        // (Miri scans every parked array word by word: two past the bound do.)
        let count = if cfg!(miri) { MAX_PARKED + 2 } else { 40 };
        let memories: Vec<Memory> = (0..count).map(|_| Memory::new(config, 1, false)).collect();
        for m in memories {
            drop(m);
            assert!(parked().len() <= MAX_PARKED);
        }
        // Other tests park and take concurrently, so how many of the sixteen
        // are this test's is not fixed — but it cannot be more.
        assert!(parked_of(config) <= MAX_PARKED);
        // Do not leave the slots pinned on a size nothing else builds.
        parked().retain(|words| words.len() != config.stack_set_words() as usize);
    }

    #[test]
    #[should_panic(expected = "a swept arena still holds a written word")]
    fn parking_a_word_no_mark_covers_is_caught() {
        // (The array is not parked: the unwinding frees it.)
        let m = Memory::new(MemoryConfig::small(), 1, false);
        m.arenas[0].words[5].store(Cell::Uint(1));
    }

    #[test]
    fn a_recycled_memory_of_another_shape_still_gives_its_words_to_the_build() {
        use crate::engine::{Engine, EngineConfig};
        let config = own_size(3);
        let mut session = crate::session::Session::new("p.").unwrap();
        let compiled = session.compile("p", true).unwrap();
        // What a pool slot does when a request changes the worker count.
        let one = Memory::new(config, 1, false);
        let array = one.arenas[0].words.as_ptr();
        let engine_config = EngineConfig { memory: config, num_workers: 2, ..EngineConfig::default() };
        let (engine, reused) = Engine::with_recycled_memory(&compiled, engine_config, one);
        assert!(!reused, "the memory itself has the wrong shape");
        let arrays = word_arrays(&engine.core.mem);
        assert_eq!(arrays.len(), 2);
        assert!(arrays.contains(&array), "both arrays are new: the old one was still alive at the build");
        assert_eq!(parked_of(config), 0);
    }

    /// The merge places by sequence number; a sort by it is the oracle.
    fn assert_trace_is_placed_like_a_sort(m: &mut Memory) {
        let mut sorted: Vec<SeqRef> = Vec::new();
        for arena in &mut m.arenas {
            sorted.extend(arena.book.get_mut().trace.as_ref().expect("tracing"));
        }
        sorted.sort_unstable_by_key(|s| s.seq);
        let n = *m.seq.get_mut() as usize;
        assert_eq!(sorted.len(), n, "every claimed sequence number has its record");
        assert!(sorted.iter().enumerate().all(|(i, s)| s.seq == i as u64), "sequence numbers are dense");
        let placed = m.take_trace().unwrap();
        assert_eq!(placed, sorted.iter().map(|s| s.r).collect::<Vec<_>>());
    }

    #[test]
    fn take_trace_places_every_record_of_a_serial_and_of_a_threaded_run() {
        let mut serial = Memory::new(MemoryConfig::small(), 4, true);
        serial.set_serial(true);
        let mut threaded = Memory::new(MemoryConfig::small(), 4, true);
        let rounds: u32 = if cfg!(miri) { 20 } else { 2000 };
        // Each PE writes its own heap, reads its neighbour's and bumps a
        // counter in arena 0, so every buffer interleaves with every other.
        let count = serial.area_base(0, Area::LocalStack);
        let pe_loop = |m: &Memory, pe: u8| {
            let own = m.area_base(pe as usize, Area::Heap);
            let neighbour = m.area_base((pe as usize + 1) % 4, Area::Heap);
            for i in 0..rounds {
                m.write(pe, own + i % 64, Cell::Uint(i), ObjectKind::HeapTerm);
                m.read(pe, neighbour + i % 64, ObjectKind::HeapTerm);
                m.rmw_uint(pe, count, ObjectKind::ParcallCount, |v| v + 1).unwrap();
            }
        };
        for m in [&serial, &threaded] {
            m.write(0, count, Cell::Uint(0), ObjectKind::ParcallCount);
        }
        for pe in 0..4 {
            pe_loop(&serial, pe);
        }
        std::thread::scope(|s| {
            for pe in 0..4 {
                let (m, pe_loop) = (&threaded, &pe_loop);
                s.spawn(move || pe_loop(m, pe));
            }
        });
        for m in [&mut serial, &mut threaded] {
            assert_eq!(*m.seq.get_mut(), 1 + 4 * 4 * rounds as u64);
            assert_trace_is_placed_like_a_sort(m);
        }
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
        // The owner path is the same in locked and serial mode; tracing is
        // what turns it off.
        for serial in [false, true] {
            let slow = Memory::new(MemoryConfig::small(), 1, false);
            let mut fast = Memory::new(MemoryConfig::small(), 1, false);
            fast.set_serial(serial);
            assert!(fast.fast());
            assert!(!mem().fast(), "a tracing memory must not advertise the owner path");
            // Same access pattern through both paths (arena 0's base is 0,
            // so global addresses double as offsets).
            let h = slow.area_base(0, Area::Heap);
            let t = slow.area_base(0, Area::Trail);
            slow.write(0, h, Cell::Int(1), ObjectKind::HeapTerm);
            assert_eq!(slow.read(0, h, ObjectKind::HeapTerm), Cell::Int(1));
            slow.write(0, t, Cell::Uint(7), ObjectKind::TrailEntry);
            let mut delta = RefDelta::default();
            fast.owner_write(0, h, Cell::Int(1), Area::Heap);
            delta.count(ObjectKind::HeapTerm, true);
            assert_eq!(fast.owner_read(0, h), Cell::Int(1));
            delta.count(ObjectKind::HeapTerm, false);
            fast.owner_write(0, t, Cell::Uint(7), Area::Trail);
            delta.count(ObjectKind::TrailEntry, true);
            // Before the flush nothing is visible; after it the aggregates
            // match.
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
            assert_eq!(fast.owner_read(0, h), Cell::Empty);
            assert_eq!(fast.owner_read(0, t), Cell::Empty);
        }
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

    // -----------------------------------------------------------------
    // The word protocol, exhaustively interleaved
    // -----------------------------------------------------------------
    //
    // A model, not the atomics themselves (see `crate::model`, which also
    // holds the Parcall-counter and completion-commit models built on this
    // one): the halves are plain `u64`s, and each step below is one atomic
    // operation of `Word::store` / `Word::load` in the order the real code
    // issues it (through the real `encode` / `decode`).

    fn model_store_hi<const WHICH: usize>(w: &mut ModelWord) -> bool {
        w.hi = encode(STORED[WHICH]).1;
        true
    }
    fn model_store_lo<const WHICH: usize>(w: &mut ModelWord) -> bool {
        w.lo = encode(STORED[WHICH]).0;
        true
    }

    /// What the writer of the first model stores, in order.
    const STORED: [Cell; 3] = [Cell::Int(-5), Cell::Ref(17), Cell::Int(i64::MAX)];

    #[test]
    fn every_interleaving_of_stores_and_a_load_yields_a_stored_cell() {
        // `Word::store` skips `hi` for a non-`Int`, hence no `hi` step for
        // the `Ref`.
        let writer: &[ModelStep<ModelWord>] = &[
            model_store_hi::<0>,
            model_store_lo::<0>,
            model_store_lo::<1>,
            model_store_hi::<2>,
            model_store_lo::<2>,
        ];
        let loader: &[ModelStep<ModelWord>] = &[
            |w| {
                w.seen_lo = w.lo;
                true
            },
            |w| {
                // `decode` asks for `hi` only for an `Int`; reading it here
                // regardless is the later of the two possible moments.
                let hi = w.hi;
                w.loaded = Some(decode(w.seen_lo, || hi));
                true
            },
        ];
        let mut seen = Vec::new();
        let schedules = interleave(&ModelWord::default(), &[writer, loader], &mut [0, 0], &mut |w| {
            let cell = w.loaded.unwrap();
            assert!(cell == Cell::Empty || STORED.contains(&cell), "loaded {cell:?}, which nobody stored");
            if !seen.contains(&cell) {
                seen.push(cell);
            }
        });
        assert_eq!(schedules, 21, "C(7, 2) schedules of 5 + 2 steps");
        assert_eq!(seen.len(), 4, "every stored cell and the initial Empty is reachable: {seen:?}");
        // The order matters: a writer that published the tag first would let
        // a load pair the new tag with the previous value.
        let tag_first: &[ModelStep<ModelWord>] = &[model_store_lo::<0>, model_store_hi::<0>];
        let mut torn = false;
        interleave(&ModelWord::default(), &[tag_first, loader], &mut [0, 0], &mut |w| {
            torn |= w.loaded == Some(Cell::Int(0));
        });
        assert!(torn, "the model cannot tell a correct store order from a wrong one");
    }
}
