//! The data memory: one Stack-Set arena per PE.
//!
//! The memory holds words and nothing about who touched them.  A reference is
//! made by the PE that issues it, through `Step::mem_read` / `mem_write` /
//! `mem_rmw` in [`crate::engine`] (and `mem_read_run` / `mem_write_run` for
//! the consecutive words of a frame): the PE counts the reference in its own
//! `[reads, writes]` table, appends a [`MemRef`](crate::trace::MemRef) to its
//! own buffer when tracing, and moves the word here.  A `Step` holds its PE's
//! own [`StackSetArena`], and tries it first: the offset `addr - base` is
//! taken with wrapping arithmetic and looked up with a checked slice access,
//! so one compare says both that the address is the PE's own and that it is
//! in bounds.  Most references stop there — the paper's locality, at the
//! price of an L1 hit; only a miss asks the [`AddressMap`] which other PE's
//! arena holds the word.  A run does the same with one checked *range*, and a
//! run no single arena holds is made word by word.
//!
//! Sharding the storage per PE mirrors the paper's architecture: each PE's
//! Stack Set is physically its own allocation.  Global word addresses remain
//! stable — the [`AddressMap`] translates them to an (arena, offset) pair —
//! and every traced reference claims one value of the memory's global
//! sequence counter, so the PEs' buffers merge back into the single
//! interleaved trace the cache simulator consumes, byte-for-byte
//! ([`Engine::take_trace`](crate::Engine::take_trace)).
//!
//! # Concurrency
//!
//! This is the paper's shared memory: any PE may load or store any word, and
//! no reference takes a lock.  The memory is `Sync` because every field is.
//!
//! **A word is one atomic.**  An arena word is a single lock-free `AtomicU64`
//! (`Word`) holding a whole tagged cell, so loading or storing a cell is sound
//! from any thread, for any program — including one whose parallel goals are
//! *not* independent and race on a variable cell — and a load returns exactly
//! a cell some writer stored: one atomic cannot tear.  A store is a Release
//! store and a load an Acquire load, and that pair publishes what a cell
//! points at: a PE that loads a `Str` another PE stored sees the functor and
//! arguments that PE built first.  No `&mut` to the words exists while a query
//! runs; only [`Memory::reset`] and the drop (`&mut self`) form one.
//!
//! **Counters are atomic by the word.**  The Parcall Frame words several PEs
//! update (goals to schedule, goals completed, status) hold a [`Cell::Uint`],
//! so a read-modify-write of one is a single `AcqRel` compare-exchange
//! (`Word::update_uint`), whoever issues it: the parent's update and a
//! thief's cannot lose each other.  The only plain stores to those words are
//! the ones that initialise a frame, before any of its Goal Frames is on a
//! board.  The compare-exchange is also the happens-before edge of the
//! counter-last completion commit: a child's bindings are ordered before its
//! increment (Release), and a parent that loads the final count (Acquire)
//! sees every binding the children stored before incrementing it.
//!
//! **Reset marks have one writer, or take the maximum.**  A store advances
//! the reset mark of its area so that a sweep clears what was written and no
//! more.  The owning PE's stores move marks only its thread writes (a load
//! and a conditional store); stores by *other* PEs — a thief's slot words, a
//! Message, a binding — move a second set with `fetch_max`, because two of
//! them may advance one mark at once and the lower must not win: a lost mark
//! is an unswept word in a parked array, another tenant's data.  Nothing
//! reads a mark until `&mut self`.
//!
//! **The sequence counter is one `fetch_add`** per traced reference and is
//! not touched by an untraced run.  Under the strict (interleaved) backend one
//! thread issues every reference, so sequence order is exactly reference
//! order; under the relaxed backend each PE's numbers rise in its program
//! order and the total order is the one the race on the counter produced.
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
//! Answer extraction and debugging use [`Memory::read_untraced`], which
//! counts nothing.  The memory holds the Stack Sets' words, their reset marks
//! and the sequence counter, and no run state: whether a run is traced and
//! where its answer stands are the engine's.

use crate::cell::Cell;
use crate::error::{EngineError, EngineResult};
use crate::layout::{AddressMap, Area, MemoryConfig};
use crate::parked::Parked;
use pwam_front::Atom;
use pwam_front::{INT_MAX, INT_MIN};
use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

// Tags of the low byte of a `Word` that does not hold an `Int`.  They are
// even: a word with its low bit set is an `Int` (see `encode`).  `Empty` is
// all-zero so a zero-filled allocation is a pristine arena.
const TAG_EMPTY: u8 = 0;
const TAG_REF: u8 = 2;
const TAG_STR: u8 = 4;
const TAG_LIS: u8 = 6;
const TAG_CON: u8 = 8;
const TAG_FUN: u8 = 10;
const TAG_CODE: u8 = 12;
const TAG_UINT: u8 = 14;

#[inline(always)]
const fn pack(tag: u8, arity: u8, payload: u32) -> u64 {
    tag as u64 | (arity as u64) << 8 | (payload as u64) << 32
}

/// A cell's stored form, one 64-bit word.  An `Int` is a 63-bit immediate
/// with the low bit as its tag, `v << 1 | 1`; every other cell is `tag |
/// arity << 8 | payload << 32` with an even tag.  So one test of the low bit
/// tells an `Int` from the rest.
#[inline(always)]
pub(crate) fn encode(cell: Cell) -> u64 {
    match cell {
        Cell::Empty => pack(TAG_EMPTY, 0, 0),
        Cell::Ref(a) => pack(TAG_REF, 0, a),
        Cell::Str(a) => pack(TAG_STR, 0, a),
        Cell::Lis(a) => pack(TAG_LIS, 0, a),
        Cell::Con(Atom(a)) => pack(TAG_CON, 0, a),
        Cell::Int(v) => {
            debug_assert!((INT_MIN..=INT_MAX).contains(&v), "integer {v} does not fit a word");
            (v << 1) as u64 | 1
        }
        Cell::Fun(Atom(a), n) => pack(TAG_FUN, n, a),
        Cell::Code(a) => pack(TAG_CODE, 0, a),
        Cell::Uint(v) => pack(TAG_UINT, 0, v),
    }
}

/// Rebuild a cell from its stored form.
#[inline(always)]
pub(crate) fn decode(word: u64) -> Cell {
    let payload = (word >> 32) as u32;
    match word as u8 {
        // An odd low byte is an `Int`; the arithmetic shift restores its sign.
        tag if tag & 1 == 1 => Cell::Int(word as i64 >> 1),
        TAG_REF => Cell::Ref(payload),
        TAG_STR => Cell::Str(payload),
        TAG_LIS => Cell::Lis(payload),
        TAG_CON => Cell::Con(Atom(payload)),
        TAG_FUN => Cell::Fun(Atom(payload), (word >> 8) as u8),
        TAG_CODE => Cell::Code(payload),
        TAG_UINT => Cell::Uint(payload),
        tag => {
            debug_assert_eq!(tag, TAG_EMPTY, "arena word with an unknown tag");
            Cell::Empty
        }
    }
}

/// One arena word: a tagged cell in one lock-free atomic.
///
/// `store` is a Release store and `load` an Acquire load; see the module's
/// Concurrency section for what that pair publishes.  On x86-64 both are a
/// plain `mov`, and `update_uint` is one `lock cmpxchg`.
#[derive(Debug)]
struct Word(AtomicU64);

// The paper counts references in words; one cell is one 8-byte word.
const _: () = assert!(std::mem::size_of::<Word>() == 8);

impl Word {
    #[inline(always)]
    fn load(&self) -> Cell {
        // Acquire pairs with the Release in `store`: having seen this cell,
        // loads of the words it points at see what its writer stored there.
        decode(self.0.load(Ordering::Acquire))
    }

    #[inline(always)]
    fn store(&self, cell: Cell) {
        self.0.store(encode(cell), Ordering::Release);
    }

    /// Replace the `Uint` this word holds by `f` of it and return the value
    /// replaced; a word holding anything else is left alone and returned as
    /// the error.  The update is one compare-exchange, atomic against every
    /// other update and store of the word whoever issues it.  The Release half
    /// orders everything the caller stored before (a child's bindings before
    /// its completion count); the Acquire half, like `load`'s, shows the
    /// caller what earlier updaters stored before theirs.
    #[inline(always)]
    fn update_uint(&self, mut f: impl FnMut(u32) -> u32) -> Result<u32, Cell> {
        self.0
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |word| {
                // An `Int`'s low byte is odd, so it never reads as this tag.
                (word as u8 == TAG_UINT).then(|| pack(TAG_UINT, 0, f((word >> 32) as u32)))
            })
            .map(|word| (word >> 32) as u32)
            .map_err(decode)
    }
}

/// Word arrays of dropped memories, every word swept back to zero, waiting
/// for the next [`Memory::new`] with a Stack Set of the same length.
///
/// Asking the allocator every time is what made a "cold" build cost its
/// capacity: glibc serves the first 13 MB array by `mmap` (lazy zero pages),
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
static PARKED: Parked<Box<[Word]>> = Parked::new(MAX_PARKED);

/// Two 8-PE memories' worth: an 8-PE engine and its 8-PE successor.
const MAX_PARKED: usize = 16;

/// Whether every word is zero: the post-allocation state.
fn all_zero(words: &[Word]) -> bool {
    words.iter().all(|w| w.0.load(Ordering::Relaxed) == 0)
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
    PARKED.park(words);
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
    if let Some(words) = PARKED.take(|words| words.len() == n) {
        return words;
    }
    // SAFETY: `layout` has non-zero size.  The all-zero bit pattern is a
    // valid `Word` (an `AtomicU64` holding 0), so the `n` zeroed elements
    // are initialised, and `Box<[Word]>` frees them with this same layout.
    unsafe {
        let p = alloc_zeroed(layout).cast::<Word>();
        if p.is_null() {
            handle_alloc_error(layout);
        }
        Box::from_raw(std::ptr::slice_from_raw_parts_mut(p, n))
    }
}

/// Per area (by [`Area::index`]), one past the highest arena offset written
/// there; [`Memory::reset`] only has to clear each area's used prefix, so
/// recycling a warm arena costs proportional to what the previous run used,
/// not the arena's capacity.  One mark for the whole arena would not do: the
/// areas are laid out back to back, so a single choice-point or trail write
/// would put the heap's and local stack's entire capacity below the mark.
type Marks = [AtomicUsize; Area::ALL.len()];

/// The storage of one PE's Stack Set: its words and their reset marks.
#[derive(Debug)]
pub(crate) struct StackSetArena {
    /// Global address of the arena's first word.
    base: u32,
    words: Box<[Word]>,
    /// Reset marks of the owning PE's stores.  Only the thread stepping that
    /// PE moves them (a load and a conditional store, never a shared
    /// read-modify-write).
    owner_marks: Marks,
    /// Reset marks of the other PEs' stores into this arena (a thief's slot
    /// words, a Message, a binding), which can land above anything the owner
    /// wrote, and the other way round.  Several threads may advance one at
    /// once, so they take the maximum.
    remote_marks: Marks,
}

impl StackSetArena {
    fn new(base: u32, words: u32) -> Self {
        StackSetArena {
            base,
            words: empty_words(words as usize),
            owner_marks: Default::default(),
            remote_marks: Default::default(),
        }
    }

    /// The word at global address `addr` with its offset, if this arena holds
    /// it.  An address below `base` wraps to an offset past any arena's
    /// length, so one subtraction and one compare answer "is it mine?" and "is
    /// it in bounds?" together.
    #[inline(always)]
    fn word(&self, addr: u32) -> Option<(usize, &Word)> {
        let offset = addr.wrapping_sub(self.base) as usize;
        Some((offset, self.words.get(offset)?))
    }

    /// The `n` words from global address `addr` up with the first one's
    /// offset, if this arena holds them all: [`StackSetArena::word`]'s test
    /// over a range.  A run that only starts here is `None`.
    #[inline(always)]
    fn run(&self, addr: u32, n: usize) -> Option<(usize, &[Word])> {
        let offset = addr.wrapping_sub(self.base) as usize;
        Some((offset, self.words.get(offset..offset.checked_add(n)?)?))
    }

    /// Whether this arena holds global address `addr`.
    #[inline(always)]
    pub(crate) fn holds(&self, addr: u32) -> bool {
        self.word(addr).is_some()
    }

    /// Load the word at `addr`; `None` if this arena does not hold it.
    #[inline(always)]
    pub(crate) fn load(&self, addr: u32) -> Option<Cell> {
        Some(self.word(addr)?.1.load())
    }

    /// Store `value` at `addr`, which lies in `area`, and advance the reset
    /// mark — the owner's if the store is `by_owner`, the remote PEs'
    /// otherwise.  `false`, with nothing stored, if this arena does not hold
    /// the word.
    #[inline(always)]
    pub(crate) fn store(&self, addr: u32, value: Cell, area: Area, by_owner: bool) -> bool {
        let Some((offset, word)) = self.word(addr) else { return false };
        word.store(value);
        self.mark_written(area, offset, by_owner);
        true
    }

    /// Atomically replace the `Uint` at `addr` (in `area`) by `f` of it,
    /// advance the reset mark and return the value replaced; `None`, with `f`
    /// not called, if this arena does not hold the word.  One
    /// compare-exchange (`Word::update_uint`), so concurrent updates of a
    /// counter word (Parcall Frame scheduling/completion counts and status
    /// under the relaxed backend) cannot lose each other.  `f` may run more
    /// than once when updates race.  A word that holds anything else is left
    /// alone and is an engine error.
    #[inline(always)]
    pub(crate) fn update_uint(
        &self,
        addr: u32,
        area: Area,
        by_owner: bool,
        f: impl FnMut(u32) -> u32,
    ) -> Option<EngineResult<u32>> {
        let (offset, word) = self.word(addr)?;
        Some(match word.update_uint(f) {
            Ok(old) => {
                self.mark_written(area, offset, by_owner);
                Ok(old)
            }
            Err(found) => Err(EngineError::Internal(format!("rmw on non-uint word at {addr}: {found:?}"))),
        })
    }

    /// Load the `out.len()` words from `addr` up, in ascending address order.
    /// `false`, with nothing loaded, if this arena does not hold them all.
    #[inline(always)]
    pub(crate) fn load_run(&self, addr: u32, out: &mut [Cell]) -> bool {
        let Some((_, words)) = self.run(addr, out.len()) else { return false };
        for (cell, word) in out.iter_mut().zip(words) {
            *cell = word.load();
        }
        true
    }

    /// Store `values` into the words of `area` from `addr` up, in ascending
    /// address order, and advance the reset mark past the last one — where
    /// the stores of the single words would have left it.  `false`, with
    /// nothing stored, if this arena does not hold them all.
    #[inline(always)]
    pub(crate) fn store_run(&self, addr: u32, values: &[Cell], area: Area, by_owner: bool) -> bool {
        let Some((offset, words)) = self.run(addr, values.len()) else { return false };
        for (word, &value) in words.iter().zip(values) {
            word.store(value);
        }
        if let Some(last) = values.len().checked_sub(1) {
            self.mark_written(area, offset + last, by_owner);
        }
        true
    }

    /// Advance `area`'s reset mark past a store to the word at `offset`.
    /// `Relaxed` throughout: nothing reads a mark until [`Memory::reset`] or
    /// the drop, whose `&mut self` is ordered after every PE thread's end.
    #[inline(always)]
    fn mark_written(&self, area: Area, offset: usize, by_owner: bool) {
        if by_owner {
            let mark = &self.owner_marks[area.index()];
            if offset >= mark.load(Ordering::Relaxed) {
                mark.store(offset + 1, Ordering::Relaxed);
            }
        } else {
            let mark = &self.remote_marks[area.index()];
            // The load keeps a store below the mark — most of them — off the
            // read-modify-write; `fetch_max` decides among racing advances.
            if offset >= mark.load(Ordering::Relaxed) {
                mark.fetch_max(offset + 1, Ordering::Relaxed);
            }
        }
    }
}

/// The word-addressed data memory, sharded into one arena per PE.
///
/// The public address space is unchanged from the flat layout: word `addr`
/// belongs to arena `map.owner(addr)` at offset `addr - arena.base`.
#[derive(Debug)]
pub struct Memory {
    arenas: Vec<StackSetArena>,
    pub(crate) map: AddressMap,
    /// Next global sequence number (traced references issued so far).
    seq: AtomicU64,
}

// PE threads share the memory by reference.
const _: () = {
    const fn shared_between_threads<T: Sync + Send>() {}
    shared_between_threads::<Memory>()
};

impl Memory {
    /// Allocate the data memory for `num_workers` Stack Sets.
    pub fn new(config: MemoryConfig, num_workers: usize) -> Self {
        let map = AddressMap::new(config, num_workers);
        let set_words = config.stack_set_words();
        let arenas = (0..num_workers).map(|w| StackSetArena::new(w as u32 * set_words, set_words)).collect();
        Memory { arenas, map, seq: AtomicU64::new(0) }
    }

    /// Total number of words in the memory: every Stack Set arena.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.arenas.iter().map(|a| a.words.len()).sum()
    }

    /// Number of Stack Set arenas (one per PE).
    pub fn num_arenas(&self) -> usize {
        self.arenas.len()
    }

    /// Claim the sequence numbers of `n` consecutive traced references (one,
    /// or a run) and return the first: their indices in the merged trace.
    /// Under the strict backend one thread issues every reference, so a run's
    /// numbers are those its references would have claimed one by one.  The
    /// counter only orders trace records; an untraced run never touches it,
    /// which keeps its hot path free of a shared cache line every thread of
    /// the relaxed backend would otherwise fight over.
    #[inline(always)]
    pub(crate) fn next_seqs(&self, n: u32) -> u64 {
        self.seq.fetch_add(n as u64, Ordering::Relaxed)
    }

    /// Sequence numbers claimed since the build or the last reset.
    pub(crate) fn seqs_claimed(&mut self) -> usize {
        *self.seq.get_mut() as usize
    }

    /// PE `pe`'s own Stack Set: what its `Step` holds, so that a reference
    /// that stays at home — nearly all of them — never comes through here.
    pub(crate) fn arena(&self, pe: usize) -> &StackSetArena {
        &self.arenas[pe]
    }

    /// The arena that holds `addr`, by the map's division: where a reference
    /// into another PE's Stack Set starts.
    #[inline(always)]
    fn holder(&self, addr: u32) -> &StackSetArena {
        &self.arenas[self.map.owner(addr)]
    }

    /// Load the word at `addr`, whichever arena holds it.
    #[inline(always)]
    pub(crate) fn load(&self, addr: u32) -> Cell {
        self.holder(addr).load(addr).expect("the map's owner holds the address")
    }

    /// Store `value` at `addr`, which lies in `area`, on behalf of a PE whose
    /// own Stack Set does not hold it, and advance the reset mark.
    #[inline(always)]
    pub(crate) fn store_remote(&self, addr: u32, value: Cell, area: Area) {
        let stored = self.holder(addr).store(addr, value, area, false);
        assert!(stored, "the map's owner holds the address");
    }

    /// [`StackSetArena::update_uint`] on behalf of a PE whose own Stack Set
    /// does not hold `addr`.
    #[inline(always)]
    pub(crate) fn update_uint_remote(
        &self,
        addr: u32,
        area: Area,
        f: impl FnMut(u32) -> u32,
    ) -> EngineResult<u32> {
        self.holder(addr).update_uint(addr, area, false, f).expect("the map's owner holds the address")
    }

    /// Load the `out.len()` words from `addr` up.  `false`, with nothing
    /// loaded, unless one arena holds them all.
    #[inline(always)]
    pub(crate) fn load_run(&self, addr: u32, out: &mut [Cell]) -> bool {
        self.arenas.get(self.map.owner(addr)).is_some_and(|a| a.load_run(addr, out))
    }

    /// Store `values` into the words of `area` from `addr` up on behalf of a
    /// PE whose own Stack Set does not hold them all, advancing the reset
    /// mark past the last.  `false`, with nothing stored, unless one arena
    /// holds them all.
    #[inline(always)]
    pub(crate) fn store_run_remote(&self, addr: u32, values: &[Cell], area: Area) -> bool {
        self.arenas.get(self.map.owner(addr)).is_some_and(|a| a.store_run(addr, values, area, false))
    }

    /// Return the memory to its pristine post-allocation state without
    /// freeing the arenas: every word written since allocation (or the last
    /// reset) is cleared and the global sequence counter restarts.  The
    /// warm-engine path of the serving layer goes through here.
    pub fn reset(&mut self) {
        self.sweep_words();
        *self.seq.get_mut() = 0;
    }

    /// Clear every arena word written since allocation (or the last sweep)
    /// and take the reset marks back to zero.  Each area is swept only up to
    /// its own mark, so the cost is what the run touched.
    fn sweep_words(&mut self) {
        for arena in &mut self.arenas {
            for area in Area::ALL {
                let start = self.map.config.area_offset(area) as usize;
                let i = area.index();
                let mark = std::mem::take(arena.owner_marks[i].get_mut())
                    .max(std::mem::take(arena.remote_marks[i].get_mut()));
                if mark > start {
                    for word in &mut arena.words[start..mark] {
                        *word.0.get_mut() = 0;
                    }
                }
            }
        }
    }

    /// Whether every arena word is in its post-allocation state, zero —
    /// what [`Memory::new`] hands out and what a sweep must restore.
    /// Scans every word of every arena; for tests of the sweep.
    #[doc(hidden)]
    pub fn is_pristine(&self) -> bool {
        self.arenas.iter().all(|arena| all_zero(&arena.words))
    }

    /// Read one word without making a reference (answer extraction,
    /// debugging, scheduler shadow checks).
    #[inline]
    pub(crate) fn read_untraced(&self, addr: u32) -> Cell {
        self.load(addr)
    }

    /// Check that `addr` (the next free word) still lies inside `area` of
    /// `worker`; produce an out-of-memory error otherwise.
    pub(crate) fn check_top(&self, worker: usize, area: Area, addr: u32) -> EngineResult<()> {
        if addr >= self.map.area_end(worker, area) {
            Err(EngineError::OutOfMemory { worker, area })
        } else {
            Ok(())
        }
    }
}

/// A dropped memory's word arrays are swept here — where the layout that
/// gives the area offsets is still known — and parked, so a parked array is
/// always all-`Cell::Empty` and its length is all a later build must match.
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
    use crate::engine::{Engine, EngineConfig, Step};
    use crate::layout::{Locality, ObjectKind};
    use crate::trace::{MemRef, RwCount};
    use pwam_compiler::CompiledProgram;
    use std::sync::OnceLock;

    /// An engine over a one-fact program: a reference is made by a PE, so the
    /// tests below make theirs through [`Step`]s over its workers.
    fn machine(memory: MemoryConfig, num_workers: usize, collect_trace: bool) -> Engine<'static> {
        static PROGRAM: OnceLock<CompiledProgram> = OnceLock::new();
        let program =
            PROGRAM.get_or_init(|| crate::session::Session::new("p.").unwrap().compile("p", true).unwrap());
        Engine::new(program, EngineConfig { memory, num_workers, collect_trace, ..EngineConfig::default() })
    }

    /// Two traced PEs over small Stack Sets.
    fn traced() -> Engine<'static> {
        machine(MemoryConfig::small(), 2, true)
    }

    fn pe<'a, 'p>(engine: &'a mut Engine<'p>, w: usize) -> Step<'a, 'p> {
        Step::new(&engine.core, &mut engine.workers[w])
    }

    /// The same engine built again on its own memory, reset in place: the
    /// warm path.
    fn rebuilt(engine: Engine<'_>) -> Engine<'_> {
        let (program, config) = (engine.core.program, engine.core.config.clone());
        let (engine, reused) = Engine::with_recycled_memory(program, config, engine.into_memory());
        assert!(reused, "the memory has the configuration's shape");
        engine
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
            Cell::Int(INT_MIN),
            Cell::Int(-1),
            Cell::Int(0),
            Cell::Int(1),
            Cell::Int(INT_MAX),
            Cell::Fun(Atom(u32::MAX), 255),
            Cell::Fun(Atom(7), 0),
            Cell::Code(u32::MAX),
            Cell::Uint(u32::MAX),
        ]
    }

    #[test]
    fn words_round_trip_every_cell_variant() {
        assert_eq!(encode(Cell::Empty), 0, "a zeroed word must read Empty");
        let word = &empty_words(1)[0];
        assert_eq!(word.load(), Cell::Empty);
        for cell in every_variant() {
            assert_eq!(decode(encode(cell)), cell);
            assert_eq!(
                encode(cell) & 1 == 1,
                matches!(cell, Cell::Int(_)),
                "{cell:?}: the low bit is the Int tag"
            );
            word.store(cell);
            assert_eq!(word.load(), cell);
        }
    }

    #[test]
    fn read_write_round_trip() {
        let mut e = traced();
        let base = e.core.mem.map.area_base(0, Area::Heap);
        let mut pe0 = pe(&mut e, 0);
        pe0.mem_write(base, Cell::Int(7), ObjectKind::HeapTerm);
        assert_eq!(pe0.mem_read(base, ObjectKind::HeapTerm), Cell::Int(7));
        let stats = e.stats().area_stats;
        assert_eq!(stats.total.reads, 1);
        assert_eq!(stats.total.writes, 1);
    }

    #[test]
    fn trace_records_every_reference_in_order() {
        let mut e = traced();
        let h = e.core.mem.map.area_base(1, Area::Heap);
        let g = e.core.mem.map.area_base(1, Area::GoalStack);
        pe(&mut e, 1).mem_write(h, Cell::Int(1), ObjectKind::HeapTerm);
        pe(&mut e, 1).mem_write(g, Cell::Uint(2), ObjectKind::GoalFrame);
        pe(&mut e, 0).mem_read(h, ObjectKind::HeapTerm);
        let t = e.take_trace().unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].pe, 1);
        assert!(t[0].write);
        assert_eq!(t[1].area(), Area::GoalStack);
        assert!(t[1].locked());
        assert_eq!(t[2].pe, 0);
        assert!(!t[2].write);
        assert_eq!(t[2].locality(), Locality::Global);
    }

    #[test]
    fn merged_trace_interleaves_arenas_in_issue_order() {
        let mut e = traced();
        let h0 = e.core.mem.map.area_base(0, Area::Heap);
        let h1 = e.core.mem.map.area_base(1, Area::Heap);
        // Alternate writes between the two PEs; the merged trace must come
        // back in exactly this order even though the records were buffered
        // by two different workers.
        for i in 0..4 {
            pe(&mut e, 0).mem_write(h0 + i, Cell::Int(i as i64), ObjectKind::HeapTerm);
            pe(&mut e, 1).mem_write(h1 + i, Cell::Int(i as i64), ObjectKind::HeapTerm);
        }
        assert!(e.workers.iter().all(|wk| wk.trace.as_ref().unwrap().len() == 4));
        let t = e.take_trace().unwrap();
        let addrs: Vec<u32> = t.iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![h0, h1, h0 + 1, h1 + 1, h0 + 2, h1 + 2, h0 + 3, h1 + 3]);
    }

    #[test]
    fn cross_pe_accesses_land_in_the_owning_arena() {
        let mut e = traced();
        let h1 = e.core.mem.map.area_base(1, Area::Heap);
        // PE 0 writes into PE 1's heap: the word and its reset mark land in
        // arena 1 (the owner), the count with PE 0 (the issuer).
        pe(&mut e, 0).mem_write(h1 + 2, Cell::Int(9), ObjectKind::HeapTerm);
        assert_eq!(e.core.mem.arenas[1].words[2].load(), Cell::Int(9));
        let heap = Area::Heap.index();
        assert_eq!(e.core.mem.arenas[1].remote_marks[heap].load(Ordering::Relaxed), 3);
        assert_eq!(e.core.mem.arenas[1].owner_marks[heap].load(Ordering::Relaxed), 0);
        assert!(e.core.mem.arenas[0].remote_marks.iter().all(|mark| mark.load(Ordering::Relaxed) == 0));
        let stats = e.stats().area_stats;
        assert_eq!(stats.total.writes, 1);
        assert_eq!(stats.per_pe[0].writes, 1);
        assert_eq!(stats.per_pe[1].total(), 0);
    }

    #[test]
    fn untraced_reads_do_not_count() {
        let mut e = traced();
        let base = e.core.mem.map.area_base(0, Area::Heap);
        pe(&mut e, 0).mem_write(base, Cell::Int(3), ObjectKind::HeapTerm);
        assert_eq!(e.core.mem.read_untraced(base), Cell::Int(3));
        assert_eq!(e.stats().area_stats.total.total(), 1, "only the traced write counts");
        assert_eq!(e.take_trace().unwrap().len(), 1);
    }

    #[test]
    fn rmw_records_a_read_then_a_write() {
        let mut e = traced();
        let pf = e.core.mem.map.area_base(0, Area::LocalStack);
        pe(&mut e, 0).mem_write(pf, Cell::Uint(3), ObjectKind::ParcallCount);
        let old = pe(&mut e, 1).mem_rmw(pf, ObjectKind::ParcallCount, |v| v + 1).unwrap();
        assert_eq!(old, 3);
        assert_eq!(e.core.mem.read_untraced(pf), Cell::Uint(4));
        // Counter-word corruption is an engine error, not a panic, whoever
        // issues the update, and leaves the word alone.
        pe(&mut e, 0).mem_write(pf, Cell::Int(-1), ObjectKind::ParcallCount);
        assert!(pe(&mut e, 0).mem_rmw(pf, ObjectKind::ParcallCount, |v| v + 1).is_err());
        assert!(pe(&mut e, 1).mem_rmw(pf, ObjectKind::ParcallCount, |v| v + 1).is_err());
        assert_eq!(e.core.mem.read_untraced(pf), Cell::Int(-1));
        let t = e.take_trace().unwrap();
        assert_eq!(t.len(), 6, "a failed update made its read reference only");
        assert!(!t[1].write, "rmw records the read first");
        assert!(t[2].write, "then the write");
        assert_eq!(t[1].pe, 1);
        assert_eq!(t[2].addr, pf);
    }

    #[test]
    fn concurrent_rmw_never_loses_increments() {
        let mut e = machine(MemoryConfig::small(), 2, false);
        let pf = e.core.mem.map.area_base(0, Area::LocalStack);
        let rounds = if cfg!(miri) { 50 } else { 1000 };
        pe(&mut e, 0).mem_write(pf, Cell::Uint(0), ObjectKind::ParcallCount);
        let core = &e.core;
        std::thread::scope(|s| {
            for wk in &mut e.workers {
                s.spawn(move || {
                    let mut pe = Step::new(core, wk);
                    for _ in 0..rounds {
                        pe.mem_rmw(pf, ObjectKind::ParcallCount, |v| v + 1).unwrap();
                    }
                });
            }
        });
        assert_eq!(e.core.mem.read_untraced(pf), Cell::Uint(2 * rounds));
        assert_eq!(e.stats().area_stats.total.total(), 4 * rounds as u64 + 1);
    }

    /// The relaxed backend's access mix on one arena, all at once: the owner
    /// and a remote PE storing and loading each other's words (different
    /// words), and both incrementing one Parcall counter.
    #[test]
    fn owner_and_remote_writes_and_rmw_share_an_arena() {
        let mut e = machine(MemoryConfig::small(), 2, false);
        let rounds: u32 = if cfg!(miri) { 40 } else { 20_000 };
        let heap = e.core.mem.map.area_base(0, Area::Heap);
        let (own, remote) = (heap, heap + 1);
        let count = e.core.mem.map.area_base(0, Area::LocalStack);
        pe(&mut e, 0).mem_write(count, Cell::Uint(0), ObjectKind::ParcallCount);
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
        let core = &e.core;
        let [owner_wk, remote_wk] = &mut e.workers[..] else { unreachable!() };
        std::thread::scope(|s| {
            let barrier = &barrier;
            s.spawn(move || {
                let mut pe1 = Step::new(core, remote_wk);
                barrier.wait();
                for i in 0..rounds {
                    pe1.mem_write(remote, remote_cycle(i), ObjectKind::HeapTerm);
                    assert!(
                        from_own(pe1.mem_read(own, ObjectKind::HeapTerm)),
                        "remote load of the owner's word"
                    );
                    pe1.mem_rmw(count, ObjectKind::ParcallCount, |v| v + 1).unwrap();
                }
            });
            let mut pe0 = Step::new(core, owner_wk);
            pe0.mem_write(own, own_cycle(0), ObjectKind::HeapTerm);
            barrier.wait();
            for i in 1..rounds {
                pe0.mem_write(own, own_cycle(i), ObjectKind::HeapTerm);
                assert!(
                    from_remote(pe0.mem_read(remote, ObjectKind::HeapTerm)),
                    "owner load of the remote PE's word"
                );
                pe0.mem_rmw(count, ObjectKind::ParcallCount, |v| v + 1).unwrap();
            }
        });
        let mem = &e.core.mem;
        assert_eq!(mem.read_untraced(count), Cell::Uint(2 * rounds - 1), "an increment was lost");
        assert_eq!(mem.read_untraced(own), own_cycle(rounds - 1));
        assert_eq!(mem.read_untraced(remote), remote_cycle(rounds - 1));
        let (n, stats) = (rounds as u64, e.stats().area_stats);
        // Owner: n writes + (n-1) reads + (n-1) rmw pairs; remote: n writes +
        // n reads + n rmw pairs; plus the counter's initialising write.
        assert_eq!(stats.per_pe[0], RwCount { reads: 2 * (n - 1), writes: n + (n - 1) + 1 });
        assert_eq!(stats.per_pe[1], RwCount { reads: 2 * n, writes: 2 * n });
        assert_eq!(stats.total.total(), 8 * n - 2);
        assert_eq!(stats.object(ObjectKind::ParcallCount).total(), 2 * (2 * n - 1) + 1);
        assert_eq!(stats.locked_refs, stats.object(ObjectKind::ParcallCount).total());
    }

    #[test]
    fn check_top_detects_overflow() {
        let m = Memory::new(MemoryConfig::small(), 2);
        let end = m.map.area_end(0, Area::Trail);
        assert!(m.check_top(0, Area::Trail, end - 1).is_ok());
        assert_eq!(
            m.check_top(0, Area::Trail, end),
            Err(EngineError::OutOfMemory { worker: 0, area: Area::Trail })
        );
    }

    #[test]
    fn tracing_can_be_disabled() {
        let mut e = machine(MemoryConfig::small(), 1, false);
        let base = e.core.mem.map.area_base(0, Area::Heap);
        pe(&mut e, 0).mem_write(base, Cell::Int(1), ObjectKind::HeapTerm);
        assert!(e.take_trace().is_none());
        assert_eq!(e.stats().area_stats.total.writes, 1);
    }

    /// First, middle and last word of every area of every arena.
    fn probes(m: &Memory) -> Vec<u32> {
        let mut out = Vec::new();
        for w in 0..m.num_arenas() {
            for area in Area::ALL {
                let (base, end) = (m.map.area_base(w, area), m.map.area_end(w, area));
                out.extend([base, base + (end - base) / 2, end - 1]);
            }
        }
        out
    }

    #[test]
    fn fresh_and_reset_memories_read_empty_everywhere_probed() {
        let mut e = traced();
        let probes = probes(&e.core.mem);
        for &addr in &probes {
            assert_eq!(e.core.mem.read_untraced(addr), Cell::Empty, "fresh word {addr}");
        }
        // Dirty every probe — from its arena's owner for even addresses, from
        // the other PE for odd — then reset.
        for &addr in &probes {
            let (owner, area) = (e.core.mem.map.owner(addr), e.core.mem.map.area_of(addr));
            let kind = *ObjectKind::ALL.iter().find(|k| k.area() == area).unwrap();
            let issuer = if addr % 2 == 0 { owner } else { 1 - owner };
            pe(&mut e, issuer).mem_write(addr, Cell::Fun(Atom(u32::MAX), 255), kind);
            assert_ne!(e.core.mem.read_untraced(addr), Cell::Empty);
        }
        e = rebuilt(e);
        for &addr in &probes {
            assert_eq!(e.core.mem.read_untraced(addr), Cell::Empty, "reset word {addr}");
        }
    }

    #[test]
    fn reset_clears_touched_words_counters_and_trace() {
        let mut e = traced();
        let h0 = e.core.mem.map.area_base(0, Area::Heap);
        let h1 = e.core.mem.map.area_base(1, Area::Heap);
        pe(&mut e, 0).mem_write(h0 + 3, Cell::Int(9), ObjectKind::HeapTerm);
        pe(&mut e, 1).mem_write(h1, Cell::Int(7), ObjectKind::HeapTerm);
        e = rebuilt(e);
        assert_eq!(e.core.mem.read_untraced(h0 + 3), Cell::Empty);
        assert_eq!(e.core.mem.read_untraced(h1), Cell::Empty);
        assert_eq!(e.stats().area_stats.total.total(), 0);
        assert!(e.workers.iter().all(|w| w.trace.as_ref().is_some_and(Vec::is_empty)));
        // A reset machine behaves exactly like a fresh one.
        pe(&mut e, 0).mem_write(h0, Cell::Int(1), ObjectKind::HeapTerm);
        let t = e.take_trace().unwrap();
        assert_eq!(t, [MemRef::new(0, h0, true, ObjectKind::HeapTerm)]);
        // A rebuild can also disarm tracing for the next run.
        e.core.config.collect_trace = false;
        e = rebuilt(e);
        assert!(e.workers.iter().all(|w| w.trace.is_none()));
        pe(&mut e, 0).mem_write(h0, Cell::Int(1), ObjectKind::HeapTerm);
        assert!(e.take_trace().is_none());
    }

    fn marks(marks: &Marks) -> [usize; Area::ALL.len()] {
        std::array::from_fn(|i| marks[i].load(Ordering::Relaxed))
    }

    #[test]
    fn reset_sweeps_each_area_only_up_to_its_own_mark() {
        let mut e = traced();
        let h = e.core.mem.map.area_base(0, Area::Heap);
        let c = e.core.mem.map.area_base(0, Area::ControlStack);
        pe(&mut e, 0).mem_write(h + 1, Cell::Int(1), ObjectKind::HeapTerm);
        pe(&mut e, 0).mem_write(c, Cell::Uint(2), ObjectKind::ChoicePoint);
        let a = &e.core.mem.arenas[0];
        // The Control-stack word sits above the whole heap and local stack in
        // the arena; it must not drag their marks up with it.
        let mut expected = [0; Area::ALL.len()];
        expected[Area::Heap.index()] = 2;
        expected[Area::ControlStack.index()] = (c - a.base) as usize + 1;
        assert_eq!(marks(&a.owner_marks), expected);
        // Plant a word no write accounted for, past the heap's mark: a reset
        // that swept the heap up to the Control-stack write (one arena-wide
        // mark) would clear it.
        a.words[5].store(Cell::Int(99));
        e = rebuilt(e);
        let mem = &mut e.core.mem;
        assert_eq!(mem.read_untraced(h + 1), Cell::Empty);
        assert_eq!(mem.read_untraced(c), Cell::Empty);
        assert_eq!(mem.read_untraced(h + 5), Cell::Int(99), "the heap was swept past its own mark");
        assert_eq!(marks(&mem.arenas[0].owner_marks), [0; Area::ALL.len()]);
        // No mark covers the plant, so the sweep at drop would park it with
        // the array and another test's fresh memory would read it.
        let plant = &mut mem.arenas[0].words[5];
        *plant.0.get_mut() = 0;
    }

    #[test]
    fn reset_honours_the_owner_marks_and_the_recorded_marks() {
        let mut e = machine(MemoryConfig::small(), 2, false);
        let h = e.core.mem.map.area_base(0, Area::Heap);
        let msg = e.core.mem.map.area_base(0, Area::MessageBuffer);
        // The owner writes low; a remote PE's writes land above it in the
        // same area (a binding) and in an area the owner never wrote (a
        // Message).
        pe(&mut e, 0).mem_write(h + 2, Cell::Int(1), ObjectKind::HeapTerm);
        pe(&mut e, 1).mem_write(h + 9, Cell::Ref(h + 9), ObjectKind::HeapTerm);
        pe(&mut e, 1).mem_write(msg + 4, Cell::Uint(7), ObjectKind::Message);
        // And the other way round: the owner above the remote mark.
        pe(&mut e, 1).mem_write(h + 20, Cell::Int(2), ObjectKind::HeapTerm);
        pe(&mut e, 0).mem_write(h + 40, Cell::Int(3), ObjectKind::HeapTerm);
        // A lower write does not pull a mark back.
        pe(&mut e, 0).mem_write(h + 1, Cell::Int(4), ObjectKind::HeapTerm);
        pe(&mut e, 1).mem_write(h + 3, Cell::Int(5), ObjectKind::HeapTerm);
        let a = &e.core.mem.arenas[0];
        let mut expected = [0; Area::ALL.len()];
        expected[Area::Heap.index()] = 41;
        assert_eq!(marks(&a.owner_marks), expected);
        expected[Area::Heap.index()] = 21;
        expected[Area::MessageBuffer.index()] = (msg - a.base) as usize + 5;
        assert_eq!(marks(&a.remote_marks), expected);
        e = rebuilt(e);
        for addr in [h + 1, h + 2, h + 3, h + 9, h + 20, h + 40, msg + 4] {
            assert_eq!(e.core.mem.read_untraced(addr), Cell::Empty, "word {addr} survived the reset");
        }
        let a = &e.core.mem.arenas[0];
        assert_eq!(marks(&a.owner_marks), [0; Area::ALL.len()]);
        assert_eq!(marks(&a.remote_marks), [0; Area::ALL.len()]);
    }

    /// Both threads leave together: each spins until the other has arrived
    /// at `round`, so what follows starts within a cache-line transfer of the
    /// other thread's — a `std::sync::Barrier` wakes its waiters
    /// microseconds apart, which would hide the race this is for.
    fn meet(arrived: &AtomicUsize, round: usize) {
        arrived.fetch_add(1, Ordering::AcqRel);
        let mut spins = 0;
        while arrived.load(Ordering::Acquire) < 2 * (round + 1) {
            // The other thread may be off its core (the test harness runs
            // tests side by side): give it ours.
            spins += 1;
            if spins < 1000 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Two PEs store into a third PE's heap at once, ever higher and above
    /// anything its owner wrote.  After each pair the remote mark must cover
    /// the higher of the two — with a load-then-store in place of the
    /// `fetch_max` the lower store can land last — and in the end the sweep
    /// leaves no word behind.
    #[test]
    fn two_remote_pes_storing_into_one_arena_never_lose_a_reset_mark() {
        let mut e = machine(MemoryConfig::small(), 3, false);
        let rounds: usize = if cfg!(miri) { 30 } else { 4000 };
        let h = e.core.mem.map.area_base(0, Area::Heap);
        pe(&mut e, 0).mem_write(h, Cell::Int(1), ObjectKind::HeapTerm);
        let (core, arrived) = (&e.core, AtomicUsize::new(0));
        let mark = &core.mem.arenas[0].remote_marks[Area::Heap.index()];
        std::thread::scope(|s| {
            for (k, wk) in e.workers[1..].iter_mut().enumerate() {
                let arrived = &arrived;
                s.spawn(move || {
                    let mut pe = Step::new(core, wk);
                    for round in 0..rounds {
                        let pair = 1 + 2 * round;
                        meet(arrived, 2 * round);
                        pe.mem_write(h + (pair + k) as u32, Cell::Int(INT_MIN), ObjectKind::HeapTerm);
                        meet(arrived, 2 * round + 1);
                        assert_eq!(mark.load(Ordering::Relaxed), pair + 2, "round {round}: a mark was lost");
                    }
                });
            }
        });
        assert_eq!(marks(&e.core.mem.arenas[0].owner_marks)[Area::Heap.index()], 1);
        e = rebuilt(e);
        assert!(e.core.mem.is_pristine());
    }

    /// `MemoryConfig::small()` with a Stack-Set length no other test builds,
    /// so what this test parks only this test can take.
    fn own_size(extra_heap_words: u32) -> MemoryConfig {
        MemoryConfig { heap_words: (1 << 14) + extra_heap_words, ..MemoryConfig::small() }
    }

    fn parked_of(config: MemoryConfig) -> usize {
        PARKED.lock().iter().filter(|words| words.len() == config.stack_set_words() as usize).count()
    }

    fn word_arrays(m: &Memory) -> Vec<*const Word> {
        let mut arrays: Vec<_> = m.arenas.iter().map(|a| a.words.as_ptr()).collect();
        arrays.sort_unstable();
        arrays
    }

    #[test]
    fn a_dropped_memory_sweeps_its_words_and_the_next_of_that_size_reuses_them() {
        let config = own_size(1);
        let mut e = machine(config, 2, true);
        assert!(e.core.mem.is_pristine());
        let arrays = word_arrays(&e.core.mem);
        // An `Int` from a remote PE and from the owner, so a word is dirty
        // under either kind of mark.
        let msg = e.core.mem.map.area_base(1, Area::MessageBuffer);
        pe(&mut e, 0).mem_write(msg + 3, Cell::Int(INT_MIN), ObjectKind::Message);
        pe(&mut e, 0).mem_write(17, Cell::Int(-1), ObjectKind::HeapTerm);
        assert!(!e.core.mem.is_pristine());
        drop(e);
        assert_eq!(parked_of(config), 2);
        // Another shape of the same Stack-Set size: length is the only key.
        let next = Memory::new(config, 1);
        assert_eq!(parked_of(config), 1);
        assert!(arrays.contains(&next.arenas[0].words.as_ptr()), "the array came from the allocator");
        assert!(next.is_pristine());
        let again = Memory::new(config, 2);
        assert_eq!(parked_of(config), 0);
        assert_eq!(word_arrays(&again).iter().filter(|a| arrays.contains(a)).count(), 1);
        assert!(again.is_pristine());
    }

    #[test]
    fn the_parked_list_never_exceeds_its_bound() {
        let config = own_size(2);
        // (Miri scans every parked array word by word: two past the bound do.)
        let count = if cfg!(miri) { MAX_PARKED + 2 } else { 40 };
        let memories: Vec<Memory> = (0..count).map(|_| Memory::new(config, 1)).collect();
        for m in memories {
            drop(m);
            assert!(PARKED.lock().len() <= MAX_PARKED);
        }
        // Other tests park and take concurrently, so how many of the sixteen
        // are this test's is not fixed — but it cannot be more.
        assert!(parked_of(config) <= MAX_PARKED);
        // Do not leave the slots pinned on a size nothing else builds.
        PARKED.lock().retain(|words| words.len() != config.stack_set_words() as usize);
    }

    #[test]
    #[should_panic(expected = "a swept arena still holds a written word")]
    fn parking_a_word_no_mark_covers_is_caught() {
        // (The array is not parked: the unwinding frees it.)
        let m = Memory::new(MemoryConfig::small(), 1);
        m.arenas[0].words[5].store(Cell::Uint(1));
    }

    #[test]
    fn a_recycled_memory_of_another_shape_still_gives_its_words_to_the_build() {
        let config = own_size(3);
        let mut session = crate::session::Session::new("p.").unwrap();
        let compiled = session.compile("p", true).unwrap();
        // What a pool slot does when a request changes the worker count.
        let one = Memory::new(config, 1);
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
    fn assert_trace_is_placed_like_a_sort(e: &mut Engine) {
        let mut sorted: Vec<(u64, MemRef)> = Vec::new();
        for wk in &e.workers {
            let own = wk.trace.as_ref().expect("tracing");
            assert!(own.iter().all(|(_, r)| r.pe == wk.id));
            assert!(own.is_sorted_by_key(|&(seq, _)| seq), "PE {}'s records left its program order", wk.id);
            sorted.extend(own);
        }
        sorted.sort_unstable_by_key(|&(seq, _)| seq);
        assert_eq!(sorted.len(), e.core.mem.seqs_claimed(), "every claimed sequence number has its record");
        assert!(sorted.iter().enumerate().all(|(i, s)| s.0 == i as u64), "sequence numbers are dense");
        let placed = e.take_trace().unwrap();
        assert_eq!(placed, sorted.iter().map(|s| s.1).collect::<Vec<_>>());
    }

    #[test]
    fn take_trace_places_every_record_of_a_serial_and_of_a_threaded_run() {
        let mut one_thread = machine(MemoryConfig::small(), 4, true);
        let mut threaded = machine(MemoryConfig::small(), 4, true);
        let rounds: u32 = if cfg!(miri) { 20 } else { 2000 };
        // Each PE writes its own heap, reads its neighbour's and bumps a
        // counter in arena 0, so every buffer interleaves with every other.
        let count = one_thread.core.mem.map.area_base(0, Area::LocalStack);
        let pe_loop = |mut pe: Step| {
            let w = pe.wk.id as usize;
            let own = pe.core.mem.map.area_base(w, Area::Heap);
            let neighbour = pe.core.mem.map.area_base((w + 1) % 4, Area::Heap);
            for i in 0..rounds {
                pe.mem_write(own + i % 64, Cell::Uint(i), ObjectKind::HeapTerm);
                pe.mem_read(neighbour + i % 64, ObjectKind::HeapTerm);
                pe.mem_rmw(count, ObjectKind::ParcallCount, |v| v + 1).unwrap();
            }
        };
        for e in [&mut one_thread, &mut threaded] {
            pe(e, 0).mem_write(count, Cell::Uint(0), ObjectKind::ParcallCount);
        }
        for w in 0..4 {
            pe_loop(pe(&mut one_thread, w));
        }
        let core = &threaded.core;
        std::thread::scope(|s| {
            for wk in &mut threaded.workers {
                let pe_loop = &pe_loop;
                s.spawn(move || pe_loop(Step::new(core, wk)));
            }
        });
        for e in [&mut one_thread, &mut threaded] {
            assert_eq!(e.core.mem.seqs_claimed(), 1 + 4 * 4 * rounds as usize);
            assert_trace_is_placed_like_a_sort(e);
        }
    }

    #[test]
    fn an_untraced_run_counts_identically_to_a_traced_one() {
        let mut traced = machine(MemoryConfig::small(), 2, true);
        let mut untraced = machine(MemoryConfig::small(), 2, false);
        let h = traced.core.mem.map.area_base(0, Area::Heap);
        let t = traced.core.mem.map.area_base(0, Area::Trail);
        let count = traced.core.mem.map.area_base(1, Area::LocalStack);
        // Own-arena and cross-arena references of every flavour.
        for e in [&mut traced, &mut untraced] {
            pe(e, 0).mem_write(h, Cell::Int(1), ObjectKind::HeapTerm);
            assert_eq!(pe(e, 1).mem_read(h, ObjectKind::HeapTerm), Cell::Int(1));
            pe(e, 0).mem_write(t, Cell::Uint(7), ObjectKind::TrailEntry);
            pe(e, 1).mem_write(count, Cell::Uint(0), ObjectKind::ParcallCount);
            for w in 0..2 {
                pe(e, w).mem_rmw(count, ObjectKind::ParcallCount, |v| v + 1).unwrap();
            }
        }
        let (ts, us) = (traced.stats().area_stats, untraced.stats().area_stats);
        assert_eq!(us.total, ts.total);
        assert_eq!(us.per_area, ts.per_area);
        assert_eq!(us.per_object, ts.per_object);
        assert_eq!(
            (us.global_refs, us.local_refs, us.locked_refs),
            (ts.global_refs, ts.local_refs, ts.locked_refs)
        );
        assert_eq!(us.per_pe, ts.per_pe);
        assert_eq!(traced.take_trace().unwrap().len() as u64, ts.total.total());
        // The reset marks are kept either way, so reset clears both.
        for e in [traced, untraced] {
            assert!(rebuilt(e).core.mem.is_pristine());
        }
    }

    /// Everything a reference leaves behind must be the same in both
    /// machines: each PE's counts and `(seq, MemRef)` records, every arena
    /// word, every reset mark — and a reset then clears both, so the marks
    /// cover what was written.
    fn assert_same_footprint(mut singles: Engine, mut runs: Engine) {
        for (s, r) in singles.workers.iter().zip(&runs.workers) {
            assert_eq!(r.refs.counts, s.refs.counts, "PE {}'s counts", s.id);
            assert_eq!(r.trace, s.trace, "PE {}'s records", s.id);
        }
        assert_eq!(runs.core.mem.seqs_claimed(), singles.core.mem.seqs_claimed());
        let (sm, rm) = (&singles.core.mem, &runs.core.mem);
        for addr in 0..sm.map.stack_sets_end() {
            assert_eq!(rm.read_untraced(addr), sm.read_untraced(addr), "word {addr}");
        }
        for (s, r) in sm.arenas.iter().zip(&rm.arenas) {
            assert_eq!(marks(&r.owner_marks), marks(&s.owner_marks), "owner marks of arena at {}", s.base);
            assert_eq!(marks(&r.remote_marks), marks(&s.remote_marks), "remote marks of arena at {}", s.base);
        }
        for e in [singles, runs] {
            assert!(rebuilt(e).core.mem.is_pristine(), "a written word lies above its area's reset mark");
        }
    }

    #[test]
    fn a_run_leaves_what_its_single_references_leave() {
        // xorshift64*: the cases only have to be varied and repeatable.
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as u32
        };
        let rounds = if cfg!(miri) { 3 } else { 60 };
        for _ in 0..rounds {
            let mut singles = traced();
            let mut runs = traced();
            // A few references per machine, so most marks are one run's doing.
            for _ in 0..6 {
                let object = ObjectKind::ALL[next() as usize % ObjectKind::ALL.len()];
                let (issuer, owner) = (next() as usize % 2, next() as usize % 2);
                let n = next() as usize % 17;
                let map = &singles.core.mem.map;
                let room = map.config.area_size(object.area()) - 16;
                let start = map.area_base(owner, object.area()) + next() % room;
                if next() % 2 == 0 {
                    let values: Vec<Cell> = (0..n)
                        .map(|i| match next() % 3 {
                            0 => Cell::Int(INT_MIN + i as i64),
                            1 => Cell::Fun(Atom(next()), 255),
                            _ => Cell::Uint(next()),
                        })
                        .collect();
                    for (i, &value) in values.iter().enumerate() {
                        pe(&mut singles, issuer).mem_write(start + i as u32, value, object);
                    }
                    pe(&mut runs, issuer).mem_write_run(start, object, &values);
                } else {
                    let one_by_one: Vec<Cell> =
                        (0..n).map(|i| pe(&mut singles, issuer).mem_read(start + i as u32, object)).collect();
                    let mut at_once = vec![Cell::Code(u32::MAX); n];
                    pe(&mut runs, issuer).mem_read_run(start, object, &mut at_once);
                    assert_eq!(at_once, one_by_one);
                }
            }
            assert_same_footprint(singles, runs);
        }
    }

    #[test]
    fn a_run_across_the_end_of_a_stack_set_is_not_served_from_one_arena() {
        // Stack Sets that are all heap, so the word after PE 0's last is PE
        // 1's first and one object kind is at home on both sides.
        let heap_only = MemoryConfig {
            heap_words: 96,
            local_words: 0,
            control_words: 0,
            trail_words: 0,
            pdl_words: 0,
            goal_stack_words: 0,
            message_words: 0,
        };
        let mut singles = machine(heap_only, 2, true);
        let mut runs = machine(heap_only, 2, true);
        let end = runs.core.mem.map.area_end(0, Area::Heap);
        let arenas = &runs.core.mem.arenas;
        assert!(arenas[0].run(end - 3, 3).is_some(), "the last three words are one arena's");
        assert!(arenas[0].run(end - 3, 6).is_none(), "the run only starts in arena 0");
        assert!(arenas[1].run(end - 3, 6).is_none(), "and only ends in arena 1");
        assert!(arenas[0].run(u32::MAX, 2).is_none() && arenas[1].run(0, 1).is_none());
        let values: Vec<Cell> = (0..6).map(|i| Cell::Int(-1 - i)).collect();
        // The run starts in its issuer's own Stack Set (PE 0) or ends there
        // (PE 1): either way each word goes where its own address says.
        for issuer in 0..2 {
            for (i, &value) in values.iter().enumerate() {
                pe(&mut singles, issuer).mem_write(end - 3 + i as u32, value, ObjectKind::HeapTerm);
            }
            pe(&mut runs, issuer).mem_write_run(end - 3, ObjectKind::HeapTerm, &values);
            let mut read = [Cell::Empty; 6];
            for (i, cell) in read.iter_mut().enumerate() {
                *cell = pe(&mut singles, issuer).mem_read(end - 3 + i as u32, ObjectKind::HeapTerm);
            }
            assert_eq!(read[..], values[..]);
            read = [Cell::Empty; 6];
            pe(&mut runs, issuer).mem_read_run(end - 3, ObjectKind::HeapTerm, &mut read);
            assert_eq!(read[..], values[..]);
        }
        let heap = Area::Heap.index();
        let arenas = &runs.core.mem.arenas;
        assert_eq!(marks(&arenas[0].owner_marks)[heap], 96);
        assert_eq!(marks(&arenas[0].remote_marks)[heap], 96);
        assert_eq!(marks(&arenas[1].owner_marks)[heap], 3);
        assert_eq!(marks(&arenas[1].remote_marks)[heap], 3);
        assert_same_footprint(singles, runs);
    }

    #[test]
    fn len_counts_every_arena() {
        let m = Memory::new(MemoryConfig::small(), 2);
        let expected = 2 * MemoryConfig::small().stack_set_words() as usize;
        assert_eq!(m.len(), expected);
    }
}
