//! The multiprocessor cache simulator proper: per-PE LRU caches kept
//! coherent over a shared bus, with bus-traffic accounting.
//!
//! ## Traffic accounting
//!
//! The figure of merit is the *traffic ratio* — data words moved over the
//! bus per word referenced by a processor.  The simulator counts:
//!
//! * line fetches (`line_words` per fetch, whether served by memory or by a
//!   remote cache),
//! * words written through to memory,
//! * word-update broadcasts (update protocols),
//! * write-backs of dirty lines (`line_words` each).
//!
//! Pure invalidation signals carry no data word; they are counted as bus
//! transactions (and in `invalidations`) but contribute zero words, which is
//! the convention that makes the conventional write-through cache look as
//! bad as it does in the paper.
//!
//! ## The packed stream
//!
//! The caches never see an address.  [`simulate`] (and the sweep, once per
//! line size) first decodes the trace into a [`Stream`]: one 8-byte record
//! per reference holding its line number, its PE, a write bit and a global
//! bit.  Line numbers are dense, in order of first use, so every coherence
//! question in every PE's cache is answered by indexing with that number;
//! the bits are all a configuration needs of a [`MemRef`].  Every
//! configuration replays the same stream, in a loop of its own protocol's
//! (the `match` on the protocol is made once per replay, not per reference).
//! The stream is published in chunks of [`CHUNK`] trace references, each
//! with the line count and the PE count so far, so a replay can run behind
//! the decoder: per chunk it grows its caches' indexes to the line count
//! and checks that the chunk's PEs are ones it has.
//!
//! Decoding also drops the reads that are no-ops in every configuration: a
//! read whose PE's previous reference was a read of the same line, with no
//! write to that line by any PE in between.  Only a PE's own fetches evict
//! from its cache and only writes invalidate, so that line is still resident
//! in the PE's cache and still at its most recently used position: the read
//! is a hit whose `touch` moves nothing, whatever the protocol, cache size
//! or allocation policy.  The stream counts the dropped reads, and every
//! result adds them to `refs` and `reads`.  The decoder needs no state per
//! line for this: it keeps, per PE, the line that PE's previous reference
//! read, and a write clears the entries of every PE that names its line.
//!
//! ## Holder masks
//!
//! Beside the caches the simulator keeps, per line number, a bitmask of the
//! PEs whose cache holds that line: one `u64` per line for up to 64 PEs, one
//! more word per further 64.  A fetch sets the fetching PE's bit, and an
//! eviction or an invalidation clears the bit of the cache that lost the
//! line, so the mask is always the set of resident copies (a test checks it
//! after every access).  "Who else holds this line?" — a read miss's
//! suppliers, a write miss's dirty copy, an update protocol's sharers, the
//! copies an invalidation removes — visits only the set bits instead of
//! asking every other PE's cache in turn.

use crate::config::{Protocol, SimConfig};
use crate::lru::{LineState, LruCache};
use crate::results::SimResult;
use rapwam::{Locality, MemRef};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// One reference of a [`Stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Packed {
    pub(crate) line: u32,
    pub(crate) pe: u8,
    pub(crate) write: bool,
    /// The referenced object is global (Table 1), which the hybrid protocol
    /// writes through.
    pub(crate) global: bool,
}

const _: () = assert!(std::mem::size_of::<Packed>() == 8);

/// Entries of the direct-mapped memo of recent line numbers in
/// [`Stream::decode`] (a power of two).
const RECENT: usize = 4096;

/// Trace references per [`Chunk`]; few in unit tests, so that their short
/// traces cross chunk boundaries.
const CHUNK: usize = if cfg!(test) { 64 } else { 8192 };

/// The packed references of one [`CHUNK`] of the trace, and what the
/// stream knows once they are decoded.
#[derive(Debug)]
pub(crate) struct Chunk {
    /// This piece's references that are not no-op reads, in trace order.
    refs: Vec<Packed>,
    /// Lines numbered so far: every line number up to here is below this.
    lines: u32,
    /// One more than the largest PE that issued a reference so far.
    pes: usize,
    /// This piece's reads, the dropped ones included, and writes.
    reads: u64,
    writes: u64,
}

/// A trace decoded for one line size: what every configuration of that
/// line size replays.  One thread decodes it, chunk by chunk, while others
/// may already replay the chunks published so far.
#[derive(Debug)]
pub(crate) struct Stream {
    pub(crate) line_words: u32,
    /// Set in order by [`Stream::decode`]; `None` if the decoder died first.
    chunks: Vec<OnceLock<Option<Chunk>>>,
}

impl Stream {
    /// An empty stream for a trace of `len` references.
    pub(crate) fn new(len: usize, line_words: u32) -> Stream {
        Stream { line_words, chunks: (0..len.div_ceil(CHUNK)).map(|_| OnceLock::new()).collect() }
    }

    /// A stream decoded from `trace`.
    pub(crate) fn of(trace: &[MemRef], line_words: u32) -> Stream {
        let stream = Stream::new(trace.len(), line_words);
        stream.decode(trace);
        stream
    }

    /// Number the lines of `line_words` words that `trace` touches, densely
    /// and in order of first use, and pack every reference that is not a
    /// no-op read (see the module docs), publishing chunk after chunk.
    pub(crate) fn decode(&self, trace: &[MemRef]) {
        // Lines are a power of two words in every configuration the paper
        // sweeps: a shift, not a division per reference.
        let line_words = self.line_words;
        if line_words.is_power_of_two() {
            let shift = line_words.trailing_zeros();
            self.decode_with(trace, |addr| addr >> shift)
        } else {
            self.decode_with(trace, |addr| addr / line_words)
        }
    }

    #[inline(always)]
    fn decode_with(&self, trace: &[MemRef], line_of: impl Fn(u32) -> u32) {
        let mut numbers: HashMap<u32, u32, BuildHasherDefault<LineHasher>> = HashMap::default();
        // (line address, number) of the last line seen at each position:
        // most references are to a recently used line, and this answers them
        // without the table.  Entry `k` starts as address `k ^ 1`, which is
        // looked up at entry `k ^ 1`, never here.
        let mut recent: Vec<(u32, u32)> = (0..RECENT as u32).map(|k| (k ^ 1, 0)).collect();
        // Per PE: the line its previous reference read, and whether no PE
        // has written that line since (false after a write by the PE).
        let mut last_read = [(0u32, false); 256];
        let mut pes = 0;
        for (slot, piece) in self.chunks.iter().zip(trace.chunks(CHUNK)) {
            let mut refs = Vec::with_capacity(piece.len());
            let mut writes = 0;
            for r in piece {
                let addr = line_of(r.addr);
                let memo = &mut recent[addr as usize & (RECENT - 1)];
                let line = if memo.0 == addr {
                    memo.1
                } else {
                    let next = numbers.len() as u32;
                    let line = *numbers.entry(addr).or_insert(next);
                    *memo = (addr, line);
                    line
                };
                pes = pes.max(r.pe as usize + 1);
                if r.write {
                    writes += 1;
                    for last in &mut last_read[..pes] {
                        last.1 &= last.0 != line;
                    }
                    last_read[r.pe as usize].1 = false;
                } else {
                    let last = &mut last_read[r.pe as usize];
                    let no_op = *last == (line, true);
                    *last = (line, true);
                    if no_op {
                        continue;
                    }
                }
                let global = matches!(r.locality(), Locality::Global);
                refs.push(Packed { line, pe: r.pe, write: r.write, global });
            }
            let reads = piece.len() as u64 - writes;
            let chunk = Chunk { refs, lines: numbers.len() as u32, pes, reads, writes };
            slot.set(Some(chunk)).expect("a stream is decoded once");
        }
    }

    /// Mark every chunk not decoded yet as lost, so that no replay waits
    /// for it: what a decoding thread that unwinds must leave behind.
    pub(crate) fn abandon(&self) {
        for chunk in &self.chunks {
            let _ = chunk.set(None);
        }
    }

    /// The chunks in order, each as soon as it is decoded.
    fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.chunks.iter().map(|slot| slot.wait().as_ref().expect("the thread decoding the trace panicked"))
    }
}

/// The simulator state: one cache per PE plus the shared-bus counters.
#[derive(Debug)]
pub(crate) struct MultiCacheSim {
    config: SimConfig,
    caches: Vec<LruCache>,
    /// Per line number, `mask_words` words: bit `pe % 64` of word `pe / 64`
    /// is set exactly while `caches[pe]` holds the line.
    holders: Vec<u64>,
    mask_words: usize,
    result: SimResult,
}

impl MultiCacheSim {
    /// A simulator for line numbers below `lines`.
    pub(crate) fn new(config: SimConfig, lines: u32) -> Self {
        let caches =
            (0..config.num_pes).map(|_| LruCache::new(config.cache.capacity_lines(), lines)).collect();
        let mask_words = config.num_pes.div_ceil(64);
        let holders = vec![0; lines as usize * mask_words];
        MultiCacheSim { config, caches, holders, mask_words, result: SimResult::new(config) }
    }

    /// Make room for line numbers below `lines`.
    fn grow(&mut self, lines: u32) {
        for cache in &mut self.caches {
            cache.grow(lines);
        }
        self.holders.resize(lines as usize * self.mask_words, 0);
    }

    /// Panic unless every PE below `pes` has a cache; `pe` names the first
    /// reference's PE that has none.
    fn check_pes(&self, pes: usize, first: impl FnOnce() -> usize) {
        if pes > self.config.num_pes {
            panic!("reference from PE {} but only {} PEs configured", first(), self.config.num_pes);
        }
    }

    /// Feed one reference, to the line numbered `line`, into the simulator:
    /// the unfiltered, per-reference path the packed replay is checked
    /// against.
    #[cfg(test)]
    pub(crate) fn access(&mut self, pe: usize, line: u32, write: bool, locality: Locality) {
        self.check_pes(pe + 1, || pe);
        self.result.refs += 1;
        let slot = self.caches[pe].touch_slot(line);
        if write {
            self.result.writes += 1;
            if slot.is_none() {
                self.result.write_misses += 1;
            }
            match self.config.protocol {
                Protocol::WriteThrough => self.write_through(pe, line, slot, true),
                Protocol::Hybrid => match locality {
                    Locality::Global => self.write_through(pe, line, slot, false),
                    Locality::Local => self.write_back_private(pe, line, slot),
                },
                Protocol::WriteInBroadcast => self.write_invalidate(pe, line, slot),
                Protocol::WriteThroughBroadcast => self.write_update(pe, line, slot),
            }
        } else {
            self.result.reads += 1;
            if slot.is_none() {
                self.read_miss(pe, line);
            }
        }
    }

    /// Replay `stream` with `write` as the protocol's write action, which
    /// gets the writing PE, the line, the slot the write hit (`None` on a
    /// miss) and the global bit.
    #[inline(always)]
    fn replay_stream(
        &mut self,
        stream: &Stream,
        mut write: impl FnMut(&mut Self, usize, u32, Option<u32>, bool),
    ) {
        for chunk in stream.chunks() {
            self.grow(chunk.lines);
            // The first reference from a PE without a cache is never a
            // dropped read: its PE's previous reference was earlier.
            self.check_pes(chunk.pes, || {
                let pe = chunk.refs.iter().map(|r| r.pe as usize).find(|&pe| pe >= self.config.num_pes);
                pe.expect("`pes` counts only the PEs of kept references")
            });
            for r in &chunk.refs {
                let pe = r.pe as usize;
                let slot = self.caches[pe].touch_slot(r.line);
                if r.write {
                    if slot.is_none() {
                        self.result.write_misses += 1;
                    }
                    write(self, pe, r.line, slot, r.global);
                } else if slot.is_none() {
                    self.read_miss(pe, r.line);
                }
            }
            let result = &mut self.result;
            (result.reads, result.writes) = (result.reads + chunk.reads, result.writes + chunk.writes);
            result.refs += chunk.reads + chunk.writes;
        }
    }

    /// Finish the simulation and return the results.  Dirty lines remaining
    /// in the caches are *not* flushed (the paper measures steady-state
    /// traffic, not a final flush).
    pub(crate) fn finish(self) -> SimResult {
        self.result
    }

    // -----------------------------------------------------------------

    /// Where `line`'s holder mask starts in `holders`.
    #[inline]
    fn mask_at(&self, line: u32) -> usize {
        line as usize * self.mask_words
    }

    /// `pe`'s bit within word `w` of a holder mask (zero in the other words).
    #[inline]
    fn own_bit(pe: usize, w: usize) -> u64 {
        if pe / 64 == w {
            1 << (pe % 64)
        } else {
            0
        }
    }

    /// Whether a cache other than `pe`'s holds `line`.
    #[inline(always)]
    fn held_elsewhere(&self, pe: usize, line: u32) -> bool {
        let at = self.mask_at(line);
        (0..self.mask_words).any(|w| self.holders[at + w] & !Self::own_bit(pe, w) != 0)
    }

    /// Call `f` on the cache of every PE but `pe` that holds `line`, in PE
    /// order, with the bus counters.
    #[inline]
    fn each_other_holder(&mut self, pe: usize, line: u32, mut f: impl FnMut(&mut LruCache, &mut SimResult)) {
        let at = self.mask_at(line);
        for w in 0..self.mask_words {
            let mut others = self.holders[at + w] & !Self::own_bit(pe, w);
            while others != 0 {
                let other = w * 64 + others.trailing_zeros() as usize;
                others &= others - 1;
                f(&mut self.caches[other], &mut self.result);
            }
        }
    }

    /// A read that missed in `pe`'s cache.
    fn read_miss(&mut self, pe: usize, line: u32) {
        self.result.read_misses += 1;
        // A dirty remote copy supplies the line (and memory snoops the same
        // transfer), so the data words are only counted once — by the fetch
        // below; clean remote copies just become shared.
        let mut remote_copy = false;
        self.each_other_holder(pe, line, |cache, result| {
            let i = cache.slot(line).expect("a holder bit without a resident line");
            if cache.state(i) == LineState::Dirty {
                result.write_backs += 1;
            }
            cache.set_slot_state(i, LineState::Shared);
            remote_copy = true;
        });
        // Fetch the line (from memory or the supplying cache).
        self.fetch_line(pe, line, if remote_copy { LineState::Shared } else { LineState::Exclusive });
    }

    /// Conventional write-through: the word always goes to memory and remote
    /// copies are invalidated.  When `allocate_policy` is true the cache's
    /// write-allocate setting decides whether a missing block is fetched;
    /// the hybrid protocol's global writes never allocate.
    fn write_through(&mut self, pe: usize, line: u32, slot: Option<u32>, allocate_policy: bool) {
        self.invalidate_others(pe, line);
        // The written word travels to memory.
        self.result.write_through_words += 1;
        self.result.bus_words += 1;
        self.result.bus_transactions += 1;
        if let Some(i) = slot {
            // Copy stays valid and consistent (memory was just updated).
            self.caches[pe].set_slot_state(i, LineState::Shared);
        } else if allocate_policy && self.config.cache.write_allocate {
            self.fetch_line(pe, line, LineState::Shared);
        }
    }

    /// Copy-back of local (unshared) data: no coherency actions at all.
    fn write_back_private(&mut self, pe: usize, line: u32, slot: Option<u32>) {
        if let Some(i) = slot {
            self.caches[pe].set_slot_state(i, LineState::Dirty);
            return;
        }
        if self.config.cache.write_allocate {
            self.fetch_line(pe, line, LineState::Dirty);
        } else {
            self.result.write_through_words += 1;
            self.result.bus_words += 1;
            self.result.bus_transactions += 1;
        }
    }

    /// Write-in broadcast (invalidate-based write-back).
    fn write_invalidate(&mut self, pe: usize, line: u32, slot: Option<u32>) {
        if let Some(i) = slot {
            match self.caches[pe].state(i) {
                LineState::Dirty => {}
                LineState::Exclusive => self.caches[pe].set_slot_state(i, LineState::Dirty),
                LineState::Shared => {
                    self.invalidate_others(pe, line);
                    self.caches[pe].set_slot_state(i, LineState::Dirty);
                }
            }
            return;
        }
        // Write miss.
        // A dirty remote copy supplies the block in the same transaction as
        // the fetch below (read-with-intent-to-modify); only count it once.
        self.each_other_holder(pe, line, |cache, result| {
            if cache.peek(line) == Some(LineState::Dirty) {
                result.write_backs += 1;
            }
        });
        self.invalidate_others(pe, line);
        if self.config.cache.write_allocate {
            // Read the block with intent to modify.
            self.fetch_line(pe, line, LineState::Dirty);
        } else {
            // No allocation: the word goes straight to memory.
            self.result.write_through_words += 1;
            self.result.bus_words += 1;
            self.result.bus_transactions += 1;
        }
    }

    /// Write-through broadcast (update-based): writes to shared blocks
    /// broadcast the word, private blocks are copied back.
    fn write_update(&mut self, pe: usize, line: u32, slot: Option<u32>) {
        let shared_elsewhere = self.held_elsewhere(pe, line);
        if let Some(i) = slot {
            if shared_elsewhere {
                // Broadcast the word to the other caches and memory.
                self.result.updates += 1;
                self.result.bus_words += 1;
                self.result.bus_transactions += 1;
                self.caches[pe].set_slot_state(i, LineState::Shared);
            } else {
                self.caches[pe].set_slot_state(i, LineState::Dirty);
            }
            return;
        }
        // Write miss.
        if self.config.cache.write_allocate {
            let state = if shared_elsewhere { LineState::Shared } else { LineState::Dirty };
            // A dirty remote copy supplies the block as part of the fetch.
            self.each_other_holder(pe, line, |cache, result| {
                if cache.peek(line) == Some(LineState::Dirty) {
                    result.write_backs += 1;
                    cache.set_state(line, LineState::Shared);
                }
            });
            self.fetch_line(pe, line, state);
            if shared_elsewhere {
                self.result.updates += 1;
                self.result.bus_words += 1;
                self.result.bus_transactions += 1;
            }
        } else {
            // Word to memory plus update of any remote copies.
            self.result.write_through_words += 1;
            self.result.bus_words += 1;
            self.result.bus_transactions += 1;
            if shared_elsewhere {
                self.result.updates += 1;
            }
        }
    }

    /// Invalidate every copy of `line` but `pe`'s.  Most writes find none,
    /// and pay one look at the holder mask for it.
    #[inline(always)]
    fn invalidate_others(&mut self, pe: usize, line: u32) {
        if self.held_elsewhere(pe, line) {
            self.invalidate_copies(pe, line);
        }
    }

    fn invalidate_copies(&mut self, pe: usize, line: u32) {
        self.each_other_holder(pe, line, |cache, result| {
            let was = cache.invalidate(line);
            debug_assert!(was.is_some(), "a holder bit without a resident line");
            result.copies_invalidated += 1;
        });
        let at = self.mask_at(line);
        for w in 0..self.mask_words {
            self.holders[at + w] &= Self::own_bit(pe, w);
        }
        self.result.invalidations += 1;
        self.result.bus_transactions += 1;
    }

    /// Bring a line into `pe`'s cache, accounting the fetch and any eviction
    /// write-back.
    fn fetch_line(&mut self, pe: usize, line: u32, state: LineState) {
        self.result.line_fetches += 1;
        self.result.bus_words += self.config.cache.line_words as u64;
        self.result.bus_transactions += 1;
        let (w, bit) = (pe / 64, 1 << (pe % 64));
        let at = self.mask_at(line);
        self.holders[at + w] |= bit;
        if let Some((victim, vstate)) = self.caches[pe].insert(line, state) {
            let at = self.mask_at(victim);
            self.holders[at + w] &= !bit;
            if vstate == LineState::Dirty {
                self.result.write_backs += 1;
                self.result.bus_words += self.config.cache.line_words as u64;
                self.result.bus_transactions += 1;
            }
        }
    }

    /// Test-only invariant: in invalidation-based protocols a line may be
    /// dirty in at most one cache, and if it is dirty nowhere else may hold
    /// it at all.
    #[cfg(test)]
    pub(crate) fn check_single_writer(&self) {
        let mut dirty: HashMap<u32, usize> = HashMap::new();
        let mut holders: HashMap<u32, usize> = HashMap::new();
        for c in &self.caches {
            for (line, state) in c.resident() {
                *holders.entry(line).or_default() += 1;
                if state == LineState::Dirty {
                    *dirty.entry(line).or_default() += 1;
                }
            }
        }
        for (line, d) in dirty {
            assert!(d <= 1, "line {line} dirty in {d} caches");
            if matches!(self.config.protocol, Protocol::WriteInBroadcast | Protocol::WriteThrough) {
                assert_eq!(holders[&line], 1, "dirty line {line} has {} holders", holders[&line]);
            }
        }
    }

    /// Test-only invariant: every line's holder mask is the set of PEs whose
    /// cache holds the line.
    #[cfg(test)]
    pub(crate) fn check_holders(&self) {
        let mut expected = vec![0u64; self.holders.len()];
        for (pe, c) in self.caches.iter().enumerate() {
            for (line, _) in c.resident() {
                expected[self.mask_at(line) + pe / 64] |= 1 << (pe % 64);
            }
        }
        for (line, (got, want)) in
            self.holders.chunks(self.mask_words).zip(expected.chunks(self.mask_words)).enumerate()
        {
            assert_eq!(got, want, "line {line}'s holder mask");
        }
    }
}

/// Run one configuration over a trace.
pub fn simulate(config: &SimConfig, trace: &[MemRef]) -> SimResult {
    replay(config, &Stream::of(trace, config.cache.line_words))
}

/// Run one configuration over a stream of its line size, each chunk as
/// soon as it is decoded.
pub(crate) fn replay(config: &SimConfig, stream: &Stream) -> SimResult {
    debug_assert_eq!(stream.line_words, config.cache.line_words, "a stream of another line size");
    let mut sim = MultiCacheSim::new(*config, 0);
    match config.protocol {
        Protocol::WriteThrough => {
            sim.replay_stream(stream, |sim, pe, line, slot, _| sim.write_through(pe, line, slot, true))
        }
        Protocol::Hybrid => sim.replay_stream(stream, |sim, pe, line, slot, global| {
            if global {
                sim.write_through(pe, line, slot, false)
            } else {
                sim.write_back_private(pe, line, slot)
            }
        }),
        Protocol::WriteInBroadcast => {
            sim.replay_stream(stream, |sim, pe, line, slot, _| sim.write_invalidate(pe, line, slot))
        }
        Protocol::WriteThroughBroadcast => {
            sim.replay_stream(stream, |sim, pe, line, slot, _| sim.write_update(pe, line, slot))
        }
    }
    sim.finish()
}

/// Run one configuration over a trace with every reference fed through
/// [`MultiCacheSim::access`]: no packed stream, no dropped reads, the
/// protocol matched per reference.  The oracle of the replay's tests.
#[cfg(test)]
pub(crate) fn simulate_unfiltered(config: &SimConfig, trace: &[MemRef]) -> SimResult {
    let mut numbers: HashMap<u32, u32> = HashMap::new();
    let lines: Vec<u32> = trace
        .iter()
        .map(|r| {
            let next = numbers.len() as u32;
            *numbers.entry(r.addr / config.cache.line_words).or_insert(next)
        })
        .collect();
    let mut sim = MultiCacheSim::new(*config, numbers.len() as u32);
    for (r, line) in trace.iter().zip(lines) {
        sim.access(r.pe as usize, line, r.write, r.locality());
    }
    sim.finish()
}

/// Hasher of the line address: one multiply, and a fold that carries the
/// well-mixed high bits down to where the table takes its bucket from.
/// Line addresses are small dense integers nobody chooses adversarially, so
/// the default SipHash buys nothing here and costs more than the look-up.
#[derive(Debug, Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b as u32);
        }
    }

    #[inline(always)]
    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline(always)]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn cfg(protocol: Protocol, size: u32, write_allocate: bool, pes: usize) -> SimConfig {
        SimConfig {
            cache: CacheConfig { size_words: size, line_words: 4, write_allocate },
            protocol,
            num_pes: pes,
        }
    }

    fn r(pe: u8, addr: u32, write: bool) -> MemRef {
        MemRef { pe, addr, write, object: rapwam::ObjectKind::HeapTerm }
    }

    fn r_local(pe: u8, addr: u32, write: bool) -> MemRef {
        MemRef { pe, addr, write, object: rapwam::ObjectKind::TrailEntry }
    }

    #[test]
    fn repeated_reads_hit_after_the_first_miss() {
        let trace: Vec<_> = (0..100).map(|_| r(0, 40, false)).collect();
        let res = simulate(&cfg(Protocol::WriteInBroadcast, 256, true, 1), &trace);
        assert_eq!(res.read_misses, 1);
        assert_eq!(res.bus_words, 4);
        assert!(res.traffic_ratio() < 0.05);
    }

    #[test]
    fn write_through_sends_every_write_to_the_bus() {
        let trace: Vec<_> = (0..50).map(|_| r(0, 8, true)).collect();
        let res = simulate(&cfg(Protocol::WriteThrough, 256, false, 1), &trace);
        assert_eq!(res.write_through_words, 50);
        assert!(res.bus_words >= 50);
        assert!(res.traffic_ratio() >= 1.0);
    }

    #[test]
    fn write_in_broadcast_keeps_repeated_writes_off_the_bus() {
        let mut trace = vec![r(0, 8, false)]; // fetch the line once
        trace.extend((0..50).map(|_| r(0, 8, true)));
        let res = simulate(&cfg(Protocol::WriteInBroadcast, 256, true, 1), &trace);
        // one fetch of 4 words, then everything is a dirty hit
        assert_eq!(res.bus_words, 4);
    }

    #[test]
    fn invalidation_on_shared_write() {
        // PE0 and PE1 read the same line, then PE0 writes it.
        let trace = vec![r(0, 8, false), r(1, 8, false), r(0, 8, true), r(1, 8, false)];
        let res = simulate(&cfg(Protocol::WriteInBroadcast, 256, true, 2), &trace);
        assert_eq!(res.invalidations, 1);
        assert_eq!(res.copies_invalidated, 1);
        // PE1 must re-fetch after the invalidation (plus a write-back of the
        // dirty copy held by PE0).
        assert_eq!(res.read_misses, 3);
        assert!(res.write_backs >= 1);
    }

    #[test]
    fn update_protocol_does_not_invalidate() {
        let trace = vec![r(0, 8, false), r(1, 8, false), r(0, 8, true), r(1, 8, false)];
        let res = simulate(&cfg(Protocol::WriteThroughBroadcast, 256, true, 2), &trace);
        assert_eq!(res.invalidations, 0);
        assert_eq!(res.updates, 1);
        // PE1's second read is a hit thanks to the update.
        assert_eq!(res.read_misses, 2);
    }

    #[test]
    fn hybrid_copies_back_local_data_and_writes_through_global_data() {
        // 10 local writes to one line: with write-allocate the block is
        // fetched once and everything else stays in the cache.
        let local: Vec<_> = (0..10).map(|_| r_local(0, 100, true)).collect();
        let res_local = simulate(&cfg(Protocol::Hybrid, 256, true, 1), &local);
        assert_eq!(res_local.bus_words, 4);

        // 10 global writes are all written through.
        let global: Vec<_> = (0..10).map(|_| r(0, 100, true)).collect();
        let res_global = simulate(&cfg(Protocol::Hybrid, 256, true, 1), &global);
        assert_eq!(res_global.write_through_words, 10);
    }

    #[test]
    fn hybrid_traffic_sits_between_broadcast_and_write_through() {
        // A mixed synthetic trace: mostly local writes, some shared reads
        // and global writes across 2 PEs.
        let mut trace = Vec::new();
        for i in 0..2000u32 {
            let pe = (i % 2) as u8;
            let base = 1000 + (pe as u32) * 4096;
            trace.push(r_local(pe, base + (i % 64), true));
            trace.push(r(pe, 200 + (i % 32), false));
            if i % 10 == 0 {
                trace.push(r(pe, 200 + (i % 32), true));
            }
        }
        let broadcast = simulate(&cfg(Protocol::WriteInBroadcast, 512, true, 2), &trace).traffic_ratio();
        let hybrid = simulate(&cfg(Protocol::Hybrid, 512, true, 2), &trace).traffic_ratio();
        let wthru = simulate(&cfg(Protocol::WriteThrough, 512, true, 2), &trace).traffic_ratio();
        assert!(broadcast <= hybrid + 1e-9, "broadcast {broadcast} should not exceed hybrid {hybrid}");
        assert!(hybrid <= wthru + 1e-9, "hybrid {hybrid} should not exceed write-through {wthru}");
        assert!(wthru > broadcast, "write-through must generate more traffic than broadcast");
    }

    #[test]
    fn no_write_allocate_skips_the_fetch_on_write_miss() {
        let trace = vec![r(0, 8, true), r(0, 8, false)];
        let nwa = simulate(&cfg(Protocol::WriteInBroadcast, 256, false, 1), &trace);
        let wa = simulate(&cfg(Protocol::WriteInBroadcast, 256, true, 1), &trace);
        // nwa: 1 word write-through + 4 word fetch on the read.
        assert_eq!(nwa.bus_words, 5);
        // wa: 4 word fetch on the write, read hits.
        assert_eq!(wa.bus_words, 4);
    }

    #[test]
    fn single_writer_invariant_holds_on_a_random_trace() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for protocol in [Protocol::WriteInBroadcast, Protocol::WriteThrough] {
            let mut sim = MultiCacheSim::new(cfg(protocol, 64, true, 4), 64);
            for _ in 0..5000 {
                let pe = rng.random_range(0..4u8);
                let line = rng.random_range(0..64u32);
                let write = rng.random_bool(0.3);
                sim.access(pe as usize, line, write, Locality::Global);
                sim.check_single_writer();
            }
        }
    }

    #[test]
    fn holder_masks_match_residency_on_random_traces() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(43);
        // 70 PEs take a second mask word per line, and PEs 64-69 live in it.
        for pes in [1, 2, 4, 8, 70] {
            for protocol in Protocol::ALL {
                for write_allocate in [false, true] {
                    // 16-line caches over 48 line numbers: evictions, sharing
                    // and invalidations all happen.
                    let mut sim = MultiCacheSim::new(cfg(protocol, 64, write_allocate, pes), 48);
                    for _ in 0..3000 {
                        let pe = rng.random_range(0..pes);
                        let line = rng.random_range(0..48u32);
                        let locality = if rng.random_bool(0.5) { Locality::Global } else { Locality::Local };
                        sim.access(pe, line, rng.random_bool(0.3), locality);
                        sim.check_holders();
                    }
                }
            }
        }
    }

    #[test]
    fn lines_are_numbered_densely_in_order_of_first_use() {
        let numbers = |trace: &[MemRef], line_words| {
            let stream = Stream::of(trace, line_words);
            let chunks: Vec<_> = stream.chunks().collect();
            let lines = chunks.iter().flat_map(|c| c.refs.iter().map(|r| r.line)).collect::<Vec<_>>();
            (lines, chunks.last().map_or(0, |c| c.lines))
        };
        let addrs = [400, 3, 401, 0, 7, 403, u32::MAX, 2, u32::MAX - 3, 404, u32::MAX - 1];
        let trace: Vec<_> = addrs.iter().map(|&a| r(0, a, false)).collect();

        // Four-word lines: 100, 0, 100, 0, 1, 100, max/4, 0, max/4, 101, max/4.
        let (lines, count) = numbers(&trace, 4);
        assert_eq!(lines, [0, 1, 0, 1, 2, 0, 3, 1, 3, 4, 3]);
        assert_eq!(count, 5);

        // One-word lines are the addresses, up to `u32::MAX`: every address
        // gets its own number, below the count.
        let (lines, count) = numbers(&trace, 1);
        assert_eq!(lines, (0..addrs.len() as u32).collect::<Vec<_>>());
        assert_eq!(count, addrs.len() as u32);
        let top: Vec<_> = (0..4).map(|k| r(0, u32::MAX - k, true)).collect();
        let (lines, count) = numbers(&[top.clone(), top].concat(), 1);
        assert_eq!(lines, [0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(count, 4);

        assert_eq!(numbers(&[], 4), (vec![], 0));
    }

    #[test]
    fn traffic_decreases_with_cache_size() {
        // A trace with temporal locality: a sliding working set re-reads
        // recent addresses much more often than old ones.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut trace = Vec::new();
        for i in 0..30_000u32 {
            let base = i / 20; // slowly advancing frontier
            let back = rng.random_range(0..200u32).min(base);
            trace.push(r(0, (base - back) * 2, rng.random_bool(0.25)));
        }
        let mut ratios = Vec::new();
        for size in [64u32, 256, 1024, 4096] {
            let res = simulate(&cfg(Protocol::WriteInBroadcast, size, size >= 512, 1), &trace);
            ratios.push(res.traffic_ratio());
        }
        // Small wobbles are possible; the overall trend must be decreasing
        // and a big cache must capture far more than a tiny one.
        for pair in ratios.windows(2) {
            assert!(pair[1] <= pair[0] + 0.05, "traffic ratios not roughly decreasing: {ratios:?}");
        }
        assert!(
            ratios[3] < ratios[0] * 0.6,
            "a 4096-word cache should capture much more than a 64-word one: {ratios:?}"
        );
    }
}
