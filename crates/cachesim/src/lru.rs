//! A fully associative cache with perfect LRU replacement.
//!
//! The paper models caches "as fully associative memories with perfect LRU
//! replacement"; this module provides exactly that, parameterised by the
//! number of lines.  Each resident line carries a protocol-specific
//! [`LineState`].
//!
//! A cache does not see line addresses: the simulator numbers a trace's
//! lines densely once, in order of first use, and every cache of every
//! configuration swept over that trace is built for that many line numbers.
//! Resident lines sit on a doubly linked recency list threaded through a
//! slot vector (most recently used at the head), and the index from line
//! number to slot is a vector with one entry per line number, `NIL` where
//! the line is not resident — so "is this line here?" is one array read, hit
//! or miss.  A use moves the slot to the head and a full cache evicts the
//! tail, so every operation costs the same whatever the capacity.  This is
//! the replacement a last-use stamp per line and a scan for the smallest
//! would choose: each use would take a fresh stamp, so stamps are distinct
//! within a cache, and the line with the smallest is the one every other
//! resident line has been used after — the tail.

/// "No slot": the end of the recency list or of the free chain, and the
/// index entry of a line that is not resident.
const NIL: u32 = u32::MAX;

/// Coherency state of a resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineState {
    /// Clean, other caches may also hold the line.
    Shared,
    /// Clean, this is the only cached copy.
    Exclusive,
    /// Modified with respect to main memory; must be written back on
    /// eviction (only used by copy-back style protocols).
    Dirty,
}

/// One resident line (or, on the free chain, a vacancy linked by `next`).
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u32,
    state: LineState,
    /// Towards the head (more recently used).
    prev: u32,
    /// Towards the tail (less recently used).
    next: u32,
}

/// One PE's cache.
#[derive(Debug, Clone)]
pub(crate) struct LruCache {
    capacity_lines: u32,
    /// line number -> slot, [`NIL`] if the line is not resident
    index: Vec<u32>,
    /// Number of resident lines.
    resident_count: u32,
    /// Grows to at most `capacity_lines` slots, as lines first arrive.
    slots: Vec<Slot>,
    /// Most recently used resident line.
    head: u32,
    /// Least recently used resident line: the next victim.
    tail: u32,
    /// First vacated slot.
    free: u32,
}

impl LruCache {
    /// A cache of `capacity_lines` lines for line numbers below `lines`.
    pub(crate) fn new(capacity_lines: u32, lines: u32) -> Self {
        LruCache {
            capacity_lines: capacity_lines.max(1),
            index: vec![NIL; lines as usize],
            resident_count: 0,
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    /// The slot of a resident line.
    #[inline]
    fn slot_of(&self, line: u32) -> Option<u32> {
        match self.index[line as usize] {
            NIL => None,
            i => Some(i),
        }
    }

    /// Take slot `i` out of the recency list.
    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Put the unlinked slot `i` at the head of the recency list.
    fn link_at_head(&mut self, i: u32) {
        let old = std::mem::replace(&mut self.head, i);
        let slot = &mut self.slots[i as usize];
        slot.prev = NIL;
        slot.next = old;
        match old {
            NIL => self.tail = i,
            h => self.slots[h as usize].prev = i,
        }
    }

    /// Record a use of slot `i`.
    #[inline]
    fn move_to_head(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.link_at_head(i);
        }
    }

    /// State of a resident line, touching it for LRU purposes.
    pub(crate) fn touch(&mut self, line: u32) -> Option<LineState> {
        let i = self.slot_of(line)?;
        self.move_to_head(i);
        Some(self.slots[i as usize].state)
    }

    /// State of a resident line without touching LRU order.
    pub(crate) fn peek(&self, line: u32) -> Option<LineState> {
        self.slot_of(line).map(|i| self.slots[i as usize].state)
    }

    /// Change the state of a resident line (no LRU effect).  Returns `false`
    /// if the line is not resident.
    pub(crate) fn set_state(&mut self, line: u32, state: LineState) -> bool {
        match self.slot_of(line) {
            Some(i) => {
                self.slots[i as usize].state = state;
                true
            }
            None => false,
        }
    }

    /// Remove a line (invalidation).  Returns its state if it was resident.
    pub(crate) fn invalidate(&mut self, line: u32) -> Option<LineState> {
        let i = self.slot_of(line)?;
        self.index[line as usize] = NIL;
        self.resident_count -= 1;
        self.unlink(i);
        self.slots[i as usize].next = std::mem::replace(&mut self.free, i);
        Some(self.slots[i as usize].state)
    }

    /// Insert a line, evicting the least recently used one if the cache is
    /// full.  Returns the evicted `(line, state)` if an eviction occurred.
    pub(crate) fn insert(&mut self, line: u32, state: LineState) -> Option<(u32, LineState)> {
        if let Some(i) = self.slot_of(line) {
            self.slots[i as usize].state = state;
            self.move_to_head(i);
            return None;
        }
        let fresh = Slot { line, state, prev: NIL, next: NIL };
        let mut evicted = None;
        let i = if self.resident_count >= self.capacity_lines {
            // Perfect LRU: the victim's slot takes the new line.
            let i = self.tail;
            self.unlink(i);
            let victim = std::mem::replace(&mut self.slots[i as usize], fresh);
            self.index[victim.line as usize] = NIL;
            evicted = Some((victim.line, victim.state));
            i
        } else {
            self.resident_count += 1;
            if self.free != NIL {
                let i = self.free;
                self.free = std::mem::replace(&mut self.slots[i as usize], fresh).next;
                i
            } else {
                self.slots.push(fresh);
                (self.slots.len() - 1) as u32
            }
        };
        self.index[line as usize] = i;
        self.link_at_head(i);
        evicted
    }

    /// Iterate over resident lines (for invariant checks in tests).
    #[cfg(test)]
    pub(crate) fn resident(&self) -> impl Iterator<Item = (u32, LineState)> + '_ {
        self.index
            .iter()
            .enumerate()
            .filter(|&(_, &i)| i != NIL)
            .map(|(line, &i)| (line as u32, self.slots[i as usize].state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Line numbers the tests use are below this.
    const LINES: u32 = 160;

    /// The cache as it was before the recency list: every `touch` / `insert`
    /// stamps the line with a fresh tick and a full `insert` scans every
    /// resident line for the smallest stamp.  Kept as the oracle of
    /// `the_cache_agrees_with_the_stamp_and_scan_reference`.
    struct ScanCache {
        capacity_lines: u32,
        /// line number -> (state, last-use stamp)
        lines: HashMap<u32, (LineState, u64)>,
        tick: u64,
    }

    impl ScanCache {
        fn new(capacity_lines: u32) -> Self {
            ScanCache { capacity_lines: capacity_lines.max(1), lines: HashMap::new(), tick: 0 }
        }

        fn touch(&mut self, line: u32) -> Option<LineState> {
            self.tick += 1;
            let tick = self.tick;
            self.lines.get_mut(&line).map(|e| {
                e.1 = tick;
                e.0
            })
        }

        fn peek(&self, line: u32) -> Option<LineState> {
            self.lines.get(&line).map(|e| e.0)
        }

        fn set_state(&mut self, line: u32, state: LineState) -> bool {
            if let Some(e) = self.lines.get_mut(&line) {
                e.0 = state;
                true
            } else {
                false
            }
        }

        fn invalidate(&mut self, line: u32) -> Option<LineState> {
            self.lines.remove(&line).map(|e| e.0)
        }

        fn insert(&mut self, line: u32, state: LineState) -> Option<(u32, LineState)> {
            self.tick += 1;
            let tick = self.tick;
            if let Some(e) = self.lines.get_mut(&line) {
                e.0 = state;
                e.1 = tick;
                return None;
            }
            let mut evicted = None;
            if self.lines.len() as u32 >= self.capacity_lines {
                // Perfect LRU: evict the entry with the smallest stamp.
                if let Some((&victim, &(vstate, _))) = self.lines.iter().min_by_key(|(_, (_, stamp))| *stamp)
                {
                    self.lines.remove(&victim);
                    evicted = Some((victim, vstate));
                }
            }
            self.lines.insert(line, (state, tick));
            evicted
        }

        fn resident(&self) -> Vec<(u32, LineState)> {
            let mut lines: Vec<_> = self.lines.iter().map(|(l, (s, _))| (*l, *s)).collect();
            lines.sort_unstable_by_key(|(l, _)| *l);
            lines
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Touch(u32),
        Peek(u32),
        SetState(u32, LineState),
        Invalidate(u32),
        Insert(u32, LineState),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        let state = || prop::sample::select(vec![LineState::Shared, LineState::Exclusive, LineState::Dirty]);
        // Few enough distinct lines that the small caches thrash and the
        // large one also sees hits, re-inserts and invalidations of residents.
        let line = || 0u32..LINES;
        prop::collection::vec(
            prop_oneof![
                line().prop_map(Op::Touch),
                line().prop_map(Op::Peek),
                (line(), state()).prop_map(|(l, s)| Op::SetState(l, s)),
                line().prop_map(Op::Invalidate),
                (line(), state()).prop_map(|(l, s)| Op::Insert(l, s)),
                (line(), state()).prop_map(|(l, s)| Op::Insert(l, s)),
            ],
            1..600,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn the_cache_agrees_with_the_stamp_and_scan_reference(ops in arb_ops()) {
            for capacity in [1u32, 2, 7, 128] {
                let mut cache = LruCache::new(capacity, LINES);
                let mut reference = ScanCache::new(capacity);
                for (step, op) in ops.iter().enumerate() {
                    match *op {
                        Op::Touch(l) => prop_assert_eq!(cache.touch(l), reference.touch(l)),
                        Op::Peek(l) => prop_assert_eq!(cache.peek(l), reference.peek(l)),
                        Op::SetState(l, s) => prop_assert_eq!(cache.set_state(l, s), reference.set_state(l, s)),
                        Op::Invalidate(l) => prop_assert_eq!(cache.invalidate(l), reference.invalidate(l)),
                        Op::Insert(l, s) => prop_assert_eq!(cache.insert(l, s), reference.insert(l, s)),
                    }
                    let mut resident: Vec<_> = cache.resident().collect();
                    resident.sort_unstable_by_key(|(l, _)| *l);
                    prop_assert_eq!(resident, reference.resident(), "capacity {} after step {} ({:?})", capacity, step, op);
                }
            }
        }
    }

    #[test]
    fn hit_and_miss() {
        let mut c = LruCache::new(2, LINES);
        assert_eq!(c.touch(10), None);
        c.insert(10, LineState::Shared);
        assert_eq!(c.touch(10), Some(LineState::Shared));
        assert_eq!(c.resident().count(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = LruCache::new(2, LINES);
        c.insert(1, LineState::Shared);
        c.insert(2, LineState::Shared);
        c.touch(1); // 2 is now LRU
        let evicted = c.insert(3, LineState::Exclusive);
        assert_eq!(evicted, Some((2, LineState::Shared)));
        assert!(c.peek(1).is_some());
        assert!(c.peek(2).is_none());
        assert!(c.peek(3).is_some());
    }

    #[test]
    fn insert_of_resident_line_updates_state_without_eviction() {
        let mut c = LruCache::new(1, LINES);
        c.insert(5, LineState::Shared);
        let evicted = c.insert(5, LineState::Dirty);
        assert_eq!(evicted, None);
        assert_eq!(c.peek(5), Some(LineState::Dirty));
    }

    #[test]
    fn invalidation_removes_the_line() {
        let mut c = LruCache::new(4, LINES);
        c.insert(9, LineState::Dirty);
        assert_eq!(c.invalidate(9), Some(LineState::Dirty));
        assert_eq!(c.invalidate(9), None);
        assert_eq!(c.resident().count(), 0);
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = LruCache::new(3, LINES);
        for i in 0..100 {
            c.insert(i, LineState::Shared);
            assert!(c.resident().count() <= 3);
        }
    }

    #[test]
    fn set_state_only_affects_resident_lines() {
        let mut c = LruCache::new(2, LINES);
        assert!(!c.set_state(7, LineState::Dirty));
        c.insert(7, LineState::Exclusive);
        assert!(c.set_state(7, LineState::Dirty));
        assert_eq!(c.peek(7), Some(LineState::Dirty));
    }
}
