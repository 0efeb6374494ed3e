//! A fully associative cache with perfect LRU replacement.
//!
//! The paper models caches "as fully associative memories with perfect LRU
//! replacement"; this module provides exactly that, parameterised by the
//! number of lines.  Each resident line carries a protocol-specific
//! [`LineState`].

use std::collections::HashMap;

/// Coherency state of a resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Clean, other caches may also hold the line.
    Shared,
    /// Clean, this is the only cached copy.
    Exclusive,
    /// Modified with respect to main memory; must be written back on
    /// eviction (only used by copy-back style protocols).
    Dirty,
}

/// One PE's cache.
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity_lines: u32,
    /// line address -> (state, last-use stamp)
    lines: HashMap<u32, (LineState, u64)>,
    tick: u64,
}

impl LruCache {
    pub fn new(capacity_lines: u32) -> Self {
        LruCache { capacity_lines: capacity_lines.max(1), lines: HashMap::new(), tick: 0 }
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// State of a resident line, touching it for LRU purposes.
    pub fn touch(&mut self, line: u32) -> Option<LineState> {
        self.tick += 1;
        let tick = self.tick;
        self.lines.get_mut(&line).map(|e| {
            e.1 = tick;
            e.0
        })
    }

    /// State of a resident line without touching LRU order.
    pub fn peek(&self, line: u32) -> Option<LineState> {
        self.lines.get(&line).map(|e| e.0)
    }

    /// Change the state of a resident line (no LRU effect).  Returns `false`
    /// if the line is not resident.
    pub fn set_state(&mut self, line: u32, state: LineState) -> bool {
        if let Some(e) = self.lines.get_mut(&line) {
            e.0 = state;
            true
        } else {
            false
        }
    }

    /// Remove a line (invalidation).  Returns its state if it was resident.
    pub fn invalidate(&mut self, line: u32) -> Option<LineState> {
        self.lines.remove(&line).map(|e| e.0)
    }

    /// Insert a line, evicting the least recently used one if the cache is
    /// full.  Returns the evicted `(line, state)` if an eviction occurred.
    pub fn insert(&mut self, line: u32, state: LineState) -> Option<(u32, LineState)> {
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
            if let Some((&victim, &(vstate, _))) = self.lines.iter().min_by_key(|(_, (_, stamp))| *stamp) {
                self.lines.remove(&victim);
                evicted = Some((victim, vstate));
            }
        }
        self.lines.insert(line, (state, tick));
        evicted
    }

    /// Iterate over resident lines (for invariant checks in tests).
    pub fn resident(&self) -> impl Iterator<Item = (u32, LineState)> + '_ {
        self.lines.iter().map(|(l, (s, _))| (*l, *s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The cache as it was before the recency list: every `touch` / `insert`
    /// stamps the line with a fresh tick and a full `insert` scans every
    /// resident line for the smallest stamp.  Kept as the oracle of
    /// `the_cache_agrees_with_the_stamp_and_scan_reference`.
    struct ScanCache {
        capacity_lines: u32,
        /// line address -> (state, last-use stamp)
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
        let line = || 0u32..160;
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
                let mut cache = LruCache::new(capacity);
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
                    prop_assert_eq!(cache.len(), reference.lines.len());
                    prop_assert_eq!(cache.is_empty(), reference.lines.is_empty());
                }
            }
        }
    }

    #[test]
    fn hit_and_miss() {
        let mut c = LruCache::new(2);
        assert_eq!(c.touch(10), None);
        c.insert(10, LineState::Shared);
        assert_eq!(c.touch(10), Some(LineState::Shared));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = LruCache::new(2);
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
        let mut c = LruCache::new(1);
        c.insert(5, LineState::Shared);
        let evicted = c.insert(5, LineState::Dirty);
        assert_eq!(evicted, None);
        assert_eq!(c.peek(5), Some(LineState::Dirty));
    }

    #[test]
    fn invalidation_removes_the_line() {
        let mut c = LruCache::new(4);
        c.insert(9, LineState::Dirty);
        assert_eq!(c.invalidate(9), Some(LineState::Dirty));
        assert_eq!(c.invalidate(9), None);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = LruCache::new(3);
        for i in 0..100 {
            c.insert(i, LineState::Shared);
            assert!(c.len() <= 3);
        }
    }

    #[test]
    fn set_state_only_affects_resident_lines() {
        let mut c = LruCache::new(2);
        assert!(!c.set_state(7, LineState::Dirty));
        c.insert(7, LineState::Exclusive);
        assert!(c.set_state(7, LineState::Dirty));
        assert_eq!(c.peek(7), Some(LineState::Dirty));
    }
}
