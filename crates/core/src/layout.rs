//! Storage areas and the global address-space layout.
//!
//! The RAP-WAM is a collection of workers, each owning a *Stack Set* made of
//! a Heap, a Local (environment) stack, a Control stack (choice points and
//! Markers), a Trail, a unification PDL, a Goal Stack and a Message Buffer —
//! exactly the object/area inventory of Table 1 of the paper.  All areas of
//! all workers live in one global word-addressed space so that a reference
//! trace can be fed directly to the multiprocessor cache simulator.

use serde::{Deserialize, Serialize};

/// A storage area of a worker's Stack Set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Area {
    Heap,
    LocalStack,
    ControlStack,
    Trail,
    Pdl,
    GoalStack,
    MessageBuffer,
}

impl Area {
    /// All areas, in layout order.
    pub const ALL: [Area; 7] = [
        Area::Heap,
        Area::LocalStack,
        Area::ControlStack,
        Area::Trail,
        Area::Pdl,
        Area::GoalStack,
        Area::MessageBuffer,
    ];

    /// Stable index (used by statistics tables).
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            Area::Heap => 0,
            Area::LocalStack => 1,
            Area::ControlStack => 2,
            Area::Trail => 3,
            Area::Pdl => 4,
            Area::GoalStack => 5,
            Area::MessageBuffer => 6,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Area::Heap => "heap",
            Area::LocalStack => "local stack",
            Area::ControlStack => "control stack",
            Area::Trail => "trail",
            Area::Pdl => "pdl",
            Area::GoalStack => "goal stack",
            Area::MessageBuffer => "message buffer",
        }
    }
}

/// The kind of object being referenced, following Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectKind {
    /// Environment control words (continuation environment / code pointer).
    EnvControl,
    /// Environment permanent-variable slots.
    EnvPermVar,
    /// Choice point words.
    ChoicePoint,
    /// Heap terms (structures, lists, variables, constants).
    HeapTerm,
    /// Trail entries.
    TrailEntry,
    /// PDL (unification stack) entries.
    PdlEntry,
    /// Parcall Frame, local portion (status, parent id, chaining).
    ParcallLocal,
    /// Parcall Frame, global portion (per-goal slots).
    ParcallGlobal,
    /// Parcall Frame counters (scheduling / completion counts) — locked.
    ParcallCount,
    /// Markers delimiting stack sections.
    Marker,
    /// Goal Frames on the Goal Stack — locked.
    GoalFrame,
    /// Messages in the Message Buffer — locked.
    Message,
}

impl ObjectKind {
    /// Locality classification from Table 1: is the object only ever touched
    /// by its owning PE (`Local`) or potentially shared (`Global`)?
    pub fn locality(self) -> Locality {
        match self {
            ObjectKind::EnvControl
            | ObjectKind::ChoicePoint
            | ObjectKind::TrailEntry
            | ObjectKind::PdlEntry
            | ObjectKind::ParcallLocal
            | ObjectKind::Marker => Locality::Local,
            ObjectKind::EnvPermVar
            | ObjectKind::HeapTerm
            | ObjectKind::ParcallGlobal
            | ObjectKind::ParcallCount
            | ObjectKind::GoalFrame
            | ObjectKind::Message => Locality::Global,
        }
    }

    /// Whether accesses to this object require a lock (Table 1).
    pub fn locked(self) -> bool {
        matches!(self, ObjectKind::ParcallCount | ObjectKind::GoalFrame | ObjectKind::Message)
    }

    /// Whether the object exists in the plain sequential WAM (Table 1).
    pub fn in_wam(self) -> bool {
        matches!(
            self,
            ObjectKind::EnvControl
                | ObjectKind::EnvPermVar
                | ObjectKind::ChoicePoint
                | ObjectKind::HeapTerm
                | ObjectKind::TrailEntry
                | ObjectKind::PdlEntry
        )
    }

    /// Human-readable name matching the paper's Table 1 rows.
    pub fn name(self) -> &'static str {
        match self {
            ObjectKind::EnvControl => "Envts./control",
            ObjectKind::EnvPermVar => "Envts./P. Vars.",
            ObjectKind::ChoicePoint => "Choice points",
            ObjectKind::HeapTerm => "Heap",
            ObjectKind::TrailEntry => "Trail entries",
            ObjectKind::PdlEntry => "PDL entries",
            ObjectKind::ParcallLocal => "Parcall F./Local",
            ObjectKind::ParcallGlobal => "Parcall F./Global",
            ObjectKind::ParcallCount => "Parcall F./Counts",
            ObjectKind::Marker => "Markers",
            ObjectKind::GoalFrame => "Goal Frames",
            ObjectKind::Message => "Messages",
        }
    }

    /// Stable index into Table 1 order (the position of `self` in
    /// [`ObjectKind::ALL`]).  The discriminant *is* the table position, so
    /// statistics tables index in O(1) instead of scanning `ALL`.
    #[inline(always)]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// All object kinds, in Table 1 order.
    pub const ALL: [ObjectKind; 12] = [
        ObjectKind::EnvControl,
        ObjectKind::EnvPermVar,
        ObjectKind::ChoicePoint,
        ObjectKind::HeapTerm,
        ObjectKind::TrailEntry,
        ObjectKind::PdlEntry,
        ObjectKind::ParcallLocal,
        ObjectKind::ParcallGlobal,
        ObjectKind::ParcallCount,
        ObjectKind::Marker,
        ObjectKind::GoalFrame,
        ObjectKind::Message,
    ];

    /// The storage area this object lives in (Table 1's "area" column).
    #[inline]
    pub fn area(self) -> Area {
        match self {
            ObjectKind::EnvControl | ObjectKind::EnvPermVar => Area::LocalStack,
            ObjectKind::ChoicePoint | ObjectKind::Marker => Area::ControlStack,
            ObjectKind::HeapTerm => Area::Heap,
            ObjectKind::TrailEntry => Area::Trail,
            ObjectKind::PdlEntry => Area::Pdl,
            ObjectKind::ParcallLocal | ObjectKind::ParcallGlobal | ObjectKind::ParcallCount => {
                Area::LocalStack
            }
            ObjectKind::GoalFrame => Area::GoalStack,
            ObjectKind::Message => Area::MessageBuffer,
        }
    }
}

/// Sharing classification of a reference (Table 1's "locality" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Locality {
    /// Only the owning PE touches the object.
    Local,
    /// The object may be read or written by other PEs.
    Global,
}

/// Sizes (in words) of each area of one worker's Stack Set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryConfig {
    pub heap_words: u32,
    pub local_words: u32,
    pub control_words: u32,
    pub trail_words: u32,
    pub pdl_words: u32,
    pub goal_stack_words: u32,
    pub message_words: u32,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            heap_words: 1 << 20,
            local_words: 1 << 18,
            control_words: 1 << 18,
            trail_words: 1 << 16,
            pdl_words: 1 << 13,
            goal_stack_words: 1 << 13,
            message_words: 1 << 10,
        }
    }
}

impl MemoryConfig {
    /// A small configuration for unit tests.
    pub fn small() -> Self {
        MemoryConfig {
            heap_words: 1 << 14,
            local_words: 1 << 12,
            control_words: 1 << 12,
            trail_words: 1 << 10,
            pdl_words: 1 << 8,
            goal_stack_words: 1 << 8,
            message_words: 1 << 6,
        }
    }

    /// Total words per worker Stack Set.
    pub fn stack_set_words(&self) -> u32 {
        self.heap_words
            + self.local_words
            + self.control_words
            + self.trail_words
            + self.pdl_words
            + self.goal_stack_words
            + self.message_words
    }

    /// Offset of an area within a Stack Set.
    pub(crate) fn area_offset(&self, area: Area) -> u32 {
        match area {
            Area::Heap => 0,
            Area::LocalStack => self.heap_words,
            Area::ControlStack => self.heap_words + self.local_words,
            Area::Trail => self.heap_words + self.local_words + self.control_words,
            Area::Pdl => self.heap_words + self.local_words + self.control_words + self.trail_words,
            Area::GoalStack => {
                self.heap_words + self.local_words + self.control_words + self.trail_words + self.pdl_words
            }
            Area::MessageBuffer => {
                self.heap_words
                    + self.local_words
                    + self.control_words
                    + self.trail_words
                    + self.pdl_words
                    + self.goal_stack_words
            }
        }
    }

    /// Size of an area in words.
    pub(crate) fn area_size(&self, area: Area) -> u32 {
        match area {
            Area::Heap => self.heap_words,
            Area::LocalStack => self.local_words,
            Area::ControlStack => self.control_words,
            Area::Trail => self.trail_words,
            Area::Pdl => self.pdl_words,
            Area::GoalStack => self.goal_stack_words,
            Area::MessageBuffer => self.message_words,
        }
    }
}

/// Maps global word addresses to (worker, area) and back.
#[derive(Debug, Clone)]
pub(crate) struct AddressMap {
    pub(crate) config: MemoryConfig,
    pub(crate) num_workers: usize,
    /// Cached `config.stack_set_words()`: `owner`/`area_of` sit on the
    /// memory-access path, and recomputing the six-term sum per call costs
    /// more than the division it feeds.
    set_words: u32,
}

impl AddressMap {
    pub(crate) fn new(config: MemoryConfig, num_workers: usize) -> Self {
        let set_words = config.stack_set_words();
        AddressMap { config, num_workers, set_words }
    }

    /// One past the last word of the last Stack Set: the end of the address
    /// space.
    pub(crate) fn stack_sets_end(&self) -> u32 {
        self.set_words * self.num_workers as u32
    }

    /// Base address of `area` in the Stack Set of `worker`.
    pub(crate) fn area_base(&self, worker: usize, area: Area) -> u32 {
        debug_assert!(worker < self.num_workers);
        worker as u32 * self.set_words + self.config.area_offset(area)
    }

    /// One-past-the-end address of `area` in the Stack Set of `worker`.
    pub(crate) fn area_end(&self, worker: usize, area: Area) -> u32 {
        self.area_base(worker, area) + self.config.area_size(area)
    }

    /// Which worker owns a global address (must lie inside a Stack Set).
    #[inline(always)]
    pub(crate) fn owner(&self, addr: u32) -> usize {
        debug_assert!(addr < self.stack_sets_end(), "address {addr} lies past the last Stack Set");
        (addr / self.set_words) as usize
    }

    /// Which area a global address belongs to.
    pub(crate) fn area_of(&self, addr: u32) -> Area {
        let within = addr % self.set_words;
        // Walk the areas in layout order; there are only seven.
        for area in Area::ALL {
            let start = self.config.area_offset(area);
            if within >= start && within < start + self.config.area_size(area) {
                return area;
            }
        }
        unreachable!("address {addr} not within any area");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn areas_cover_the_stack_set_exactly() {
        let c = MemoryConfig::default();
        let sum: u32 = Area::ALL.iter().map(|&a| c.area_size(a)).sum();
        assert_eq!(sum, c.stack_set_words());
        // offsets are increasing and contiguous
        let mut expected = 0;
        for a in Area::ALL {
            assert_eq!(c.area_offset(a), expected);
            expected += c.area_size(a);
        }
    }

    #[test]
    fn address_round_trips_between_workers_and_areas() {
        let map = AddressMap::new(MemoryConfig::small(), 4);
        for w in 0..4 {
            for area in Area::ALL {
                let base = map.area_base(w, area);
                let end = map.area_end(w, area);
                assert_eq!(map.owner(base), w);
                assert_eq!(map.area_of(base), area);
                assert_eq!(map.area_of(end - 1), area);
            }
        }
    }

    #[test]
    fn table1_locality_matches_the_paper() {
        use ObjectKind::*;
        assert_eq!(EnvControl.locality(), Locality::Local);
        assert_eq!(EnvPermVar.locality(), Locality::Global);
        assert_eq!(ChoicePoint.locality(), Locality::Local);
        assert_eq!(HeapTerm.locality(), Locality::Global);
        assert_eq!(TrailEntry.locality(), Locality::Local);
        assert_eq!(PdlEntry.locality(), Locality::Local);
        assert_eq!(ParcallLocal.locality(), Locality::Local);
        assert_eq!(ParcallGlobal.locality(), Locality::Global);
        assert_eq!(ParcallCount.locality(), Locality::Global);
        assert_eq!(Marker.locality(), Locality::Local);
        assert_eq!(GoalFrame.locality(), Locality::Global);
        assert_eq!(Message.locality(), Locality::Global);
    }

    #[test]
    fn table1_locks_match_the_paper() {
        use ObjectKind::*;
        let locked: Vec<_> = ObjectKind::ALL.iter().filter(|o| o.locked()).collect();
        assert_eq!(locked, vec![&ParcallCount, &GoalFrame, &Message]);
    }

    #[test]
    fn table1_wam_column_matches_the_paper() {
        use ObjectKind::*;
        for o in [EnvControl, EnvPermVar, ChoicePoint, HeapTerm, TrailEntry, PdlEntry] {
            assert!(o.in_wam());
        }
        for o in [ParcallLocal, ParcallGlobal, ParcallCount, Marker, GoalFrame, Message] {
            assert!(!o.in_wam());
        }
    }

    #[test]
    fn object_index_is_the_table1_position() {
        for (i, o) in ObjectKind::ALL.iter().enumerate() {
            assert_eq!(o.index(), i);
        }
    }

    #[test]
    fn total_words_scales_with_workers() {
        let map1 = AddressMap::new(MemoryConfig::small(), 1);
        let map8 = AddressMap::new(MemoryConfig::small(), 8);
        // The address space is Stack Sets, one per worker.
        assert_eq!(map8.stack_sets_end(), 8 * map1.stack_sets_end());
    }

    #[test]
    fn every_area_ends_at_or_below_the_stack_sets_end() {
        let map = AddressMap::new(MemoryConfig::small(), 3);
        for w in 0..3 {
            for area in Area::ALL {
                assert!(map.area_end(w, area) <= map.stack_sets_end());
            }
        }
    }
}
