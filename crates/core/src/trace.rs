//! Memory-reference trace records and per-area accounting.
//!
//! The paper's methodology marks every data reference with the issuing PE, a
//! tag describing the storage area and object, and a read/write flag; the
//! trace is then fed to the multiprocessor cache simulator.  [`MemRef`] is
//! exactly that record.

use crate::layout::{Area, Locality, ObjectKind};
use serde::{Deserialize, Serialize};

/// One data memory reference: the issuing PE, the word address, read or
/// write, and the Table 1 row of the object referenced.  The area, locality
/// and lock tags are functions of that row, so the record stores only the
/// row and derives the three tags on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRef {
    /// Global word address.
    pub addr: u32,
    /// Issuing processing element (worker id).
    pub pe: u8,
    /// Object kind (Table 1 row).
    pub object: ObjectKind,
    /// True for writes.
    pub write: bool,
}

const _: () = assert!(std::mem::size_of::<MemRef>() == 8);

impl MemRef {
    /// The record of PE `pe`'s reference to the `object` word at `addr`.
    #[inline(always)]
    pub(crate) fn new(pe: u8, addr: u32, write: bool, object: ObjectKind) -> Self {
        MemRef { addr, pe, object, write }
    }

    /// Storage area of the address.
    #[inline]
    pub fn area(&self) -> Area {
        self.object.area()
    }

    /// Locality tag (drives the hybrid cache protocol).
    #[inline]
    pub fn locality(&self) -> Locality {
        self.object.locality()
    }

    /// Whether the access is performed under a lock.
    #[inline]
    pub fn locked(&self) -> bool {
        self.object.locked()
    }
}

/// The golden suites' fingerprint of a trace: FNV-1a over every field of
/// every reference, in trace order.  The field order and encodings are
/// frozen — the recorded goldens are values of this function.
pub fn fingerprint(trace: &[MemRef]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for r in trace {
        mix(r.pe);
        for b in r.addr.to_le_bytes() {
            mix(b);
        }
        mix(r.write as u8);
        mix(r.area().index() as u8);
        mix(r.object.index() as u8);
        mix(matches!(r.locality(), Locality::Global) as u8);
        mix(r.locked() as u8);
    }
    h
}

/// Read/write counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RwCount {
    pub reads: u64,
    pub writes: u64,
}

impl RwCount {
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
    #[cfg(test)]
    fn add(&mut self, write: bool) {
        if write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
    }
}

/// Aggregate counters over a reference stream.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AreaStats {
    /// Total references.
    pub total: RwCount,
    /// Per storage area.
    pub per_area: [RwCount; 7],
    /// Per object kind (Table 1 order).
    pub per_object: [RwCount; 12],
    /// References to Global-tagged objects.
    pub global_refs: u64,
    /// References to Local-tagged objects.
    pub local_refs: u64,
    /// References performed under a lock.
    pub locked_refs: u64,
    /// Per-PE reference counts.
    pub per_pe: Vec<RwCount>,
}

impl AreaStats {
    pub(crate) fn new(num_workers: usize) -> Self {
        AreaStats { per_pe: vec![RwCount::default(); num_workers], ..Default::default() }
    }

    /// Record one reference.
    #[cfg(test)]
    pub(crate) fn record(&mut self, r: &MemRef) {
        self.total.add(r.write);
        self.per_area[r.area().index()].add(r.write);
        self.per_object[r.object.index()].add(r.write);
        match r.locality() {
            Locality::Global => self.global_refs += 1,
            Locality::Local => self.local_refs += 1,
        }
        if r.locked() {
            self.locked_refs += 1;
        }
        if let Some(pe) = self.per_pe.get_mut(r.pe as usize) {
            pe.add(r.write);
        }
    }

    /// Add the references PE `pe` counted ([`RefCounts`]) to these counters.
    /// `counts[object.index()]` is `[reads, writes]`; area, locality and lock
    /// tags are derived from the object kind exactly as [`AreaStats::record`]
    /// derives them per reference, so the totals are identical to having
    /// recorded each access individually.
    pub(crate) fn bulk_record(&mut self, pe: u8, counts: &[[u64; 2]; 12]) {
        for (oi, &[reads, writes]) in counts.iter().enumerate() {
            let t = reads + writes;
            if t == 0 {
                continue;
            }
            let o = ObjectKind::ALL[oi];
            self.total.reads += reads;
            self.total.writes += writes;
            let ai = o.area().index();
            self.per_area[ai].reads += reads;
            self.per_area[ai].writes += writes;
            self.per_object[oi].reads += reads;
            self.per_object[oi].writes += writes;
            match o.locality() {
                Locality::Global => self.global_refs += t,
                Locality::Local => self.local_refs += t,
            }
            if o.locked() {
                self.locked_refs += t;
            }
            if let Some(pe) = self.per_pe.get_mut(pe as usize) {
                pe.reads += reads;
                pe.writes += writes;
            }
        }
    }

    /// Counters for one area.
    pub fn area(&self, a: Area) -> RwCount {
        self.per_area[a.index()]
    }

    /// Counters for one object kind.
    pub fn object(&self, o: ObjectKind) -> RwCount {
        self.per_object[o.index()]
    }

    /// Fraction of references that touch Global-tagged objects.
    pub fn global_fraction(&self) -> f64 {
        let t = self.total.total();
        if t == 0 {
            0.0
        } else {
            self.global_refs as f64 / t as f64
        }
    }
}

/// The references one PE has issued, by object kind: a pure function of
/// (issuing PE, object kind, read/write), all of which the issuer knows, so
/// the PE keeps the table itself and a run's [`AreaStats`] is the sum of its
/// PEs' tables ([`AreaStats::bulk_record`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct RefCounts {
    /// `counts[object.index()]` = `[reads, writes]`.
    pub(crate) counts: [[u64; 2]; 12],
}

impl RefCounts {
    /// Count one access to `object` (a read unless `write`).
    #[inline(always)]
    pub(crate) fn count(&mut self, object: ObjectKind, write: bool) {
        self.counts[object.index()][write as usize] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(pe: u8, write: bool, object: ObjectKind) -> MemRef {
        MemRef::new(pe, 42, write, object)
    }

    #[test]
    fn counters_accumulate() {
        let mut s = AreaStats::new(2);
        s.record(&sample(0, false, ObjectKind::HeapTerm));
        s.record(&sample(0, true, ObjectKind::HeapTerm));
        s.record(&sample(1, true, ObjectKind::GoalFrame));
        assert_eq!(s.total.total(), 3);
        assert_eq!(s.area(Area::Heap).total(), 2);
        assert_eq!(s.area(Area::GoalStack).writes, 1);
        assert_eq!(s.object(ObjectKind::HeapTerm).reads, 1);
        assert_eq!(s.locked_refs, 1);
        assert_eq!(s.per_pe[0].total(), 2);
        assert_eq!(s.per_pe[1].total(), 1);
    }

    #[test]
    fn global_fraction() {
        let mut s = AreaStats::new(1);
        s.record(&sample(0, false, ObjectKind::HeapTerm)); // global
        s.record(&sample(0, false, ObjectKind::TrailEntry)); // local
        assert!((s.global_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_global_fraction() {
        assert_eq!(AreaStats::new(1).global_fraction(), 0.0);
    }

    #[test]
    fn bulk_record_matches_per_reference_recording() {
        // Record a mixed access pattern one reference at a time...
        let mut direct = AreaStats::new(3);
        let mut counted = RefCounts::default();
        let pattern: &[(bool, ObjectKind, u64)] = &[
            (false, ObjectKind::HeapTerm, 7),
            (true, ObjectKind::HeapTerm, 3),
            (false, ObjectKind::EnvControl, 4),
            (true, ObjectKind::TrailEntry, 2),
            (false, ObjectKind::GoalFrame, 5),
            (true, ObjectKind::ParcallCount, 1),
        ];
        for &(write, object, times) in pattern {
            for _ in 0..times {
                direct.record(&sample(2, write, object));
                counted.count(object, write);
            }
        }
        // ...and as one table: every aggregate must be identical.
        let mut bulk = AreaStats::new(3);
        bulk.bulk_record(2, &counted.counts);
        assert_eq!(bulk.total, direct.total);
        assert_eq!(bulk.per_area, direct.per_area);
        assert_eq!(bulk.per_object, direct.per_object);
        assert_eq!(bulk.global_refs, direct.global_refs);
        assert_eq!(bulk.local_refs, direct.local_refs);
        assert_eq!(bulk.locked_refs, direct.locked_refs);
        assert_eq!(bulk.per_pe, direct.per_pe);
    }
}
