//! Tagged data cells.
//!
//! Every word of the RAP-WAM data areas holds one tagged cell.  The tag set
//! is the classic WAM one (REF/STR/LIS/CON/INT plus functor cells) extended
//! with raw code addresses and unsigned counters used by control frames
//! (environments, choice points, Parcall Frames, Markers, Goal Frames).
//!
//! [`Cell`] is the value the machine computes with (registers, operands,
//! results of a load).  In a data area a cell is *stored* as one 8-byte arena
//! word, a lock-free atomic that [`crate::mem`] encodes and decodes: an `Int`
//! as a 63-bit immediate with the low bit set, every other cell as an even
//! tag, an arity and a 32-bit payload, `Empty` as all zeros.  One cell is one
//! machine word, as in the paper, whose memory-performance experiments count
//! *words*.

use pwam_front::Atom;
use serde::{Deserialize, Serialize};

/// The value stored in one word of a data area.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Cell {
    /// A reference cell.  An *unbound variable* is a `Ref` whose target is
    /// its own address; a bound variable points at another cell.
    Ref(u32),
    /// Pointer to a functor cell ([`Cell::Fun`]) followed by the arguments.
    Str(u32),
    /// Pointer to a cons pair (two consecutive cells: head, tail).
    Lis(u32),
    /// An atomic constant.
    Con(Atom),
    /// An integer constant, in `pwam_front::INT_MIN..=INT_MAX`.
    Int(i64),
    /// A functor cell `f/n`; only ever stored on a heap, pointed to by `Str`.
    Fun(Atom, u8),
    /// A code address (stored in continuation slots, markers, goal frames).
    Code(u32),
    /// A raw unsigned value (frame sizes, counters, PE identifiers, saved
    /// stack tops, trail entries).
    Uint(u32),
    /// An uninitialised word.  Reading one is an engine bug and is reported
    /// as such.
    Empty,
}

/// Sentinel "null address" used for empty register values (no environment,
/// no choice point, no parcall frame).
pub(crate) const NONE_ADDR: u32 = u32::MAX;

impl Cell {
    /// Extract a raw unsigned value, panicking with a clear message if the
    /// cell has the wrong tag (indicates a corrupted control frame).
    #[inline]
    pub(crate) fn expect_uint(self, what: &str) -> u32 {
        match self {
            Cell::Uint(v) => v,
            other => panic!("expected Uint cell for {what}, found {other:?}"),
        }
    }

    /// Extract a code address.
    #[inline]
    pub(crate) fn expect_code(self, what: &str) -> u32 {
        match self {
            Cell::Code(v) => v,
            other => panic!("expected Code cell for {what}, found {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expect_helpers() {
        assert_eq!(Cell::Uint(9).expect_uint("x"), 9);
        assert_eq!(Cell::Code(3).expect_code("x"), 3);
    }

    #[test]
    #[should_panic(expected = "expected Uint")]
    fn expect_uint_panics_on_wrong_tag() {
        let _ = Cell::Int(1).expect_uint("frame word");
    }
}
