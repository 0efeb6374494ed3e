//! Layouts of the control objects stored in the data areas.
//!
//! All offsets are in words relative to the first word of the frame.  The
//! inventory corresponds to Table 1 of the paper: environments and Parcall
//! Frames live on the Local stack, choice points and Markers on the Control
//! stack, Goal Frames on the Goal Stack and messages in the Message Buffer.

/// Environment frame (Local stack).
///
/// ```text
/// E+0  CE   continuation environment (Uint, NONE_ADDR when none)
/// E+1  CP   continuation code pointer (Code)
/// E+2  N    number of permanent variables (Uint)
/// E+3.. Y1..Yn
/// ```
pub(crate) mod env {
    pub(crate) const CE: u32 = 0;
    pub(crate) const CP: u32 = 1;
    pub(crate) const NVARS: u32 = 2;
    pub(crate) const HEADER: u32 = 3;
    /// Address of permanent variable `Yn` (1-based) in the environment at `e`.
    pub(crate) fn y_addr(e: u32, n: u16) -> u32 {
        e + HEADER + (n as u32) - 1
    }
    /// Total size of an environment with `n` permanent variables.
    pub(crate) fn size(n: u32) -> u32 {
        HEADER + n
    }
}

/// Choice point frame (Control stack).
///
/// ```text
/// B+0        n_args
/// B+1..B+n   saved argument registers A1..An
/// B+n+1      saved E
/// B+n+2      saved CP
/// B+n+3      previous B
/// B+n+4      BP (code address of the next alternative)
/// B+n+5      saved TR
/// B+n+6      saved H
/// B+n+7      saved PF
/// B+n+8      saved local-stack top
/// B+n+9      saved B0 (cut barrier)
/// ```
pub(crate) mod choice {
    pub(crate) const NARGS: u32 = 0;
    pub(crate) const FIXED: u32 = 10;
    pub(crate) fn arg(b: u32, i: u32) -> u32 {
        b + 1 + i
    }
    pub(crate) fn saved_e(b: u32, n: u32) -> u32 {
        b + n + 1
    }
    pub(crate) fn saved_cp(b: u32, n: u32) -> u32 {
        b + n + 2
    }
    pub(crate) fn prev_b(b: u32, n: u32) -> u32 {
        b + n + 3
    }
    pub(crate) fn next_clause(b: u32, n: u32) -> u32 {
        b + n + 4
    }
    pub(crate) fn saved_tr(b: u32, n: u32) -> u32 {
        b + n + 5
    }
    pub(crate) fn saved_h(b: u32, n: u32) -> u32 {
        b + n + 6
    }
    pub(crate) fn saved_pf(b: u32, n: u32) -> u32 {
        b + n + 7
    }
    pub(crate) fn saved_local_top(b: u32, n: u32) -> u32 {
        b + n + 8
    }
    pub(crate) fn saved_b0(b: u32, n: u32) -> u32 {
        b + n + 9
    }
    pub(crate) fn size(n: u32) -> u32 {
        n + FIXED
    }
}

/// Marker frame (Control stack) — delimits the Stack Section created by the
/// execution of one parallel goal, and records enough state to recover
/// storage if the goal fails.
///
/// ```text
/// M+0  kind (1 = goal input marker)
/// M+1  Parcall Frame address
/// M+2  slot index within the Parcall Frame
/// M+3  B at goal entry
/// M+4  TR at goal entry
/// M+5  H at goal entry
/// M+6  local-stack top at goal entry
/// M+7  E at goal entry
/// ```
pub(crate) mod marker {
    pub(crate) const KIND: u32 = 0;
    pub(crate) const PF: u32 = 1;
    pub(crate) const SLOT: u32 = 2;
    pub(crate) const ENTRY_B: u32 = 3;
    pub(crate) const ENTRY_TR: u32 = 4;
    pub(crate) const ENTRY_H: u32 = 5;
    pub(crate) const ENTRY_LOCAL_TOP: u32 = 6;
    pub(crate) const ENTRY_E: u32 = 7;
    pub(crate) const SIZE: u32 = 8;
    pub(crate) const KIND_GOAL: u32 = 1;
}

/// Parcall Frame (Local stack).
///
/// `N` counts the goals *scheduled through the Goal Stack*: with the
/// last-goal-inline optimisation the parent executes the leftmost CGE branch
/// itself, without a Goal Frame or a slot, so a CGE of `k` branches
/// allocates a frame with `N = k - 1`.
///
/// ```text
/// PF+0       number of scheduled parallel goals N
/// PF+1       goals still to be scheduled        (count, locked)
/// PF+2       goals completed                    (count, locked)
/// PF+3       status (0 = ok, 1 = failed, 2 = cancelled)
/// PF+4       parent PE id
/// PF+5       previous PF
/// PF+6       parent's B at pcall_alloc (the parcall's backtrack point:
///            pcall_wait commits the inline branch to its first solution by
///            restoring it, mirroring the commit of scheduled goals)
/// PF+7+2k    status of goal k (0 pending, 1 taken, 2 done, 3 failed,
///            4 cancelled) — initialised to pending by `pcall_alloc`, so
///            cancellation's slot scan never reads a stale reused word
/// PF+8+2k    PE executing goal k (written lazily by the thief, before it
///            sets the status to taken; read only behind a taken status)
/// ```
pub(crate) mod parcall {
    pub(crate) const NGOALS: u32 = 0;
    pub(crate) const TO_SCHEDULE: u32 = 1;
    pub(crate) const COMPLETED: u32 = 2;
    pub(crate) const STATUS: u32 = 3;
    pub(crate) const PARENT_PE: u32 = 4;
    pub(crate) const PREV_PF: u32 = 5;
    pub(crate) const ENTRY_B: u32 = 6;
    pub(crate) const HEADER: u32 = 7;
    pub(crate) const STATUS_OK: u32 = 0;
    pub(crate) const STATUS_FAILED: u32 = 1;
    /// Backward execution has begun on this frame: un-stolen Goal Frames are
    /// retracted and in-flight ones drain through the completion protocol.
    /// Ordered above `STATUS_FAILED` so status updates can use a
    /// `max`-merge: a failing in-flight goal never downgrades a cancelled
    /// frame back to merely failed.
    pub(crate) const STATUS_CANCELLED: u32 = 2;
    pub(crate) const SLOT_PENDING: u32 = 0;
    pub(crate) const SLOT_TAKEN: u32 = 1;
    pub(crate) const SLOT_DONE: u32 = 2;
    pub(crate) const SLOT_FAILED: u32 = 3;
    /// The goal was retracted un-executed (or aborted mid-flight) by
    /// parcall cancellation.
    pub(crate) const SLOT_CANCELLED: u32 = 4;
    pub(crate) fn slot_status(pf: u32, k: u32) -> u32 {
        pf + HEADER + 2 * k
    }
    pub(crate) fn slot_pe(pf: u32, k: u32) -> u32 {
        pf + HEADER + 2 * k + 1
    }
    pub(crate) fn size(n: u32) -> u32 {
        HEADER + 2 * n
    }
}

/// Goal Frame (Goal Stack).
///
/// ```text
/// G+0        entry point of the goal's predicate (Code)
/// G+1        arity
/// G+2        Parcall Frame address
/// G+3        slot index
/// G+4+i      argument cells
/// ```
pub(crate) mod goal_frame {
    pub(crate) const CODE: u32 = 0;
    pub(crate) const ARITY: u32 = 1;
    pub(crate) const PF: u32 = 2;
    pub(crate) const SLOT: u32 = 3;
    pub(crate) const HEADER: u32 = 4;
    pub(crate) fn arg(g: u32, i: u32) -> u32 {
        g + HEADER + i
    }
    pub(crate) fn size(arity: u32) -> u32 {
        HEADER + arity
    }
}

/// Completion / failure message (Message Buffer).
///
/// ```text
/// +0  kind (1 = goal completed, 2 = goal failed, 3 = goal cancelled)
/// +1  Parcall Frame address
/// +2  slot index
/// ```
pub(crate) mod message {
    pub(crate) const KIND: u32 = 0;
    pub(crate) const PF: u32 = 1;
    pub(crate) const SLOT: u32 = 2;
    pub(crate) const SIZE: u32 = 3;
    pub(crate) const KIND_DONE: u32 = 1;
    pub(crate) const KIND_FAILED: u32 = 2;
    /// The goal was aborted by a `cancel_goal` request from the parent's
    /// backward execution; it still commits through the normal protocol.
    pub(crate) const KIND_CANCELLED: u32 = 3;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_layout() {
        assert_eq!(env::size(0), 3);
        assert_eq!(env::size(4), 7);
        assert_eq!(env::y_addr(100, 1), 103);
        assert_eq!(env::y_addr(100, 3), 105);
    }

    #[test]
    fn choice_point_layout() {
        // with 2 arguments the frame is 12 words
        assert_eq!(choice::size(2), 12);
        assert_eq!(choice::arg(50, 0), 51);
        assert_eq!(choice::saved_e(50, 2), 53);
        assert_eq!(choice::saved_local_top(50, 2), 60);
        assert_eq!(choice::saved_b0(50, 2), 61);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn parcall_layout() {
        assert_eq!(parcall::size(2), 11);
        assert_eq!(parcall::slot_status(200, 0), 207);
        assert_eq!(parcall::slot_pe(200, 1), 210);
        // Status merge order: cancellation must dominate plain failure.
        assert!(parcall::STATUS_CANCELLED > parcall::STATUS_FAILED);
        assert!(parcall::STATUS_FAILED > parcall::STATUS_OK);
    }

    #[test]
    fn goal_frame_layout() {
        assert_eq!(goal_frame::size(3), 7);
        assert_eq!(goal_frame::arg(10, 2), 16);
    }

    #[test]
    fn marker_and_message_sizes() {
        assert_eq!(marker::SIZE, 8);
        assert_eq!(message::SIZE, 3);
    }
}
