//! Test-only model checking: an exhaustive interleaver over small state
//! machines, and the Goal-Stack steal pop, its unlocked Goal-Frame count, the
//! Parcall counters, the completion commit and the remote reset mark written
//! as such.  (An arena word is one atomic and has no protocol of its own to
//! model.)
//!
//! A model is not the code itself: each step below is one atomic action of
//! the real protocol, in the order the real code issues it, and
//! [`interleave`] runs every schedule of the model threads' steps.  Schedules
//! are sequentially consistent, so what a model checks is the *step order*;
//! the locks' release/acquire (and, for the arena words in [`crate::mem`],
//! the Release store / Acquire load / `AcqRel` compare-exchange of the word)
//! are what make other threads observe that order on real hardware.

use crate::cell::Cell;
use crate::mem::{decode, encode};

/// One atomic step of a model thread over shared state `S`; `false` means
/// "blocked, try another thread" and must leave `S` untouched.
pub(crate) type ModelStep<S> = fn(&mut S) -> bool;

/// Depth-first over every interleaving of `threads`, calling `check` on each
/// final state.  Returns the number of complete schedules.
pub(crate) fn interleave<S: Clone>(
    state: &S,
    threads: &[&[ModelStep<S>]],
    pcs: &mut [usize],
    check: &mut dyn FnMut(&S),
) -> usize {
    let (mut schedules, mut live) = (0, false);
    for t in 0..threads.len() {
        let Some(step) = threads[t].get(pcs[t]) else { continue };
        live = true;
        let mut next = state.clone();
        if step(&mut next) {
            pcs[t] += 1;
            schedules += interleave(&next, threads, pcs, check);
            pcs[t] -= 1;
        }
    }
    if !live {
        check(state);
        return 1;
    }
    assert!(schedules > 0, "deadlock: every unfinished model thread is blocked");
    schedules
}

// ---------------------------------------------------------------------
// The steal pop
// ---------------------------------------------------------------------
//
// `Step::pcall_goal` pushes a Goal Frame and `Step::try_dispatch_work` pops
// one — the owner from its own board, a thief from a victim's — and both
// hold the board's lock from the first word they touch to the last: the
// push across the top read, the word writes and the `goal_frames` push; the
// pop across the `goal_frames` pop, the `steal_notices` bump (thieves only)
// and the read of the frame's words.  The Goal Stack reuses a popped frame's
// storage at once, which is why the image is read before the lock drops.

/// Owner and thief: lock holders, takers, and indices of their registers.
const OWNER: usize = 0;
const THIEF: usize = 1;

/// One PE's board and Goal Stack, with the registers of the two PEs that
/// work on it.  A frame is two words, both holding the frame's id, so a torn
/// image shows.
#[derive(Clone, Default)]
struct ModelBoard {
    /// Who holds the board lock.
    lock: Option<usize>,
    /// `(slot, id)` of the frames on the board, oldest first.  The id is a
    /// ghost: the real board keeps the address only.
    goal_frames: Vec<(usize, u32)>,
    goal_top: usize,
    /// The Goal Stack's words.
    words: [[u32; 2]; 2],
    steal_notices: u32,
    /// The thief's worker-local steal count.
    goals_stolen: u32,
    /// The frame each PE popped and is reading.
    popped: [Option<(usize, u32)>; 2],
    image: [[u32; 2]; 2],
    /// `(who, pushed id, image read)` of every completed pop.
    taken: Vec<(usize, u32, [u32; 2])>,
    /// `EngineCore::goals_waiting` of this board: the count as last stored.
    goals_waiting: usize,
    /// Each PE's register: the count its latest push or pop left.
    len_left: [usize; 2],
    /// Each PE's register: the hint it loaded before deciding to lock.
    hint_seen: [usize; 2],
    /// A ghost: the owner read a hint of 0 with a frame on its board.
    owner_missed_a_frame: bool,
}

fn board_lock<const WHO: usize>(b: &mut ModelBoard) -> bool {
    if b.lock.is_some() {
        return false;
    }
    b.lock = Some(WHO);
    true
}
fn board_unlock<const WHO: usize>(b: &mut ModelBoard) -> bool {
    assert_eq!(b.lock, Some(WHO), "unlocking a lock held by someone else");
    b.lock = None;
    true
}
/// Write word `K` of the frame with id `ID` at the board's top.
fn push_word<const ID: u32, const K: usize>(b: &mut ModelBoard) -> bool {
    b.words[b.goal_top][K] = ID;
    true
}
fn push_frame<const ID: u32>(b: &mut ModelBoard) -> bool {
    b.goal_frames.push((b.goal_top, ID));
    b.goal_top += 1;
    b.len_left[OWNER] = b.goal_frames.len();
    true
}
/// Pop the youngest frame, if any; a thief's pop is a steal and counts as
/// one on the board, inside the critical section.
fn pop_frame<const WHO: usize>(b: &mut ModelBoard) -> bool {
    b.popped[WHO] = b.goal_frames.pop();
    b.len_left[WHO] = b.goal_frames.len();
    if let Some((slot, _)) = b.popped[WHO] {
        b.goal_top = slot;
        if WHO == THIEF {
            b.steal_notices += 1;
        }
    }
    true
}
fn read_first_word<const WHO: usize>(b: &mut ModelBoard) -> bool {
    if let Some((slot, _)) = b.popped[WHO] {
        b.image[WHO][0] = b.words[slot][0];
    }
    true
}
/// Read the last word, which completes the image the goal starts from.  The
/// rest of a pop is worker-local (`goals_stolen` among it) and no other PE
/// can tell when it happens, so it is folded into this step.
fn read_last_word<const WHO: usize>(b: &mut ModelBoard) -> bool {
    if let Some((slot, id)) = b.popped[WHO].take() {
        b.image[WHO][1] = b.words[slot][1];
        b.taken.push((WHO, id, b.image[WHO]));
        if WHO == THIEF {
            b.goals_stolen += 1;
        }
    }
    true
}

macro_rules! push {
    ($id:literal) => {
        [
            board_lock::<OWNER>,
            push_word::<$id, 0>,
            push_word::<$id, 1>,
            push_frame::<$id>,
            board_unlock::<OWNER>,
        ]
    };
}
/// The pop as the engine does it: the image is read under the lock.
macro_rules! pop {
    ($who:ident) => {
        [
            board_lock::<$who>,
            pop_frame::<$who>,
            read_first_word::<$who>,
            read_last_word::<$who>,
            board_unlock::<$who>,
        ]
    };
}

/// The owner pushes two frames, takes one back, pushes a third over the
/// freed storage and drains its board; `thief` steals concurrently.  Returns
/// whether every schedule took each frame exactly once with the image that
/// was pushed (the steal accounting is asserted either way), and the number
/// of schedules.
fn steal_pop_holds(thief: &[ModelStep<ModelBoard>]) -> (bool, usize) {
    let owner: Vec<ModelStep<ModelBoard>> =
        [&push!(1)[..], &push!(2), &pop!(OWNER), &push!(3), &pop!(OWNER), &pop!(OWNER)].concat();
    let (mut holds, mut stolen_some, mut stolen_none) = (true, false, false);
    let schedules = interleave(&ModelBoard::default(), &[&owner, thief], &mut [0, 0], &mut |b| {
        assert!(b.goal_frames.is_empty(), "a frame was left on the board");
        let by_thief = b.taken.iter().filter(|t| t.0 == THIEF).count() as u32;
        assert_eq!(b.steal_notices, by_thief, "own-board pops are not steals");
        assert_eq!(b.steal_notices, b.goals_stolen);
        stolen_some |= by_thief > 0;
        stolen_none |= by_thief == 0;
        let mut ids: Vec<u32> = b.taken.iter().map(|t| t.1).collect();
        ids.sort_unstable();
        holds &= ids == [1, 2, 3] && b.taken.iter().all(|&(_, id, image)| image == [id, id]);
    });
    assert!(stolen_some && stolen_none, "both outcomes must be reachable");
    (holds, schedules)
}

#[test]
fn every_schedule_of_the_steal_pop_takes_each_frame_once_with_its_own_image() {
    let thief: Vec<ModelStep<ModelBoard>> = [pop!(THIEF), pop!(THIEF)].concat();
    // Nothing happens outside the lock, so a schedule is an order of the
    // critical sections: C(8, 2) for the owner's six and the thief's two.
    assert_eq!(steal_pop_holds(&thief), (true, 28));
    // Reading the image after the lock drops is the bug the protocol rules
    // out: the owner may already have pushed a new frame over the storage.
    let late_read: &[ModelStep<ModelBoard>] = &[
        board_lock::<THIEF>,
        pop_frame::<THIEF>,
        board_unlock::<THIEF>,
        read_first_word::<THIEF>,
        read_last_word::<THIEF>,
    ];
    assert!(!steal_pop_holds(late_read).0, "the model cannot tell a locked image read from a late one");
}

// ---------------------------------------------------------------------
// The Goal-Frame count read before the lock
// ---------------------------------------------------------------------
//
// `EngineCore::goals_waiting[w]` mirrors `boards[w].goal_frames.len()` in an
// atomic that `Step::try_dispatch_work` loads *without* the board's lock: a
// board that reads 0 is passed over, the PE's own included.  Every store sits
// inside the critical section that changed the length.  What that buys: the
// stores are ordered as the critical sections are, so the atomic always holds
// the length the latest critical section left.  The words of a frame are
// beside the point here (the model above covers the image), so a push and a
// pop are one step each between lock, store and unlock.

fn store_hint<const WHO: usize>(b: &mut ModelBoard) -> bool {
    b.goals_waiting = b.len_left[WHO];
    true
}
fn load_hint<const WHO: usize>(b: &mut ModelBoard) -> bool {
    b.hint_seen[WHO] = b.goals_waiting;
    // Every frame on the board is one the owner pushed.
    b.owner_missed_a_frame |= WHO == OWNER && b.goals_waiting == 0 && !b.goal_frames.is_empty();
    true
}
fn push_whole_frame<const ID: u32>(b: &mut ModelBoard) -> bool {
    push_word::<ID, 0>(b) && push_word::<ID, 1>(b) && push_frame::<ID>(b)
}
fn pop_whole_frame<const WHO: usize>(b: &mut ModelBoard) -> bool {
    pop_frame::<WHO>(b) && read_first_word::<WHO>(b) && read_last_word::<WHO>(b)
}
/// `$step`, skipped by a PE whose hint read 0.
macro_rules! if_hinted {
    ($name:ident, $step:ident) => {
        fn $name<const WHO: usize>(b: &mut ModelBoard) -> bool {
            b.hint_seen[WHO] == 0 || $step::<WHO>(b)
        }
    };
}
if_hinted!(hinted_lock, board_lock);
if_hinted!(hinted_pop, pop_whole_frame);
if_hinted!(hinted_store, store_hint);
if_hinted!(hinted_unlock, board_unlock);

macro_rules! hinted_push {
    ($id:literal) => {
        [board_lock::<OWNER>, push_whole_frame::<$id>, store_hint::<OWNER>, board_unlock::<OWNER>]
    };
}
/// A look for work as the engine does it: the hint is stored under the lock.
macro_rules! hinted_look {
    ($who:ident) => {
        [
            load_hint::<$who>,
            hinted_lock::<$who>,
            hinted_pop::<$who>,
            hinted_store::<$who>,
            hinted_unlock::<$who>,
        ]
    };
}

/// The owner pushes two frames and then looks at its own board twice — enough
/// to drain it alone; `thief` looks once, whenever.  Returns whether every
/// schedule took each frame exactly once, never showed the owner a 0 with a
/// frame of its own on the board and left the count at the board's final
/// length, and the number of schedules.
fn hint_holds(thief: &[ModelStep<ModelBoard>]) -> (bool, usize) {
    let owner: Vec<ModelStep<ModelBoard>> =
        [&hinted_push!(1)[..], &hinted_push!(2), &hinted_look!(OWNER), &hinted_look!(OWNER)].concat();
    let (mut holds, mut stolen_some, mut stolen_none) = (true, false, false);
    let schedules = interleave(&ModelBoard::default(), &[&owner, thief], &mut [0, 0], &mut |b| {
        stolen_some |= b.steal_notices > 0;
        stolen_none |= b.steal_notices == 0;
        let mut ids: Vec<u32> = b.taken.iter().map(|t| t.1).collect();
        ids.sort_unstable();
        // A frame left on the board is stranded: its owner has stopped looking.
        holds &= ids == [1, 2] && b.goal_frames.is_empty() && !b.owner_missed_a_frame && b.goals_waiting == 0;
    });
    assert!(stolen_some && stolen_none, "both outcomes must be reachable");
    (holds, schedules)
}

#[test]
fn a_count_stored_under_the_lock_never_hides_a_frame_from_its_owner() {
    let (holds, schedules) = hint_holds(&hinted_look!(THIEF));
    assert!(holds);
    // Counted, not derived: the loads are unlocked and a skipped step still
    // takes its turn, so the thief's five steps fall almost anywhere among
    // the owner's eighteen (C(23, 5) = 33,649 less the orders a lock forbids).
    assert_eq!(schedules, 18_298);
    // The store issued after the unlock is the bug: the thief's late 0 (the
    // length its pop of frame 1 left) overwrites the 1 the owner stored with
    // frame 2, and the owner passes over its own board.
    let late_store: &[ModelStep<ModelBoard>] = &[
        load_hint::<THIEF>,
        hinted_lock::<THIEF>,
        hinted_pop::<THIEF>,
        hinted_unlock::<THIEF>,
        hinted_store::<THIEF>,
    ];
    assert!(!hint_holds(late_store).0, "the model cannot tell a store under the lock from a late one");
}

// ---------------------------------------------------------------------
// The Parcall counters and the completion commit
// ---------------------------------------------------------------------
//
// Every goal of a Parcall Frame bumps the frame's `COMPLETED` word once,
// through `Step::mem_rmw` whoever runs it — the parent for a goal nobody
// stole, a remote PE for a stolen one: `Word::update_uint`, one
// compare-exchange and no lock.  A compare-exchange loop is one step here —
// its failed rounds change nothing.  The commit is counter-*last*: the child
// stores its bindings before it bumps the count, and the parent's
// `pcall_wait` loads the count before it loads a binding.

/// What the stolen goal binds its variable to.
const BINDING: Cell = Cell::Int(42);

/// One Parcall Frame in the parent's arena, a variable the stolen goal binds,
/// and the registers of the two PEs.
#[derive(Clone, Default)]
struct ModelFrame {
    /// The `COMPLETED` word's `Uint`.
    completed: u32,
    /// The variable's word, stored and loaded through the real `encode` /
    /// `decode`.
    binding: u64,
    /// The parent's register between the halves of a *split* bump.
    parent_old: u32,
    /// The count the parent's wait loaded.
    parent_saw: u32,
    /// The cell the parent's wait loaded from the variable.
    loaded: Option<Cell>,
}

/// `Word::store` of the binding.
fn bind(f: &mut ModelFrame) -> bool {
    f.binding = encode(BINDING);
    true
}
/// `Word::update_uint(|v| v + 1)`.
fn bump_completed(f: &mut ModelFrame) -> bool {
    f.completed += 1;
    true
}
fn load_completed(f: &mut ModelFrame) -> bool {
    f.parent_saw = f.completed;
    true
}
/// `Word::load` of the binding.
fn load_binding(f: &mut ModelFrame) -> bool {
    f.loaded = Some(decode(f.binding));
    true
}

/// The remote PE that executed the stolen goal: bind, then commit.
const STOLEN_GOAL: [ModelStep<ModelFrame>; 2] = [bind, bump_completed];

/// The parent's `pcall_wait`: load the count and — were it the final one —
/// go on to read what the child bound.
const WAIT: [ModelStep<ModelFrame>; 2] = [load_completed, load_binding];

#[test]
fn an_owner_bump_and_a_remote_one_never_lose_each_other() {
    // The parent runs the frame's other goal itself, then waits.
    let parent = [&[bump_completed as ModelStep<ModelFrame>][..], &WAIT].concat();
    let (mut committed, mut early) = (0, 0);
    let schedules = interleave(&ModelFrame::default(), &[&STOLEN_GOAL, &parent], &mut [0, 0], &mut |f| {
        assert_eq!(f.completed, 2, "an increment was lost");
        if f.parent_saw == 2 {
            committed += 1;
            assert_eq!(f.loaded, Some(BINDING), "saw the count but not the binding");
        } else {
            early += 1;
        }
    });
    assert_eq!(schedules, 10, "C(5, 2) schedules of 2 + 3 steps");
    assert!(committed > 0 && early > 0, "both outcomes must be reachable ({committed}, {early})");
    // What the compare-exchange rules out: a PE that loads and stores the
    // count as two steps overwrites another's bump that lands between them.
    let split: &[ModelStep<ModelFrame>] = &[
        |f| {
            f.parent_old = f.completed;
            true
        },
        |f| {
            f.completed = f.parent_old + 1;
            true
        },
    ];
    let mut lost = false;
    interleave(&ModelFrame::default(), &[&STOLEN_GOAL, split], &mut [0, 0], &mut |f| {
        lost |= f.completed == 1;
    });
    assert!(lost, "the model cannot tell a compare-exchange from a split load/store");
}

#[test]
fn a_parent_that_saw_the_completion_count_sees_the_binding() {
    // Counter-*first* is the bug the protocol's name rules out (the
    // counter-last order itself is asserted over every schedule above).
    let counter_first: &[ModelStep<ModelFrame>] = &[bump_completed, bind];
    let mut broken = false;
    interleave(&ModelFrame::default(), &[counter_first, &WAIT], &mut [0, 0], &mut |f| {
        broken |= f.parent_saw == 1 && f.loaded != Some(BINDING);
    });
    assert!(broken, "the model cannot tell counter-last from counter-first");
}

// ---------------------------------------------------------------------
// The reset mark of stores into another PE's Stack Set
// ---------------------------------------------------------------------
//
// A store advances its area's reset mark past the word it wrote
// (`StackSetArena::mark_written`).  The owner's marks have one writer; the
// marks of *remote* stores can be advanced by two PEs at once — two thieves
// writing their slot words into one parent's Parcall Frames, two Messages —
// with a load that skips the stores already covered and a `fetch_max` for the
// rest.  A mark that ends below a written word leaves that word unswept in a
// parked array: another tenant's data.

/// One area's remote reset mark and each writer's register: the mark it
/// loaded.
#[derive(Clone, Default)]
struct ModelMark {
    mark: usize,
    seen: [usize; 2],
}

fn load_mark<const WHO: usize>(m: &mut ModelMark) -> bool {
    m.seen[WHO] = m.mark;
    true
}
/// `fetch_max(OFFSET + 1)`, skipped when the loaded mark already covers it.
fn max_mark<const WHO: usize, const OFFSET: usize>(m: &mut ModelMark) -> bool {
    if OFFSET >= m.seen[WHO] {
        m.mark = m.mark.max(OFFSET + 1);
    }
    true
}
/// The same advance as a plain store of `OFFSET + 1`.
fn store_mark<const WHO: usize, const OFFSET: usize>(m: &mut ModelMark) -> bool {
    if OFFSET >= m.seen[WHO] {
        m.mark = OFFSET + 1;
    }
    true
}

#[test]
fn two_remote_pes_advancing_one_reset_mark_keep_the_larger() {
    // Each PE stores two words, the second below its first, so the skip is
    // exercised too.
    let low: &[ModelStep<ModelMark>] = &[load_mark::<0>, max_mark::<0, 3>, load_mark::<0>, max_mark::<0, 1>];
    let high: &[ModelStep<ModelMark>] = &[load_mark::<1>, max_mark::<1, 8>, load_mark::<1>, max_mark::<1, 5>];
    let schedules = interleave(&ModelMark::default(), &[low, high], &mut [0, 0], &mut |m| {
        assert_eq!(m.mark, 9, "the mark ended below a written word");
    });
    assert_eq!(schedules, 70, "C(8, 4) schedules of 4 + 4 steps");
    // Load-then-store is the owner's protocol, sound for one writer only: the
    // lower store lands after the higher one and takes the mark back.
    let low_stores: &[ModelStep<ModelMark>] = &[load_mark::<0>, store_mark::<0, 3>];
    let high_stores: &[ModelStep<ModelMark>] = &[load_mark::<1>, store_mark::<1, 8>];
    let mut lost = false;
    interleave(&ModelMark::default(), &[low_stores, high_stores], &mut [0, 0], &mut |m| {
        lost |= m.mark < 9;
    });
    assert!(lost, "the model cannot tell a fetch_max from a load-then-store");
}
