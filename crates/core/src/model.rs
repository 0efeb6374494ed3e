//! Test-only model checking: an exhaustive interleaver over small state
//! machines, and the Goal-Stack steal pop written as one.
//!
//! A model is not the code itself: each step below is one atomic action of
//! the real protocol, in the order the real code issues it, and
//! [`interleave`] runs every schedule of the model threads' steps.  Schedules
//! are sequentially consistent, so what a model checks is the *step order*;
//! the locks' release/acquire (and, for the arena words in [`crate::mem`],
//! the Release store / Acquire load of the low half) are what make other
//! threads observe that order on real hardware.

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
    true
}
/// Pop the youngest frame, if any; a thief's pop is a steal and counts as
/// one on the board, inside the critical section.
fn pop_frame<const WHO: usize>(b: &mut ModelBoard) -> bool {
    b.popped[WHO] = b.goal_frames.pop();
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
