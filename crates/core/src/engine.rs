//! The multi-worker RAP-WAM engine.
//!
//! The engine executes a [`CompiledProgram`] on a configurable number of
//! workers (PEs).  The stepping loops live in [`crate::sched`]; the engine
//! only defines what one worker does with one slot.  Internally the engine
//! is split along the line an actually-parallel backend needs:
//!
//! * [`EngineCore`] — state shared by every PE, behind interior mutability:
//!   the program, the sharded [`Memory`], atomic run counters, the
//!   completion flag, and one *board* per PE (its Goal-Stack mirror and
//!   Message-Buffer allocation state) that other PEs may touch under a
//!   lock.
//! * [`Worker`] — one PE's registers and host-side bookkeeping, owned
//!   exclusively by whichever thread is stepping that PE.
//! * `Step` — the pairing of `&EngineCore` with `&mut Worker`: every
//!   instruction, unification, builtin and scheduling action is a method on
//!   `Step`, so the same execution code serves both the deterministic
//!   single-thread backends and the free-running relaxed backend, which
//!   hands each worker to its own OS thread.
//!
//! Scheduling is *on demand*: `pcall_goal` pushes Goal Frames onto the
//! issuing worker's Goal Stack; the waiting parent picks its own goals back
//! up through the cheap local path, and *idle* workers steal the rest (a
//! waiting worker never steals — see `Step::try_dispatch_work`).  Completion is recorded in the Parcall Frame's
//! counters and (for stolen goals) signalled through the parent's Message
//! Buffer, generating exactly the locked/global traffic the paper's Table 1
//! describes.  Cross-PE completion uses a *commit protocol* whose last
//! memory action is the atomic increment of the Parcall Frame's completion
//! counter, so that under the relaxed backend a parent that observes the
//! counter at its target value is guaranteed to also observe every slot
//! status, binding and message the finished goals produced.

use crate::answer::extract_binding;
use crate::cell::{Cell, NONE_ADDR};
use crate::error::{EngineError, EngineResult};
use crate::frames::{choice, env, goal_frame, marker, message, parcall};
use crate::known;
use crate::layout::{board, Area, MemoryConfig, ObjectKind};
use crate::mem::{Memory, StackSetArena};
use crate::sched::{drive, DeterminismMode, SchedulerKind};
use crate::stats::{RunStats, WorkerStats};
use crate::trace::{AreaStats, MemRef};
use crate::worker::{park_records, GoalContext, Mode, Resume, Worker, WorkerStatus};
use pwam_compiler::CompiledProgram;
use pwam_front::term::Term;
use pwam_front::SymbolTable;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of workers (PEs).
    pub num_workers: usize,
    /// Per-worker Stack Set sizes.
    pub memory: MemoryConfig,
    /// Collect the full memory-reference trace (needed for cache simulation).
    pub collect_trace: bool,
    /// Abort after this many instructions (guards against runaway programs).
    pub max_steps: u64,
    /// Interleave granularity of the strict backend: instructions a
    /// `Running` worker executes per slot when the engine has **more than one
    /// PE**.  The default of 1 is the paper's emulator methodology — PEs
    /// interleave one instruction at a time, which is what gives the merged
    /// trace its meaning.  With one PE there is nothing to interleave with,
    /// so the value is unobservable and ignored: a slot runs to the next
    /// scheduling-relevant event instead (see `Step::run_slot`).  The relaxed
    /// backend never reads it.
    pub quantum: u32,
    /// Which execution backend steps the workers.
    pub scheduler: SchedulerKind,
    /// How much scheduling nondeterminism the backend may exploit.
    pub determinism: DeterminismMode,
    /// How long the relaxed backend may observe a completely stalled machine
    /// (no instruction executed anywhere, nothing to steal) before aborting.
    /// Valid programs never stall; this is the safety net for engine bugs,
    /// sized so tests hang for seconds, not forever.
    pub stall_timeout: Duration,
    /// Wall-clock budget for the run.  `None` (the default) means unlimited;
    /// the serving layer sets it to enforce per-request deadlines, reusing
    /// the same periodic progress checks as the stall watchdog.
    pub time_budget: Option<Duration>,
    /// Deterministic instruction-fuel budget **per execution leg** (each
    /// `run`/`resume` re-arms it, mirroring the per-leg deadline clock).
    /// `None` (the default) means unlimited.  Unlike `time_budget`, fuel is
    /// counted in executed instructions, so where a run stops is a pure
    /// function of the program: the strict backend preempts at the first
    /// round boundary at or past the budget (checked in `end_round`),
    /// leaving a machine state the fuel suite pins by fingerprint.  The
    /// relaxed backend checks fuel at its existing batch boundaries, so
    /// preemption is prompt but the exact stop point is schedule-dependent
    /// there (same contract as every other relaxed-mode observable).  A
    /// preempted one-shot run
    /// fails with [`EngineError::FuelExhausted`]; a resumable run suspends
    /// with [`SuspendReason::FuelExhausted`] and continues via
    /// [`HostResult::Continue`].
    pub fuel: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_workers: 1,
            memory: MemoryConfig::default(),
            collect_trace: false,
            max_steps: 2_000_000_000,
            quantum: 1,
            scheduler: SchedulerKind::Interleaved,
            determinism: DeterminismMode::Strict,
            stall_timeout: Duration::from_secs(5),
            time_budget: None,
            fuel: None,
        }
    }
}

impl EngineConfig {
    /// Configuration with `n` workers and default memory sizes.
    pub fn with_workers(n: usize) -> Self {
        EngineConfig { num_workers: n, ..Default::default() }
    }
}

/// Outcome of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The query succeeded with the given bindings for the query variables.
    Success(Vec<(String, Term)>),
    /// The query failed.
    Failure,
}

impl Outcome {
    /// True if the query succeeded.
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Success(_))
    }

    /// The binding for a query variable, if the query succeeded.
    pub fn binding(&self, name: &str) -> Option<&Term> {
        match self {
            Outcome::Success(b) => b.iter().find(|(n, _)| n == name).map(|(_, t)| t),
            Outcome::Failure => None,
        }
    }
}

/// The result of running a query: outcome, statistics and (optionally) the
/// full memory-reference trace.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub outcome: Outcome,
    pub stats: RunStats,
    pub trace: Option<Vec<MemRef>>,
}

/// What a resumable run ([`Engine::run_resumable`] / [`Engine::resume`])
/// returned control for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The query ran to a terminal state: either it failed (no/none further
    /// answers) or the caller committed to the last answer.  Read the final
    /// [`RunResult`] with [`Engine::take_result`] / [`Engine::into_result`].
    Complete,
    /// Execution is parked between instructions, waiting on the host.
    Suspended(SuspendReason),
}

/// Why a resumable engine suspended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuspendReason {
    /// An answer is available ([`Engine::answer_bindings`]).  Resume with
    /// [`HostResult::Redo`] to fail back into the engine for the next
    /// answer, or [`HostResult::Commit`] to accept it and finish.
    AnswerReady,
    /// A registered host predicate was called.  `args` are the call's
    /// argument terms (extracted from the machine state); resume with
    /// [`HostResult::Succeed`] (optionally binding arguments) or
    /// [`HostResult::Fail`].
    HostCall {
        /// The host predicate's name (from the compiled program's registry).
        name: String,
        /// The call's arguments, as terms.  Unbound variables appear as
        /// `Term::Var("_G…")` and can be bound through
        /// [`HostResult::Succeed`] by argument position.
        args: Vec<Term>,
    },
    /// The per-leg instruction-fuel budget ran out before the query produced
    /// an answer.  The machine state is parked between scheduling rounds;
    /// resume with [`HostResult::Continue`] (after re-admitting the query)
    /// to grant another leg of fuel and keep executing exactly where the
    /// run left off.
    FuelExhausted,
}

/// The host's reply when re-entering a suspended engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostResult {
    /// After [`SuspendReason::AnswerReady`]: reject the answer and
    /// backtrack for the next one.
    Redo,
    /// After [`SuspendReason::AnswerReady`]: accept the answer and finish
    /// the query (the cursor's cut).
    Commit,
    /// After [`SuspendReason::HostCall`]: the host predicate succeeds,
    /// unifying each `(index, term)` pair with the argument at that
    /// 0-based position.  A non-unifiable binding fails the call instead.
    Succeed(Vec<(usize, Term)>),
    /// After [`SuspendReason::HostCall`]: the host predicate fails;
    /// execution backtracks.
    Fail,
    /// After [`SuspendReason::FuelExhausted`]: grant a fresh leg of fuel
    /// (per [`EngineConfig::fuel`]) and continue execution in place.
    Continue,
}

/// The suspension record `call_host` leaves behind for [`Engine::resume`].
pub(crate) struct PendingHostCall {
    /// Worker that executed the `call_host` (its `p` already points at the
    /// continuation).
    worker: usize,
    /// Index into the compiled program's host registry.
    host: u32,
    /// The call's argument cells (`X1..Xn` at the suspension point).
    args: Vec<Cell>,
}

/// Per-PE scheduling state that other PEs may inspect or update: the mirror
/// of the Goal Stack (for stealing) and the Message Buffer allocation state
/// (for completion messages).  Every access takes the board's lock; under
/// the strict backend the lock is trivially uncontended, under the relaxed
/// backend it is the word-level lock of the paper's Goal Stack / Message
/// Buffer rows of Table 1.
#[derive(Debug, Default)]
pub(crate) struct PeBoard {
    /// Goal Frames currently on this PE's Goal Stack (addresses, oldest
    /// first); pushes come from the owner, pops from owner and thieves.
    pub goal_frames: Vec<u32>,
    /// Authoritative Goal-Stack allocation top.
    pub goal_top: u32,
    /// Next free slot in the Message Buffer (bump allocation with wrap).
    pub msg_top: u32,
    /// Number of unread messages in the Message Buffer.
    pub pending_messages: u32,
    /// Pending `cancel_goal` requests `(pf, slot)` for in-flight stolen
    /// goals this PE is executing, posted by the cancelling parent under
    /// this board's lock and drained by the owner at instruction-batch
    /// boundaries.
    pub cancel_requests: Vec<(u32, u32)>,
    /// Goals thieves took from this PE's Goal Stack (a statistic, counted
    /// inside the critical section of the pop).
    pub steal_notices: u64,
    /// `cancel_goal` requests posted to this PE (a statistic, counted beside
    /// the push onto `cancel_requests`).
    pub cancel_notices: u64,
}

/// A Goal Frame's words, read under the owning board's lock before the
/// frame's storage can be reused (the arguments go straight into the
/// thief's argument registers).
struct GoalFrameImage {
    frame: u32,
    code: u32,
    arity: u32,
    pf: u32,
    slot: u32,
}

/// `finished` encoding in [`EngineCore`].
const RUNNING: u8 = 0;
const SUCCEEDED: u8 = 1;
const FAILED: u8 = 2;
/// Execution stopped at a host-predicate call (`call_host`); the machine
/// state is parked between instructions and [`Engine::resume`] re-enters it.
/// Note `SUCCEEDED` doubles as the answer-boundary suspension: a first
/// solution is terminal for [`Engine::run`] but resumable (via
/// [`HostResult::Redo`]) for a cursor, so the hot success path needs no new
/// state.
const SUSPENDED: u8 = 3;
/// Execution stopped because the per-leg instruction-fuel budget ran out.
/// Like `SUSPENDED`, the machine state is parked between instructions (here:
/// between whole scheduling rounds) and [`Engine::resume`] re-enters it with
/// [`HostResult::Continue`].
const PREEMPTED: u8 = 4;

/// Most instructions one slot of a one-PE engine retires before returning
/// to the round driver (see `Step::run_slot`).  Sized by the benchmark's
/// `core.dispatch_ns_per_instr` rung: re-entering the driver per instruction
/// cost 67–72 ns against 17–20 ns at 4096 instructions per entry, and
/// anything from 128 up puts the driver's share under 1 ns per instruction.
/// 4096 is the batch length that rung (`.q4096`) and `BENCH_mlips.json` have
/// always measured; it also bounds how late a wall-clock deadline is noticed
/// (one check per slot, ~0.1 ms of instructions).
const SLOT_CAP: u32 = 4096;

/// Cycles between wall-clock deadline checks in `Engine::end_round` (a
/// power of two).
const DEADLINE_CHECK_CYCLES: u64 = 1024;

// A run (`Step::mem_read_run` / `mem_write_run`) spells a frame's words by
// position, in address order.  These are the orders the callers here and in
// `exec.rs` rely on; a choice point's is asserted where it is pushed.
const _: () = {
    assert!(env::CE == 0 && env::CP == 1 && env::NVARS == 2 && env::HEADER == 3);
    assert!(goal_frame::CODE == 0 && goal_frame::ARITY == 1 && goal_frame::PF == 2);
    assert!(goal_frame::SLOT == 3 && goal_frame::HEADER == 4);
    assert!(marker::KIND == 0 && marker::PF == 1 && marker::SLOT == 2 && marker::ENTRY_B == 3);
    assert!(marker::ENTRY_TR == 4 && marker::ENTRY_H == 5 && marker::ENTRY_LOCAL_TOP == 6);
    assert!(marker::ENTRY_E == 7 && marker::SIZE == 8);
    assert!(message::KIND == 0 && message::PF == 1 && message::SLOT == 2 && message::SIZE == 3);
    assert!(choice::NARGS == 0 && choice::FIXED == 10);
};

/// Everything the PEs share: program, memory, run counters, per-PE boards.
///
/// All mutation goes through interior mutability (atomics and small
/// mutexes), so a `&EngineCore` can be handed to any number of OS threads;
/// each thread pairs it with the `&mut Worker` it exclusively owns (see
/// `Step`).
pub struct EngineCore<'p> {
    pub program: &'p CompiledProgram,
    pub config: EngineConfig,
    pub mem: Memory,
    /// Query status: `RUNNING` / `SUCCEEDED` / `FAILED`.
    finished: AtomicU8,
    /// Instructions executed (all PEs).  The strict driver owns the engine
    /// and adds each slot's count through `&mut` ([`Engine::step_slot`]); a
    /// relaxed PE thread adds each batch with one `fetch_add`.
    pub(crate) steps: AtomicU64,
    /// Elapsed machine cycles: scheduling rounds on the strict backend (a
    /// one-PE slot that retires `n` instructions counts as the `n` rounds
    /// it stands for), critical-path estimate on the relaxed backend.
    cycles: AtomicU64,
    /// `cycles` value at or past which `end_round` next checks the
    /// wall-clock deadline (every 1024 cycles).
    next_deadline_check: u64,
    /// Failures that reached a parallel-goal boundary or crossed a Parcall
    /// Frame on the failing worker's `PF` chain.  Zero here is a *logical*
    /// property (independence makes every goal's success or failure
    /// schedule-free until a first failure exists), so a reference run with
    /// zero guarantees no schedule can trigger backward execution.
    parcall_failures: AtomicU64,
    /// Parcall Frames cancelled by backward execution.
    parcalls_cancelled: AtomicU64,
    /// Goal Frames retracted un-executed during cancellation.
    goals_cancelled: AtomicU64,
    /// Round-robin cursor over steal victims.
    steal_cursor: AtomicUsize,
    /// One board per PE.
    pub(crate) boards: Vec<Mutex<PeBoard>>,
    /// `boards[w].goal_frames.len()`, mirrored where it can be read without
    /// the board's lock: a PE looking for work skips a board that reads 0.
    /// Every store happens with the board's lock held (see
    /// [`EngineCore::publish_goals_waiting`]), so the stores are ordered as
    /// the critical sections are and each stored the true length.  An owner's
    /// load therefore returns a value no older than its own last store — a 0
    /// means the frames it pushed are already taken — and a thief's stale
    /// value costs a lock that finds nothing (stale non-zero) or one idle
    /// slot before it looks again (stale 0).  `Relaxed` both ways: the count
    /// publishes nothing — whoever acts on a non-zero takes the board's lock
    /// before it touches a frame.
    goals_waiting: Vec<AtomicUsize>,
    /// Cheap "this PE has pending cancel_goal requests" flags, so the hot
    /// execution path pays one relaxed atomic load instead of a board lock.
    cancel_flags: Vec<AtomicBool>,
    /// First engine error raised on any thread of the relaxed backend.
    abort: Mutex<Option<EngineError>>,
    aborted: AtomicBool,
    /// The host call the engine suspended at (`finished == SUSPENDED`).
    /// Written exactly once per suspension, by the worker that won the
    /// RUNNING→SUSPENDED race in [`Step::suspend_host`]; taken by
    /// [`Engine::resume`].  Off the hot path: programs without host
    /// predicates never touch it.
    pending_host: Mutex<Option<PendingHostCall>>,
    /// When the run started (re-armed by `run`/`reset`); the reference point
    /// for the `time_budget` deadline.
    started: Instant,
    /// Absolute `steps` threshold at which the current execution leg is
    /// preempted (`u64::MAX` = unlimited).  Re-armed to
    /// `steps + config.fuel` at the start of every `run`/`resume` leg.
    fuel_limit: AtomicU64,
}

impl<'p> EngineCore<'p> {
    /// `Some(true)` once the query succeeded, `Some(false)` once it failed.
    /// A *suspended* engine (parked at a host call) reports `None`: it has
    /// no outcome yet.  Drivers must gate on `EngineCore::halted`, which
    /// also covers suspension.
    pub fn finished(&self) -> Option<bool> {
        match self.finished.load(Ordering::Acquire) {
            RUNNING | SUSPENDED | PREEMPTED => None,
            SUCCEEDED => Some(true),
            _ => Some(false),
        }
    }

    /// True once execution must stop handing out slots: the query succeeded,
    /// failed, or suspended at a host call.  This is the drivers' exit gate;
    /// [`EngineCore::finished`] stays the *outcome* accessor.
    #[inline]
    pub(crate) fn halted(&self) -> bool {
        self.finished.load(Ordering::Acquire) != RUNNING
    }

    /// Raw `finished` state (RUNNING/SUCCEEDED/FAILED/SUSPENDED).
    #[inline]
    fn state(&self) -> u8 {
        self.finished.load(Ordering::Acquire)
    }

    /// Record the query outcome (first writer wins).
    fn set_finished(&self, success: bool) {
        let _ = self.finished.compare_exchange(
            RUNNING,
            if success { SUCCEEDED } else { FAILED },
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Mirror `board`'s Goal-Frame count into `goals_waiting[w]`.  `board` is
    /// the locked `boards[w]`: the store must sit inside the critical section
    /// that changed the count, or a late store of an old length could
    /// overwrite a newer one and strand a frame behind a hint of 0.
    #[inline]
    pub(crate) fn publish_goals_waiting(&self, w: usize, board: &PeBoard) {
        self.goals_waiting[w].store(board.goal_frames.len(), Ordering::Relaxed);
    }

    /// Whether board `w` may hold a Goal Frame (see `goals_waiting`).
    #[inline]
    fn may_have_goals(&self, w: usize) -> bool {
        self.goals_waiting[w].load(Ordering::Relaxed) != 0
    }

    /// Instructions executed so far across all PEs (as of the last flush).
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Record the first engine error of a relaxed run and tell every thread
    /// to wind down.
    pub(crate) fn abort_with(&self, e: EngineError) {
        let mut slot = self.abort.lock().unwrap();
        if slot.is_none() {
            *slot = Some(e);
        }
        self.aborted.store(true, Ordering::Release);
    }

    /// True once some thread has aborted the run.
    pub(crate) fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Take the recorded abort error, if any.
    pub(crate) fn take_abort(&self) -> Option<EngineError> {
        self.abort.lock().unwrap().take()
    }

    /// Fail the run if its wall-clock budget is exhausted.  Cheap when no
    /// budget is set; callers still rate-limit the check because
    /// `Instant::now` is not free on the per-instruction path.
    pub(crate) fn check_deadline(&self) -> EngineResult<()> {
        if let Some(budget) = self.config.time_budget {
            if self.started.elapsed() > budget {
                return Err(EngineError::DeadlineExceeded { budget });
            }
        }
        Ok(())
    }

    /// Preempt the run (RUNNING → PREEMPTED, first writer wins) once the
    /// current leg's instruction fuel is spent.  Unlike the deadline this is
    /// *not* an error: the machine state stays parked for
    /// [`Engine::resume`].  The CAS keeps a query that succeeded or failed
    /// in the same round ahead of the preemption.  One relaxed load when no
    /// fuel is configured, so it runs unconditionally every round.
    pub(crate) fn check_fuel(&self) {
        if self.steps.load(Ordering::Relaxed) >= self.fuel_limit.load(Ordering::Relaxed) {
            let _ = self.finished.compare_exchange(RUNNING, PREEMPTED, Ordering::AcqRel, Ordering::Acquire);
        }
    }

    /// Arm the fuel threshold for a fresh execution leg.
    fn re_arm_fuel(&self) {
        let limit = match self.config.fuel {
            Some(fuel) => self.steps.load(Ordering::Relaxed).saturating_add(fuel),
            None => u64::MAX,
        };
        self.fuel_limit.store(limit, Ordering::Relaxed);
    }

    /// Record the critical-path cycle estimate of a relaxed run.
    pub(crate) fn set_cycles(&self, cycles: u64) {
        self.cycles.store(cycles, Ordering::Relaxed);
    }

    /// Classify a data address by the object kind that lives in its area
    /// (used when the engine only knows an address, e.g. for dereferencing
    /// and untrailing).
    pub(crate) fn object_for_addr(&self, addr: u32) -> ObjectKind {
        match self.mem.map.area_of(addr) {
            Area::Heap => ObjectKind::HeapTerm,
            Area::LocalStack => ObjectKind::EnvPermVar,
            Area::ControlStack => ObjectKind::Marker,
            Area::Trail => ObjectKind::TrailEntry,
            Area::Pdl => ObjectKind::PdlEntry,
            Area::GoalStack => ObjectKind::GoalFrame,
            Area::MessageBuffer => ObjectKind::Message,
        }
    }
}

/// The abstract-machine engine: the shared core plus every worker's state.
///
/// Most callers go through [`crate::session::Session`]; driving the engine
/// directly looks like this:
///
/// ```
/// use pwam_compiler::{compile_program_and_query, CompileOptions};
/// use pwam_front::{parser, SymbolTable};
/// use rapwam::{Engine, EngineConfig};
///
/// let mut syms = SymbolTable::new();
/// let program = parser::parse_program("p(1).\np(2).", &mut syms).unwrap();
/// let query = parser::parse_query("p(X)", &mut syms).unwrap();
/// let compiled =
///     compile_program_and_query(&program, &query, &mut syms, CompileOptions::parallel()).unwrap();
///
/// let engine = Engine::new(&compiled, EngineConfig::with_workers(2));
/// let result = engine.run(&syms).unwrap();
/// assert!(result.outcome.is_success());
/// ```
pub struct Engine<'p> {
    pub(crate) core: EngineCore<'p>,
    pub(crate) workers: Vec<Worker>,
}

/// One worker's view of the machine: the shared core, exclusive access to
/// that worker's state, and the worker's own Stack Set.  All execution logic
/// lives here; the scheduler backends differ only in how they drive `Step`s.
pub(crate) struct Step<'a, 'p> {
    pub(crate) core: &'a EngineCore<'p>,
    pub(crate) wk: &'a mut Worker,
    /// `core.mem`'s arena for `wk`, resolved once by [`Step::new`]: where
    /// nearly every reference of this worker lands.
    own: &'a StackSetArena,
}

impl<'p> Engine<'p> {
    /// Create an engine ready to run the program's query.
    pub fn new(program: &'p CompiledProgram, config: EngineConfig) -> Self {
        let mem = Memory::new(config.memory, config.num_workers, config.collect_trace);
        Engine::build(program, config, mem, Vec::new())
    }

    /// Create an engine around a recycled [`Memory`] (the warm-engine path
    /// of a serving pool).  When the memory's shape — per-worker area sizes
    /// and worker count — matches the configuration, its arenas are reset in
    /// place and reused; otherwise a memory of the right shape is built, from
    /// the other one's word arrays where their Stack-Set size allows.
    /// Returns the engine and whether the memory itself was reused.
    pub fn with_recycled_memory(
        program: &'p CompiledProgram,
        config: EngineConfig,
        mut memory: Memory,
    ) -> (Self, bool) {
        if memory.map.config == config.memory && memory.map.num_workers == config.num_workers {
            memory.reset(config.collect_trace);
            (Engine::build(program, config, memory, Vec::new()), true)
        } else {
            // Dropped before the build, not after it: a dropped memory parks
            // its word arrays, and only parked arrays can serve the new one.
            drop(memory);
            (Engine::new(program, config), false)
        }
    }

    /// Assemble an engine around an already-allocated (pristine) memory.
    /// This is the one spelling of the machine's state before its first
    /// instruction — workers, boards, flags, counters — for a cold build, a
    /// build on recycled arenas and [`Engine::reset`] alike.  `spent` are the
    /// workers of an earlier life of this engine (same program, same PEs),
    /// whose profile and record buffers the new ones clear and reuse; a
    /// worker without a predecessor allocates its profile and takes a parked
    /// record buffer.
    fn build(program: &'p CompiledProgram, config: EngineConfig, mem: Memory, spent: Vec<Worker>) -> Self {
        assert!(config.num_workers >= 1, "at least one worker is required");
        assert!(config.num_workers <= 255, "at most 255 workers are supported");
        let config_fuel = config.fuel;
        let mut workers: Vec<Worker> =
            (0..config.num_workers).map(|i| Worker::new(i as u8, &mem.map)).collect();
        let mut spent = spent.into_iter();
        for wk in &mut workers {
            let (spent_profile, spent_records) =
                spent.next().map_or((None, None), |old| (Some(old.prof_counts), old.trace));
            wk.arm_trace(mem.tracing(), spent_records);
            // Per-predicate profile storage, indexed by code address (entry
            // points of the predicates actually called).  The query body is
            // charged to `query_start` until the first call.
            wk.prof_counts = match spent_profile {
                Some(mut counts) => {
                    counts.clear();
                    counts.resize(program.code_len(), 0);
                    counts
                }
                None => vec![0; program.code_len()],
            };
            wk.prof_pred = program.query_start;
        }
        workers[0].p = program.query_start;
        workers[0].cp = program.query_start;
        workers[0].status = WorkerStatus::Running;
        let boards = (0..config.num_workers)
            .map(|w| {
                Mutex::new(PeBoard {
                    goal_top: mem.map.area_base(w, Area::GoalStack),
                    msg_top: mem.map.area_base(w, Area::MessageBuffer),
                    ..PeBoard::default()
                })
            })
            .collect();
        let goals_waiting = (0..config.num_workers).map(|_| AtomicUsize::new(0)).collect();
        let cancel_flags = (0..config.num_workers).map(|_| AtomicBool::new(false)).collect();
        Engine {
            core: EngineCore {
                program,
                config,
                mem,
                finished: AtomicU8::new(RUNNING),
                steps: AtomicU64::new(0),
                cycles: AtomicU64::new(0),
                next_deadline_check: DEADLINE_CHECK_CYCLES,
                parcall_failures: AtomicU64::new(0),
                parcalls_cancelled: AtomicU64::new(0),
                goals_cancelled: AtomicU64::new(0),
                steal_cursor: AtomicUsize::new(0),
                boards,
                goals_waiting,
                cancel_flags,
                abort: Mutex::new(None),
                aborted: AtomicBool::new(false),
                pending_host: Mutex::new(None),
                started: Instant::now(),
                fuel_limit: AtomicU64::new(config_fuel.unwrap_or(u64::MAX)),
            },
            workers,
        }
    }

    /// Run the query to completion on the configured scheduler backend and
    /// collect results.
    pub fn run(self, syms: &SymbolTable) -> EngineResult<RunResult> {
        let (result, _engine) = self.run_reusable(syms)?;
        Ok(result)
    }

    /// Like [`Engine::run`], but also hands the finished engine back so the
    /// caller can [`Engine::reset`] it (same program) or recover its arenas
    /// with [`Engine::into_memory`] (different program).  On error the
    /// engine is lost — a pool simply rebuilds cold on the next request.
    pub fn run_reusable(mut self, syms: &SymbolTable) -> EngineResult<(RunResult, Engine<'p>)> {
        self.core.started = Instant::now();
        self.core.re_arm_fuel();
        let mut engine = drive(self)?;
        if engine.core.state() == SUSPENDED {
            return Err(EngineError::Internal(
                "query suspended at a host call; drive it through a cursor (run_resumable/resume)"
                    .to_string(),
            ));
        }
        if engine.core.state() == PREEMPTED {
            // One-shot callers have no way to grant more fuel, so preemption
            // surfaces as an error (the engine is lost, like any other
            // errored run).  Resumable callers get a suspension instead.
            let fuel = engine.core.config.fuel.unwrap_or(0);
            return Err(EngineError::FuelExhausted { fuel });
        }
        let result = engine.take_result(syms)?;
        Ok((result, engine))
    }

    /// Run the query until it completes **or suspends** — at the first
    /// answer ([`SuspendReason::AnswerReady`]) or at a host-predicate call
    /// ([`SuspendReason::HostCall`]).  The engine comes back with its entire
    /// machine state parked between instructions (worker registers, env/cp
    /// caches, [`Memory`] intact) so [`Engine::resume`] re-enters exactly
    /// where execution left off.
    pub fn run_resumable(mut self) -> EngineResult<(RunOutcome, Engine<'p>)> {
        self.core.started = Instant::now();
        self.core.re_arm_fuel();
        self.drive_resumable()
    }

    /// Re-enter a suspended engine with the host's reply.
    ///
    /// Valid pairings: [`SuspendReason::AnswerReady`] takes
    /// [`HostResult::Redo`] or [`HostResult::Commit`];
    /// [`SuspendReason::HostCall`] takes [`HostResult::Succeed`] or
    /// [`HostResult::Fail`].  Anything else (including resuming an engine
    /// that already completed) is an [`EngineError::Internal`].
    pub fn resume(mut self, result: HostResult) -> EngineResult<(RunOutcome, Engine<'p>)> {
        // Each `resume` leg is a fresh request from the serving layer's point
        // of view, so the deadline clock and the fuel budget re-arm here.
        self.core.started = Instant::now();
        self.core.re_arm_fuel();
        match self.core.state() {
            SUCCEEDED => match result {
                HostResult::Commit => Ok((RunOutcome::Complete, self)),
                HostResult::Redo => {
                    // Fail back into the engine: restore RUNNING, revive the
                    // worker that produced the answer (the only stopped one
                    // — a worker stops only through query success or query
                    // failure) and backtrack it into the next alternative.
                    self.core.finished.store(RUNNING, Ordering::Release);
                    self.core.mem.shared_write(board::STATUS, Cell::Uint(board::STATUS_RUNNING));
                    let w =
                        self.core.mem.shared_read(board::ANSWER_PE).expect_uint("board answer pe") as usize;
                    self.workers[w].status = WorkerStatus::Running;
                    Step::new(&self.core, &mut self.workers[w]).backtrack()?;
                    self.drive_resumable()
                }
                other => Err(EngineError::Internal(format!(
                    "resume at an answer boundary expects Redo or Commit, got {other:?}"
                ))),
            },
            SUSPENDED => {
                if !matches!(result, HostResult::Succeed(_) | HostResult::Fail) {
                    return Err(EngineError::Internal(format!(
                        "resume at a host call expects Succeed or Fail, got {result:?}"
                    )));
                }
                let pending = self
                    .core
                    .pending_host
                    .lock()
                    .unwrap()
                    .take()
                    .expect("suspended engine without a pending host call");
                let w = pending.worker;
                self.core.finished.store(RUNNING, Ordering::Release);
                match result {
                    HostResult::Succeed(bindings) => {
                        let mut step = Step::new(&self.core, &mut self.workers[w]);
                        let mut ok = true;
                        let mut var_memo = std::collections::HashMap::new();
                        for (idx, term) in &bindings {
                            let Some(&arg) = pending.args.get(*idx) else {
                                return Err(EngineError::Internal(format!(
                                    "host binding index {idx} out of range for {} argument(s)",
                                    pending.args.len()
                                )));
                            };
                            let cell = step.build_term(term, &mut var_memo)?;
                            if !step.unify(arg, cell)? {
                                ok = false;
                                break;
                            }
                        }
                        if !ok {
                            step.backtrack()?;
                        }
                        self.drive_resumable()
                    }
                    _ => {
                        Step::new(&self.core, &mut self.workers[w]).backtrack()?;
                        self.drive_resumable()
                    }
                }
            }
            PREEMPTED => {
                if !matches!(result, HostResult::Continue) {
                    return Err(EngineError::Internal(format!(
                        "resume at a fuel preemption expects Continue, got {result:?}"
                    )));
                }
                // The machine state is parked between whole rounds; simply
                // restore RUNNING (the fresh fuel leg is already armed
                // above) and let the scheduler take the next round.
                self.core.finished.store(RUNNING, Ordering::Release);
                self.drive_resumable()
            }
            FAILED => Err(EngineError::Internal("resume on a completed engine".to_string())),
            _ => Err(EngineError::Internal("resume on an engine that is still running".to_string())),
        }
    }

    /// Drive the scheduler until the engine halts, then classify the halt.
    /// Drivers return immediately when the engine is already halted (e.g. a
    /// `resume(Redo)` whose backtrack exhausted the last choice point).
    fn drive_resumable(self) -> EngineResult<(RunOutcome, Engine<'p>)> {
        let engine = drive(self)?;
        let outcome = engine.current_outcome()?;
        Ok((outcome, engine))
    }

    /// Classify a halted engine's state as a [`RunOutcome`].
    fn current_outcome(&self) -> EngineResult<RunOutcome> {
        match self.core.state() {
            SUCCEEDED => Ok(RunOutcome::Suspended(SuspendReason::AnswerReady)),
            FAILED => Ok(RunOutcome::Complete),
            SUSPENDED => {
                let guard = self.core.pending_host.lock().unwrap();
                let pending = guard.as_ref().expect("suspended engine without a pending host call");
                let name = self
                    .core
                    .program
                    .hosts
                    .get(pending.host as usize)
                    .map(|(n, _)| n.clone())
                    .unwrap_or_else(|| format!("$host{}", pending.host));
                let mut args = Vec::with_capacity(pending.args.len());
                for &cell in &pending.args {
                    args.push(crate::answer::extract_cell_raw(&self.core.mem, cell)?);
                }
                Ok(RunOutcome::Suspended(SuspendReason::HostCall { name, args }))
            }
            PREEMPTED => Ok(RunOutcome::Suspended(SuspendReason::FuelExhausted)),
            _ => Err(EngineError::Internal("scheduler returned without halting the engine".to_string())),
        }
    }

    /// The current answer's query-variable bindings, without symbol-table
    /// rendering (variables print as `_G<addr>`; atoms keep their interned
    /// [`pwam_front::Atom`] inside the returned [`Term`]s).  Only meaningful
    /// while suspended at [`SuspendReason::AnswerReady`].
    pub fn answer_bindings(&self) -> EngineResult<Vec<(String, Term)>> {
        if self.core.mem.shared_read(board::STATUS) != Cell::Uint(board::STATUS_SUCCEEDED) {
            return Ok(Vec::new());
        }
        let env_addr = self.core.mem.shared_read(board::ANSWER_ENV).expect_uint("board answer env");
        let mut out = Vec::new();
        for (name, slot) in &self.core.program.query_vars {
            let addr = env::y_addr(env_addr, *slot);
            let term = crate::answer::extract_binding_raw(&self.core.mem, addr)?;
            out.push((name.clone(), term));
        }
        Ok(out)
    }

    /// Run statistics of the engine as it stands (usable mid-suspension).
    pub fn stats(&self) -> RunStats {
        self.collect_stats()
    }

    /// Drain the memory-reference trace collected so far, merging the
    /// workers' buffers back into the global interleaving order (tracing is
    /// off from here on).  Returns `None` when tracing is off.
    ///
    /// Every traced reference claimed exactly one value of a dense global
    /// sequence counter, so its sequence number *is* its index in the merged
    /// trace and the merge places each record there, comparing nothing.  The
    /// result reproduces the exact order in which the references were issued
    /// — under a strict backend the merged trace is byte-for-byte the trace
    /// a single flat buffer would have collected; under the relaxed backend
    /// it is the total order the race on the counter produced, each PE's
    /// records in its program order.  The emptied buffers are parked for the
    /// next traced build.
    pub fn take_trace(&mut self) -> Option<Vec<MemRef>> {
        let n = self.core.mem.seqs_claimed();
        // Every element is overwritten: `n` distinct indices get placed.
        let mut all = vec![MemRef::new(0, 0, false, ObjectKind::HeapTerm); n];
        let mut placed = 0;
        for wk in &mut self.workers {
            let mut records = wk.trace.take()?;
            for (seq, r) in records.drain(..) {
                all[seq as usize] = r;
                placed += 1;
            }
            park_records(records);
        }
        assert_eq!(placed, n, "a claimed sequence number has no trace record");
        Some(all)
    }

    /// Turn a finished engine into a [`RunResult`] (answers, statistics and
    /// the merged trace).
    pub fn into_result(mut self, syms: &SymbolTable) -> EngineResult<RunResult> {
        self.take_result(syms)
    }

    /// Extract the [`RunResult`] of a finished engine, leaving the engine
    /// behind for reuse (the trace buffer, if any, is drained).
    pub fn take_result(&mut self, syms: &SymbolTable) -> EngineResult<RunResult> {
        debug_assert!(self.core.finished().is_some(), "take_result on an unfinished engine");
        let outcome = if self.core.finished() == Some(true) {
            let bindings = self.extract_answer(syms)?;
            Outcome::Success(bindings)
        } else {
            Outcome::Failure
        };
        let stats = self.collect_stats();
        let trace = self.take_trace();
        Ok(RunResult { outcome, stats, trace })
    }

    /// Return a finished engine to a pristine state **without freeing its
    /// arenas**, ready to run the same program's query again: every touched
    /// memory word is cleared, the workers, boards and counters are reborn
    /// (by the same private `build` a fresh engine comes from, keeping the
    /// profile and record buffers), and tracing is re-armed per the
    /// configuration.
    /// This is the reusable-engine path of the serving layer — per-PE Stack
    /// Sets are long-lived resources (the paper's whole locality story), so a
    /// warm engine skips the arena allocation that dominates cold
    /// construction.
    ///
    /// A reset engine is observationally identical to a fresh one: the
    /// differential suite pins byte-identical answers, per-area counts and
    /// traces between fresh and reset-and-reused engines.
    pub fn reset(self) -> Self {
        let Engine { core: EngineCore { program, config, mut mem, .. }, workers } = self;
        mem.reset(config.collect_trace);
        Engine::build(program, config, mem, workers)
    }

    /// Tear the engine down to its [`Memory`], keeping the arena allocations
    /// alive for [`Engine::with_recycled_memory`] (the pool's warm path
    /// across *different* compiled programs).
    pub fn into_memory(self) -> Memory {
        self.core.mem
    }

    // -----------------------------------------------------------------
    // Scheduler SPI
    //
    // The stepping loop is owned by `sched::drive` (tests may drive rounds
    // by hand to inspect the machine between them).
    // A round gives every worker one slot:
    //
    //     engine.begin_round();
    //     let mut progress = false;
    //     for w in 0..n { progress |= engine.step_slot(w)?; }
    //     engine.end_round(progress)?;
    //
    // repeated until `halted()`.  A slot is one scheduling action for an
    // idle or waiting worker, `quantum` instructions for a running worker of
    // an N-PE engine, and a run to the next scheduling-relevant event for
    // the running worker of a one-PE engine (see `Step::run_slot`).  The
    // relaxed backend bypasses the round structure and drives each worker's
    // `Step` directly.
    // -----------------------------------------------------------------

    /// `Some(true)` once the query succeeded, `Some(false)` once it failed.
    pub fn finished(&self) -> Option<bool> {
        self.core.finished()
    }

    /// True once the engine has succeeded, failed or suspended — the
    /// drivers' exit condition (see `EngineCore::halted`).
    pub fn halted(&self) -> bool {
        self.core.halted()
    }

    /// Number of workers (PEs) in this engine.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Start a scheduling round.
    pub fn begin_round(&mut self) {
        *self.core.cycles.get_mut() += 1;
    }

    /// Give worker `w` its slot of the current round.  Returns `true` if the
    /// worker made progress.  A no-op once the query has finished.
    pub fn step_slot(&mut self, w: usize) -> EngineResult<bool> {
        let wk = &mut self.workers[w];
        let before = wk.instructions;
        let slot = Step::new(&self.core, wk).run_slot();
        // This driver owns the engine, so the slot's instructions join the
        // shared count through `&mut`, not an atomic read-modify-write.
        *self.core.steps.get_mut() += wk.instructions - before;
        slot
    }

    /// Close a scheduling round: detect deadlock and enforce the step limit.
    pub fn end_round(&mut self, any_progress: bool) -> EngineResult<()> {
        if !any_progress && !self.core.halted() {
            return Err(EngineError::Internal("scheduler deadlock: no worker can make progress".to_string()));
        }
        if self.core.steps() > self.core.config.max_steps {
            return Err(EngineError::StepLimitExceeded { limit: self.core.config.max_steps });
        }
        if cfg!(debug_assertions) {
            let core = &mut self.core;
            for (board, hint) in core.boards.iter_mut().zip(&mut core.goals_waiting) {
                assert_eq!(*hint.get_mut(), board.get_mut().unwrap().goal_frames.len(), "goals_waiting");
            }
        }
        // Per-request deadline, checked each time the cycle count crosses a
        // 1024 boundary so `Instant::now` stays off the per-instruction path
        // (a one-PE slot advances the count by up to `SLOT_CAP`, so there
        // the check runs once per slot at most).
        let cycles = *self.core.cycles.get_mut();
        if cycles >= self.core.next_deadline_check {
            self.core.next_deadline_check = (cycles | (DEADLINE_CHECK_CYCLES - 1)) + 1;
            self.core.check_deadline()?;
        }
        // Instruction fuel, checked every round: whole rounds always
        // complete before a preemption, so the stop point is a deterministic
        // function of the program (the strict backend closes every round
        // through here).
        self.core.check_fuel();
        Ok(())
    }

    /// Goal Frames still sitting on any PE's board.  Zero once a query has
    /// finished: success implies every parcall completed, and failure drains
    /// (or retracts) every scheduled goal through the cancellation protocol
    /// — a nonzero count after a run is a leak.
    pub fn pending_goal_frames(&self) -> usize {
        self.core.boards.iter().map(|b| b.lock().unwrap().goal_frames.len()).sum()
    }

    /// A 64-bit FNV-1a fingerprint of the complete *semantic* machine
    /// state: every worker's register file (X cells, unify mode, status,
    /// in-progress goal contexts, pending cancels) plus every live arena
    /// word of every Stack Set (heap, local stack, control stack, trail and
    /// goal stack up to each worker's tops, message buffer up to the
    /// board's top) and the per-PE board scalars.  Performance caches
    /// (`cp_top`), profiling attribution and statistics counters are
    /// excluded: they are not machine state.  The fuel differential suite
    /// uses this to pin preemption points to recorded goldens.
    ///
    /// Reads memory untraced only, so fingerprinting never perturbs
    /// statistics.
    pub fn state_fingerprint(&self) -> u64 {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        struct Fnv(u64);
        impl Fnv {
            fn mix(&mut self, v: u64) {
                self.0 ^= v;
                self.0 = self.0.wrapping_mul(FNV_PRIME);
            }
            fn cell(&mut self, c: Cell) {
                match c {
                    Cell::Ref(a) => (self.mix(1), self.mix(a as u64)),
                    Cell::Str(a) => (self.mix(2), self.mix(a as u64)),
                    Cell::Lis(a) => (self.mix(3), self.mix(a as u64)),
                    Cell::Con(atom) => (self.mix(4), self.mix(atom.0 as u64)),
                    Cell::Int(i) => (self.mix(5), self.mix(i as u64)),
                    Cell::Fun(atom, n) => (self.mix(6), self.mix((u64::from(atom.0) << 8) | n as u64)),
                    Cell::Code(a) => (self.mix(7), self.mix(a as u64)),
                    Cell::Uint(v) => (self.mix(8), self.mix(v as u64)),
                    Cell::Empty => (self.mix(9), ()),
                };
            }
        }
        let mem = &self.core.mem;
        let mut f = Fnv(0xcbf2_9ce4_8422_2325);
        for (w, wk) in self.workers.iter().enumerate() {
            for reg in [
                wk.p,
                wk.cp,
                wk.e,
                wk.b,
                wk.b0,
                wk.frozen_h,
                wk.frozen_local,
                wk.h,
                wk.hb,
                wk.stack_boundary,
                wk.s,
                wk.tr,
                wk.pdl,
                wk.pf,
                wk.local_top,
                wk.control_top,
                wk.goal_top,
            ] {
                f.mix(reg as u64);
            }
            f.mix(wk.num_args as u64);
            f.mix(match wk.mode {
                Mode::Read => 0,
                Mode::Write => 1,
            });
            match wk.status {
                WorkerStatus::Running => f.mix(0),
                WorkerStatus::WaitingAtPcall { addr, pf } => {
                    f.mix(1);
                    f.mix(addr as u64);
                    f.mix(pf as u64);
                }
                WorkerStatus::Cancelling { pf } => {
                    f.mix(2);
                    f.mix(pf as u64);
                }
                WorkerStatus::Idle => f.mix(3),
                WorkerStatus::Stopped => f.mix(4),
            }
            for &(pf, slot) in &wk.pending_cancels {
                f.mix(pf as u64);
                f.mix(slot as u64);
            }
            for gc in &wk.goal_contexts {
                for reg in [
                    gc.marker,
                    gc.pf,
                    gc.entry_pf,
                    gc.slot,
                    gc.entry_b,
                    gc.entry_tr,
                    gc.entry_h,
                    gc.entry_local_top,
                    gc.prev_cp,
                    gc.entry_e,
                    gc.prev_hb,
                    gc.prev_stack_boundary,
                ] {
                    f.mix(reg as u64);
                }
                f.mix(match gc.resume {
                    Resume::ToWait { addr } => 1 | (u64::from(addr) << 3),
                    Resume::ToCancel { pf } => 2 | (u64::from(pf) << 3),
                    Resume::Idle => 3,
                });
                f.mix(gc.stolen as u64);
            }
            for x in &wk.x {
                f.cell(*x);
            }
            let board = self.core.boards[w].lock().unwrap();
            f.mix(board.goal_top as u64);
            f.mix(board.msg_top as u64);
            f.mix(board.pending_messages as u64);
            for &frame in &board.goal_frames {
                f.mix(frame as u64);
            }
            for &(pf, slot) in &board.cancel_requests {
                f.mix(pf as u64);
                f.mix(slot as u64);
            }
            let msg_top = board.msg_top;
            drop(board);
            for (area, top) in [
                (Area::Heap, wk.h),
                (Area::LocalStack, wk.local_top),
                (Area::ControlStack, wk.control_top),
                (Area::Trail, wk.tr),
                (Area::GoalStack, wk.goal_top),
                (Area::Pdl, wk.pdl),
                (Area::MessageBuffer, msg_top),
            ] {
                for addr in mem.map.area_base(w, area)..top {
                    f.cell(mem.read_untraced(addr));
                }
            }
        }
        f.0
    }

    /// Verify the structural invariants of every worker's Stack Set: all
    /// tops inside their areas, the choice-point chain well-formed and its
    /// saved state inside the owning areas, trail entries pointing at
    /// bindable words, and Goal-Stack boards consistent.  Scheduling (and
    /// in particular goal stealing plus the backtracking that undoes a
    /// stolen goal) must preserve all of these between rounds; the
    /// goal-steal property tests call this after every round, and the
    /// relaxed-mode stress tests after every run.
    ///
    /// Reads memory untraced only, so checking never perturbs statistics.
    pub fn check_consistency(&self) -> Result<(), String> {
        let map = &self.core.mem.map;
        for (w, wk) in self.workers.iter().enumerate() {
            let fail = |what: &str, detail: String| Err(format!("worker {w}: {what}: {detail}"));
            let within = |area: Area, addr: u32| -> bool {
                addr >= map.area_base(w, area) && addr <= map.area_end(w, area)
            };
            if !within(Area::Heap, wk.h) || wk.hb > wk.h {
                return fail("heap top", format!("h={} hb={}", wk.h, wk.hb));
            }
            if !within(Area::LocalStack, wk.local_top) {
                return fail("local top", format!("local_top={}", wk.local_top));
            }
            if !within(Area::ControlStack, wk.control_top) {
                return fail("control top", format!("control_top={}", wk.control_top));
            }
            if !within(Area::Trail, wk.tr) {
                return fail("trail top", format!("tr={}", wk.tr));
            }
            if !within(Area::GoalStack, wk.goal_top) {
                return fail("goal top", format!("goal_top={}", wk.goal_top));
            }
            // Every push raises its own area's high-water mark; one that
            // forgot would under-report `max_usage`.
            for (area, top, max) in [
                ("heap", wk.h, wk.max_h),
                ("local stack", wk.local_top, wk.max_local_top),
                ("control stack", wk.control_top, wk.max_control_top),
                ("trail", wk.tr, wk.max_tr),
                ("goal stack", wk.goal_top, wk.max_goal_top),
            ] {
                if max < top {
                    return fail("high-water mark", format!("{area}: top {top} above its mark {max}"));
                }
            }
            if wk.e != NONE_ADDR && map.area_of(wk.e) != Area::LocalStack {
                return fail("environment register", format!("e={} outside any local stack", wk.e));
            }
            // The goal-frame board must point into this worker's own Goal
            // Stack, below the board's top.
            {
                let board = self.core.boards[w].lock().unwrap();
                if !within(Area::GoalStack, board.goal_top) {
                    return fail("goal board top", format!("goal_top={}", board.goal_top));
                }
                for &frame in &board.goal_frames {
                    if map.owner(frame) != w || map.area_of(frame) != Area::GoalStack {
                        return fail("goal frame board", format!("frame {frame} not in own goal stack"));
                    }
                    if frame >= board.goal_top {
                        return fail(
                            "goal frame board",
                            format!("frame {frame} above board top {}", board.goal_top),
                        );
                    }
                }
            }
            // Walk the choice-point chain: frames must live in this worker's
            // control stack, strictly descending, with saved state inside
            // the owning areas.
            let mut b = wk.b;
            let mut hops = 0u32;
            while b != NONE_ADDR {
                if map.owner(b) != w || map.area_of(b) != Area::ControlStack {
                    return fail("choice point", format!("b={b} not in own control stack"));
                }
                let nargs = match self.core.mem.read_untraced(b + choice::NARGS) {
                    Cell::Uint(n) => n,
                    other => return fail("choice point", format!("nargs at {b} is {other:?}")),
                };
                let tr = match self.core.mem.read_untraced(choice::saved_tr(b, nargs)) {
                    Cell::Uint(t) => t,
                    other => return fail("choice point", format!("saved tr at {b} is {other:?}")),
                };
                if !within(Area::Trail, tr) || tr > wk.tr {
                    return fail("choice point", format!("saved tr {tr} outside [base, tr={}]", wk.tr));
                }
                let h = match self.core.mem.read_untraced(choice::saved_h(b, nargs)) {
                    Cell::Uint(h) => h,
                    other => return fail("choice point", format!("saved h at {b} is {other:?}")),
                };
                if !within(Area::Heap, h) {
                    return fail("choice point", format!("saved h {h} outside own heap"));
                }
                let prev = match self.core.mem.read_untraced(choice::prev_b(b, nargs)) {
                    Cell::Uint(p) => p,
                    other => return fail("choice point", format!("prev b at {b} is {other:?}")),
                };
                if prev != NONE_ADDR && prev >= b {
                    return fail("choice point", format!("prev b {prev} not below {b}"));
                }
                b = prev;
                hops += 1;
                if hops > 1_000_000 {
                    return fail("choice point", "chain does not terminate".to_string());
                }
            }
            // Trail entries must name bindable words (heap or local stack of
            // some worker — cross-PE bindings are legal for stolen goals).
            let mut t = map.area_base(w, Area::Trail);
            while t < wk.tr {
                match self.core.mem.read_untraced(t) {
                    Cell::Uint(addr) => {
                        let area = map.area_of(addr);
                        if area != Area::Heap && area != Area::LocalStack {
                            return fail("trail entry", format!("{addr} is in the {}", area.name()));
                        }
                    }
                    other => return fail("trail entry", format!("at {t}: {other:?}")),
                }
                t += 1;
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Results
    // -----------------------------------------------------------------

    fn extract_answer(&self, syms: &SymbolTable) -> EngineResult<Vec<(String, Term)>> {
        if self.core.mem.shared_read(board::STATUS) != Cell::Uint(board::STATUS_SUCCEEDED) {
            return Ok(Vec::new());
        }
        let env_addr = self.core.mem.shared_read(board::ANSWER_ENV).expect_uint("board answer env");
        let mut out = Vec::new();
        for (name, slot) in &self.core.program.query_vars {
            let addr = env::y_addr(env_addr, *slot);
            let term = extract_binding(&self.core.mem, addr, syms)?;
            out.push((name.clone(), term));
        }
        Ok(out)
    }

    fn collect_stats(&self) -> RunStats {
        let workers: Vec<WorkerStats> = self
            .workers
            .iter()
            .zip(&self.core.boards)
            .map(|(w, board)| {
                let board = board.lock().unwrap();
                WorkerStats {
                    instructions: w.instructions,
                    idle_cycles: w.idle_cycles,
                    max_usage: w.max_usage(),
                    goals_stolen: w.goals_stolen,
                    steal_notices: board.steal_notices,
                    cancel_notices: board.cancel_notices,
                    goals_aborted: w.goals_aborted,
                    goals_while_cancelling: w.goals_while_cancelling,
                    steal_attempts: w.steal_attempts,
                    backoff_yields: w.backoff_yields,
                    backoff_parks: w.backoff_parks,
                    park_micros: w.park_micros,
                    batch_exits_budget: w.batch_exits_budget,
                    batch_exits_park: w.batch_exits_park,
                }
            })
            .collect();
        let mut area_stats = AreaStats::new(self.workers.len());
        for wk in &self.workers {
            area_stats.bulk_record(wk.id, &wk.refs.counts);
        }
        let predicate_profile = self.collect_predicate_profile();
        RunStats {
            num_workers: self.workers.len(),
            instructions: self.core.steps(),
            data_refs: area_stats.total.total(),
            reads: area_stats.total.reads,
            writes: area_stats.total.writes,
            elapsed_cycles: self.core.cycles.load(Ordering::Relaxed),
            parcalls: self.workers.iter().map(|w| w.parcalls).sum(),
            parallel_goals: self.workers.iter().map(|w| w.parallel_goals).sum(),
            goals_actually_parallel: workers.iter().map(|w| w.goals_stolen).sum(),
            inferences: self.workers.iter().map(|w| w.inferences).sum(),
            parcall_failures: self.core.parcall_failures.load(Ordering::Relaxed),
            parcalls_cancelled: self.core.parcalls_cancelled.load(Ordering::Relaxed),
            goals_cancelled: self.core.goals_cancelled.load(Ordering::Relaxed),
            cancel_requests: workers.iter().map(|w| w.cancel_notices).sum(),
            area_stats,
            workers,
            predicate_profile,
        }
    }

    /// Merge the workers' per-predicate instruction attribution and label
    /// it with resolved names.  Read-only: the run still to be charged on
    /// each worker (`Worker::prof_residual`) is added without flushing, so
    /// this is safe to call between batches (cursor stats) as well as
    /// after completion.
    fn collect_predicate_profile(&self) -> Vec<(String, u64)> {
        let mut by_addr: HashMap<u32, u64> = HashMap::new();
        for w in &self.workers {
            for (addr, count) in w.prof_counts.iter().enumerate() {
                if *count != 0 {
                    *by_addr.entry(addr as u32).or_default() += count;
                }
            }
            let (pred, run) = w.prof_residual();
            if run != 0 {
                *by_addr.entry(pred).or_default() += run;
            }
        }
        let program = self.core.program;
        let mut out: Vec<(String, u64)> = by_addr
            .into_iter()
            .map(|(addr, count)| {
                let label = program.predicate_label_at(addr).unwrap_or_else(|| {
                    // The only attribution keys that are not predicate
                    // entry points are the query body itself and (after a
                    // deep failure) code reached by restored continuations.
                    if addr >= program.query_start {
                        "$query".to_string()
                    } else {
                        match program.predicate_containing(addr) {
                            Some((_, arity)) => format!("@{addr}/{arity}"),
                            None => format!("@{addr}"),
                        }
                    }
                });
                (label, count)
            })
            .collect();
        // Collapse duplicate labels (several keys can resolve to `$query`).
        out.sort();
        out.dedup_by(|(bn, bc), (an, ac)| {
            if an == bn {
                *ac += *bc;
                true
            } else {
                false
            }
        });
        out.sort_by(|(an, ac), (bn, bc)| bc.cmp(ac).then_with(|| an.cmp(bn)));
        out
    }
}

impl<'a, 'p> Step<'a, 'p> {
    /// Pair the shared core with one worker's state and look that worker's
    /// Stack Set up: the one way a `Step` is built.
    #[inline]
    pub(crate) fn new(core: &'a EngineCore<'p>, wk: &'a mut Worker) -> Self {
        let own = core.mem.arena(wk.id as usize);
        Step { core, wk, own }
    }

    /// This worker's index.
    #[inline]
    pub(crate) fn w(&self) -> usize {
        self.wk.id as usize
    }

    // -----------------------------------------------------------------
    // The memory accessors
    // -----------------------------------------------------------------
    //
    // Every data reference the machine makes goes through `mem_read`,
    // `mem_write`, `mem_rmw` or — for consecutive words of one object kind, a
    // frame or the part of one — `mem_read_run` / `mem_write_run`, and each
    // does the same three things: count the reference(s) in this worker's
    // table, append the record(s) to this worker's buffer when the run is
    // traced, and move the word(s) — lock-free, wherever they live (see the
    // Concurrency section of [`crate::mem`]).  The worker's own Stack Set is
    // tried first, and its one checked slice access is also the test "is the
    // address mine?"; only a miss asks the address map which other PE's arena
    // it is.  A run is what its single references would be, in ascending
    // address order: same counts, same records under the same sequence
    // numbers, same words, same reset mark — `mem.rs`' tests hold the two side
    // by side.  Nothing shared is written but the words themselves, their
    // reset mark and, when tracing, the sequence counter: the worker belongs
    // to the one thread that steps it.

    /// Count one reference to the `object` word at `addr` and, when tracing,
    /// record it.
    #[inline(always)]
    fn note_ref(&mut self, addr: u32, write: bool, object: ObjectKind) {
        debug_assert_eq!(
            self.core.mem.map.area_of(addr),
            object.area(),
            "object kind {object:?} used outside its area"
        );
        self.wk.refs.count(object, write);
        if let Some(trace) = &mut self.wk.trace {
            trace.push((self.core.mem.next_seqs(1), MemRef::new(self.wk.id, addr, write, object)));
        }
    }

    /// Count `n` references to the consecutive `object` words from `addr` up
    /// and, when tracing, record them in ascending address order: what `n`
    /// calls of [`Step::note_ref`] leave.  On its own this is a run of reads
    /// whose values the worker already holds in registers (`deallocate`).
    #[inline(always)]
    pub(crate) fn note_run(&mut self, addr: u32, n: u32, write: bool, object: ObjectKind) {
        debug_assert!(
            (addr..addr + n).all(|a| self.core.mem.map.area_of(a) == object.area()),
            "object kind {object:?} used outside its area"
        );
        self.wk.refs.counts[object.index()][write as usize] += n as u64;
        if let Some(trace) = &mut self.wk.trace {
            let seq = self.core.mem.next_seqs(n);
            trace.extend((0..n).map(|i| (seq + i as u64, MemRef::new(self.wk.id, addr + i, write, object))));
        }
    }

    /// Read one word.
    #[inline(always)]
    pub(crate) fn mem_read(&mut self, addr: u32, object: ObjectKind) -> Cell {
        self.note_ref(addr, false, object);
        match self.own.load(addr) {
            Some(cell) => cell,
            None => self.core.mem.load(addr),
        }
    }

    /// Write one word.
    #[inline(always)]
    pub(crate) fn mem_write(&mut self, addr: u32, value: Cell, object: ObjectKind) {
        self.note_ref(addr, true, object);
        if !self.own.store(addr, value, object.area(), true) {
            self.core.mem.store_remote(addr, value, object.area());
        }
    }

    /// Atomically replace the `Uint` at `addr` by `f` of it and return the
    /// value replaced — exactly the read reference followed by the write
    /// reference a split pair would have made.  `f` may run more than once
    /// when updates race.
    #[inline(always)]
    pub(crate) fn mem_rmw(
        &mut self,
        addr: u32,
        object: ObjectKind,
        mut f: impl FnMut(u32) -> u32,
    ) -> EngineResult<u32> {
        self.note_ref(addr, false, object);
        let old = match self.own.update_uint(addr, object.area(), true, &mut f) {
            Some(updated) => updated?,
            None => self.core.mem.update_uint_remote(addr, object.area(), f)?,
        };
        self.note_ref(addr, true, object);
        Ok(old)
    }

    /// Read the `out.len()` consecutive `object` words from `addr` up.  A
    /// run that no one arena holds is made as its single reads, each finding
    /// its own arena.
    #[inline(always)]
    pub(crate) fn mem_read_run(&mut self, addr: u32, object: ObjectKind, out: &mut [Cell]) {
        if self.own.load_run(addr, out) || self.core.mem.load_run(addr, out) {
            self.note_run(addr, out.len() as u32, false, object);
        } else {
            for (i, cell) in out.iter_mut().enumerate() {
                *cell = self.mem_read(addr + i as u32, object);
            }
        }
    }

    /// Write `values` to the consecutive `object` words from `addr` up.  A
    /// run that no one arena holds is made as its single writes, each finding
    /// its own arena.
    #[inline(always)]
    pub(crate) fn mem_write_run(&mut self, addr: u32, object: ObjectKind, values: &[Cell]) {
        let area = object.area();
        if self.own.store_run(addr, values, area, true) || self.core.mem.store_run_remote(addr, values, area)
        {
            self.note_run(addr, values.len() as u32, true, object);
        } else {
            for (i, &value) in values.iter().enumerate() {
                self.mem_write(addr + i as u32, value, object);
            }
        }
    }

    /// Save `A1..An` in the `n` `object` words from `addr` up (a choice
    /// point's arguments).
    #[inline(always)]
    fn save_args(&mut self, addr: u32, n: u32, object: ObjectKind) {
        // A run takes its cells as a slice and `self` whole, so the X file
        // leaves the worker for the length of the call.
        let x = std::mem::take(&mut self.wk.x);
        self.mem_write_run(addr, object, &x[1..=n as usize]);
        self.wk.x = x;
    }

    /// Read the `n` `object` words from `addr` up (a choice point's or a Goal
    /// Frame's arguments) back into `A1..An`.
    #[inline(always)]
    fn load_args(&mut self, addr: u32, n: u32, object: ObjectKind) {
        let mut x = std::mem::take(&mut self.wk.x);
        self.mem_read_run(addr, object, &mut x[1..=n as usize]);
        self.wk.x = x;
    }

    /// The `Uint` at `addr` in this worker's own Stack Set, read without
    /// making a reference: what backtracking looks up about its own choice
    /// point (every choice point lies on its worker's Control stack), with
    /// no address-map division.
    #[inline(always)]
    fn own_uint(&self, addr: u32, what: &str) -> u32 {
        self.own.load(addr).expect("a choice point lies in its worker's own Stack Set").expect_uint(what)
    }

    /// Classify an address *known to lie in this worker's own arena* by the
    /// object kind of its area — the register-resident counterpart of
    /// [`EngineCore::object_for_addr`], comparing against the worker's
    /// cached area boundaries instead of dividing through the address map.
    #[inline(always)]
    pub(crate) fn own_object_kind(&self, addr: u32) -> ObjectKind {
        debug_assert!(self.own.holds(addr));
        let wk = &*self.wk;
        if addr < wk.local_base {
            ObjectKind::HeapTerm
        } else if addr < wk.control_base {
            ObjectKind::EnvPermVar
        } else if addr < wk.trail_base {
            ObjectKind::Marker
        } else if addr < wk.pdl_base {
            ObjectKind::TrailEntry
        } else if addr < wk.goal_base {
            ObjectKind::PdlEntry
        } else if addr < wk.msg_base {
            ObjectKind::GoalFrame
        } else {
            ObjectKind::Message
        }
    }

    /// Classify a data address as [`EngineCore::object_for_addr`] would,
    /// taking the boundary-register path for own-arena addresses.
    #[inline(always)]
    pub(crate) fn object_for_addr(&self, addr: u32) -> ObjectKind {
        if self.own.holds(addr) {
            self.own_object_kind(addr)
        } else {
            self.core.object_for_addr(addr)
        }
    }

    /// Bounds-check a stack top against a worker-cached area end (the same
    /// check as [`Memory::check_top`], without recomputing the end from the
    /// address map).
    #[inline(always)]
    pub(crate) fn check_cached_top(&self, end: u32, area: Area, addr: u32) -> EngineResult<()> {
        debug_assert_eq!(end, self.core.mem.map.area_end(self.w(), area));
        if addr >= end {
            Err(EngineError::OutOfMemory { worker: self.w(), area })
        } else {
            Ok(())
        }
    }

    /// Drop the cached topmost-environment words.  Called wherever `E` is
    /// restored from saved state (choice-point restore, goal wind-down):
    /// the cache only ever describes the environment the worker itself
    /// just allocated, so any other transition simply falls back to real
    /// frame reads.
    #[inline(always)]
    pub(crate) fn invalidate_env_cache(&mut self) {
        self.wk.env_cache_e = NONE_ADDR;
    }

    /// Give this worker one slot of a strict round: one scheduling action
    /// when idle or waiting, and when running either `quantum` instructions
    /// (N PEs: the interleave granularity is what the merged trace means) or
    /// a run to the next scheduling-relevant event (one PE).  Returns `true`
    /// if the worker made progress.  A no-op once the query has finished.
    ///
    /// With one PE nothing can observe where a slot ends, so the running
    /// worker executes until it parks, waits, suspends or halts (the batch
    /// loop's own exits), until the fuel or step budget is due, or for
    /// `SLOT_CAP` instructions, and `cycles` advances by the instructions
    /// retired — exactly the rounds an instruction-at-a-time driver would
    /// have counted.  Every observable therefore matches that driver: the
    /// checks in `end_round` fire after the same instruction they always did.
    pub(crate) fn run_slot(&mut self) -> EngineResult<bool> {
        let core = self.core;
        if core.halted() {
            return Ok(false);
        }
        Ok(match self.wk.status {
            WorkerStatus::Stopped => return Ok(false),
            WorkerStatus::Running => {
                if core.config.num_workers > 1 {
                    self.exec_batch(core.config.quantum)?;
                    return Ok(true);
                }
                // Stop where `end_round` would have acted: fuel preempts at
                // `steps >= fuel_limit`, the step limit errors at
                // `steps > max_steps`.  At least one instruction always
                // runs, as in a quantum-1 round.
                let steps = core.steps();
                let due = core
                    .fuel_limit
                    .load(Ordering::Relaxed)
                    .min(core.config.max_steps.saturating_add(1))
                    .saturating_sub(steps);
                let executed = self.exec_batch(due.clamp(1, SLOT_CAP as u64) as u32)?;
                // `begin_round` counted the first instruction's cycle.
                core.cycles.fetch_add((executed as u64).saturating_sub(1), Ordering::Relaxed);
                return Ok(true);
            }
            WorkerStatus::Idle => {
                self.wk.idle_cycles += 1;
                self.try_dispatch_work(Resume::Idle)?
            }
            WorkerStatus::WaitingAtPcall { addr, pf } => {
                self.wk.idle_cycles += 1;
                // Shadow check: has the Parcall Frame completed (or begun
                // failing, which the wait answers with cancellation)?  The
                // actual (traced) reads happen when the worker re-executes
                // the pcall_wait instruction.
                let n = self.core.mem.read_untraced(pf + parcall::NGOALS).expect_uint("pcall ngoals");
                let done =
                    self.core.mem.read_untraced(pf + parcall::COMPLETED).expect_uint("pcall completed");
                let status = self.core.mem.read_untraced(pf + parcall::STATUS).expect_uint("pcall status");
                if done >= n || status == parcall::STATUS_FAILED {
                    self.wk.p = addr;
                    self.wk.status = WorkerStatus::Running;
                    true
                } else {
                    self.try_dispatch_work(Resume::ToWait { addr })?
                }
            }
            WorkerStatus::Cancelling { pf } => {
                self.wk.idle_cycles += 1;
                // Shadow check, as for `WaitingAtPcall`: once every goal of
                // the cancelled frame has committed (completed, failed,
                // aborted or retracted), resume the deferred backtrack.
                let n = self.core.mem.read_untraced(pf + parcall::NGOALS).expect_uint("pcall ngoals");
                let done =
                    self.core.mem.read_untraced(pf + parcall::COMPLETED).expect_uint("pcall completed");
                if done >= n {
                    self.finish_cancellation(pf)?;
                    true
                } else {
                    // The drain can take arbitrarily long (an in-flight
                    // stolen goal only honours its `cancel_goal` at a batch
                    // boundary, and may legitimately run to completion), so
                    // a cancelling parent is not condemned to spin: it
                    // steals goals from *other* PEs meanwhile, exactly like
                    // an idle worker.  See `try_dispatch_work` for why only
                    // stolen (never own-board) goals are safe here.
                    self.try_dispatch_work(Resume::ToCancel { pf })?
                }
            }
        })
    }

    /// Execute up to `max` instructions while the worker stays `Running` and
    /// the query unfinished.  Returns the number executed, which the driver
    /// adds to the shared step count (`Worker::instructions` has them too).
    pub(crate) fn exec_batch(&mut self, max: u32) -> EngineResult<u32> {
        if self.core.steps() > self.core.config.max_steps {
            return Err(EngineError::StepLimitExceeded { limit: self.core.config.max_steps });
        }
        // `cancel_goal` requests are honoured at batch boundaries — the
        // machine state is between instructions, so aborting an in-flight
        // stolen goal here is exactly a goal failure at a clean point.
        // Requests that were not safely abortable when they arrived stay in
        // `pending_cancels` and are re-checked here until the goal either
        // becomes the innermost activity (and aborts) or commits.
        if self.core.cancel_flags[self.w()].load(Ordering::Acquire) || !self.wk.pending_cancels.is_empty() {
            self.process_cancel_requests()?;
        }
        self.exec_batch_flat(max)
    }

    // -----------------------------------------------------------------
    // Goal scheduling
    // -----------------------------------------------------------------

    /// Try to find a Goal Frame for this worker (own Goal Stack first, then
    /// — for *idle* workers — steal round-robin) and start executing it.
    /// Returns `true` if work was dispatched.
    ///
    /// A worker waiting at `pcall_wait` only picks up goals from its own
    /// board, as in the paper (stealing is how *idle* PEs find work).
    /// Letting waiting parents steal unrelated goals stacks foreign Stack
    /// Sections above their open Parcall Frames — with the leftmost branch
    /// executed inline the parent's board is often empty at the wait, and
    /// the resulting leapfrog chains were measured to inflate the
    /// local-stack high-water by ~30x on relaxed fib, far past what the
    /// program's own nesting ever needs.  Restricting steals to idle
    /// workers bounds every worker's stacks by its own subtree depth while
    /// keeping load balancing: each goal's owner can always execute it at
    /// its wait, and genuinely idle PEs still take anything.
    ///
    /// The frame's words are read *while the victim's board lock is held*:
    /// once the lock drops, the owner may pop further frames and push new
    /// ones over the recovered space, so a later read could observe a
    /// half-written successor frame.  Pushes hold the same lock, which makes
    /// the image read atomic with respect to the Goal Stack's reuse.
    /// A *cancelling* parent ([`Resume::ToCancel`]) is the mirror image: it
    /// only **steals**, never pops its own board.  Its own remaining frames
    /// belong to outer Parcall Frames of its own clause, whose goals share
    /// permanent variables with the suspended failure state — executing one
    /// locally would interleave that goal's trail section with the
    /// deferred backtrack's untrail range, and the section cannot be
    /// discarded soundly on success (the bindings reach the parent's own
    /// cells).  A goal stolen from another PE binds only cells of an
    /// *independent* parcall's dataflow, so its successful Stack Section
    /// can be frozen in place (see `Worker::frozen_h`) and its trail
    /// section dropped without the deferred backtrack ever observing it.
    pub(crate) fn try_dispatch_work(&mut self, resume: Resume) -> EngineResult<bool> {
        let w = self.w();
        let core = self.core;
        // Own goal stack first (fast local path: no Marker, no message) —
        // except under `ToCancel`, per above.
        let own = if matches!(resume, Resume::ToCancel { .. }) || !core.may_have_goals(w) {
            None
        } else {
            let mut b = core.boards[w].lock().unwrap();
            if let Some(frame) = b.goal_frames.pop() {
                core.publish_goals_waiting(w, &b);
                b.goal_top = frame;
                Some(self.read_goal_frame(frame))
            } else {
                None
            }
        };
        if let Some(img) = own {
            self.wk.goal_top = img.frame;
            self.start_goal(img, resume, false)?;
            return Ok(true);
        }
        if matches!(resume, Resume::ToWait { .. }) {
            return Ok(false);
        }
        // Steal from another worker (round-robin over victims).  One scan
        // over every victim counts as one attempt; `goals_stolen` below
        // counts the attempts that found work.  A victim whose count reads 0
        // is passed over without its lock.
        self.wk.steal_attempts += 1;
        let n = core.boards.len();
        for i in 0..n {
            let victim = (core.steal_cursor.load(Ordering::Relaxed) + i) % n;
            if victim == w || !core.may_have_goals(victim) {
                continue;
            }
            let stolen = {
                let mut b = core.boards[victim].lock().unwrap();
                if let Some(frame) = b.goal_frames.pop() {
                    core.publish_goals_waiting(victim, &b);
                    b.goal_top = frame;
                    b.steal_notices += 1;
                    Some(self.read_goal_frame(frame))
                } else {
                    None
                }
            };
            if let Some(img) = stolen {
                core.steal_cursor.store((victim + 1) % n, Ordering::Relaxed);
                self.wk.goals_stolen += 1;
                self.start_goal(img, resume, true)?;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Read a Goal Frame's words (and copy its arguments into the argument
    /// registers), producing the image `start_goal` consumes.  Callers hold
    /// the owning board's lock.
    fn read_goal_frame(&mut self, frame: u32) -> GoalFrameImage {
        let mut header = [Cell::Empty; goal_frame::HEADER as usize];
        self.mem_read_run(frame, ObjectKind::GoalFrame, &mut header);
        let [code, arity, pf, slot] = header;
        let arity = arity.expect_uint("goal arity");
        self.load_args(goal_frame::arg(frame, 0), arity, ObjectKind::GoalFrame);
        GoalFrameImage {
            frame,
            code: code.expect_code("goal code"),
            arity,
            pf: pf.expect_uint("goal pf"),
            slot: slot.expect_uint("goal slot"),
        }
    }

    /// Begin executing the goal stored in the Goal Frame at `frame`.
    ///
    /// `stolen` distinguishes goals taken from another worker's Goal Stack
    /// from goals the owner picks up itself.  Stolen goals get the full
    /// treatment (Marker on the thief's Control stack, executing-PE record
    /// in the Parcall Frame, completion message to the parent); local goals
    /// take the cheap path, which is where the original system's low
    /// parallelism overhead for not-actually-parallel goals comes from.
    fn start_goal(&mut self, img: GoalFrameImage, resume: Resume, stolen: bool) -> EngineResult<()> {
        let w = self.w();
        let GoalFrameImage { frame: _, code, arity, pf, slot } = img;

        // Record the pick-up in the Parcall Frame (atomically: under the
        // relaxed backend several PEs may grab goals of one parcall at
        // once).
        self.mem_rmw(pf + parcall::TO_SCHEDULE, ObjectKind::ParcallCount, |v| v.saturating_sub(1))?;
        if stolen {
            // The executing-PE word goes first: a cancelling parent that
            // observes `SLOT_TAKEN` must also observe a valid executor id
            // for its `cancel_goal` request (relaxed backend).
            self.mem_write(parcall::slot_pe(pf, slot), Cell::Uint(w as u32), ObjectKind::ParcallGlobal);
            self.mem_write(
                parcall::slot_status(pf, slot),
                Cell::Uint(parcall::SLOT_TAKEN),
                ObjectKind::ParcallGlobal,
            );
        }

        self.wk.parallel_goals += 1;
        if matches!(resume, Resume::ToCancel { .. }) {
            self.wk.goals_while_cancelling += 1;
        }
        self.wk.inferences += 1;

        let wk = &*self.wk;
        let (b, tr, h, local_top, e, cp, hb, sb, entry_pf) =
            (wk.b, wk.tr, wk.h, wk.local_top, wk.e, wk.cp, wk.hb, wk.stack_boundary, wk.pf);

        // Stolen goals push a Marker delimiting the new Stack Section.
        let marker_addr = if stolen {
            let m = wk.control_top;
            self.check_cached_top(wk.control_end, Area::ControlStack, m + marker::SIZE)?;
            // KIND, PF, SLOT, ENTRY_B, ENTRY_TR, ENTRY_H, ENTRY_LOCAL_TOP,
            // ENTRY_E.
            let words = [marker::KIND_GOAL, pf, slot, b, tr, h, local_top, e].map(Cell::Uint);
            self.mem_write_run(m, ObjectKind::Marker, &words);
            self.wk.control_top = m + marker::SIZE;
            self.wk.max_control_top = self.wk.max_control_top.max(self.wk.control_top);
            m
        } else {
            NONE_ADDR
        };

        let ctx = GoalContext {
            marker: marker_addr,
            pf,
            entry_pf,
            slot,
            entry_b: b,
            entry_tr: tr,
            entry_h: h,
            entry_local_top: local_top,
            prev_cp: cp,
            entry_e: e,
            prev_hb: hb,
            prev_stack_boundary: sb,
            resume,
            stolen,
            prev_marker_top: self.wk.marker_top,
        };
        let wk = &mut *self.wk;
        wk.goal_contexts.push(ctx);
        if stolen {
            wk.marker_top = marker_addr + marker::SIZE;
        }
        // Goal bodies start at a fresh predicate: move the profiling
        // attribution key along with the program counter.
        wk.prof_switch(code);
        wk.cp = self.core.program.goal_success_addr;
        wk.num_args = arity as u8;
        wk.b0 = wk.b;
        wk.p = code;
        wk.hb = wk.h;
        wk.stack_boundary = wk.local_top;
        wk.status = WorkerStatus::Running;
        Ok(())
    }

    /// Commit a parallel goal's completion (success or failure) to the
    /// Parcall Frame: notify the parent over its Message Buffer when the
    /// goal was stolen, and atomically bump the completion counter.
    ///
    /// Under [`DeterminismMode::Strict`] the commit order is the reference
    /// order (completion counter first, then the message), preserving the
    /// golden traces; under [`DeterminismMode::Relaxed`] the counter
    /// increment comes *last*, so a parent that sees the counter reach its
    /// target also sees every effect of the goal.  Both orders record the
    /// same reference multiset — only the interleaving differs.
    fn commit_completion(&mut self, stolen: bool, pf: u32, slot: u32, msg_kind: u32) -> EngineResult<()> {
        // Cross-PE commit: message first, counter increment last.
        let counter_last = self.core.config.determinism == DeterminismMode::Relaxed;
        if !counter_last {
            self.mem_rmw(pf + parcall::COMPLETED, ObjectKind::ParcallCount, |v| v + 1)?;
        }
        if stolen {
            let parent = self
                .mem_read(pf + parcall::PARENT_PE, ObjectKind::ParcallLocal)
                .expect_uint("parent pe") as usize;
            if parent != self.w() {
                self.post_message(parent, msg_kind, pf, slot)?;
            }
        }
        if counter_last {
            self.mem_rmw(pf + parcall::COMPLETED, ObjectKind::ParcallCount, |v| v + 1)?;
        }
        Ok(())
    }

    /// Executed when a parallel goal's continuation returns (the
    /// `goal_success` stub): record completion via [`Step::commit_completion`]
    /// and resume scheduling.
    pub(crate) fn finish_goal_success(&mut self) -> EngineResult<()> {
        let ctx = self
            .wk
            .goal_contexts
            .pop()
            .ok_or_else(|| EngineError::Internal("goal_success with no goal in progress".into()))?;
        let (pf, slot) = if ctx.stolen {
            // Re-read the Marker (pf, slot) as the real machine would, record
            // the completed slot and notify the parent.
            let mut words = [Cell::Empty; 2];
            self.mem_read_run(ctx.marker + marker::PF, ObjectKind::Marker, &mut words);
            let (pf, slot) = (words[0].expect_uint("marker pf"), words[1].expect_uint("marker slot"));
            self.mem_write(
                parcall::slot_status(pf, slot),
                Cell::Uint(parcall::SLOT_DONE),
                ObjectKind::ParcallGlobal,
            );
            (pf, slot)
        } else {
            (ctx.pf, ctx.slot)
        };

        self.commit_completion(ctx.stolen, pf, slot, message::KIND_DONE)?;

        let wk = &mut *self.wk;
        wk.cp = ctx.prev_cp;
        wk.e = ctx.entry_e;
        wk.env_cache_e = NONE_ADDR; // E restored from the goal context
        wk.hb = ctx.prev_hb;
        wk.stack_boundary = ctx.prev_stack_boundary;
        wk.pf = ctx.entry_pf;
        wk.marker_top = ctx.prev_marker_top;
        // Parallel goals commit to their first solution: choice points the
        // goal created are discarded on success.  Leaving them live would
        // let a later failure backtrack *into* a completed parallel goal,
        // whose Parcall/Goal-Frame bookkeeping (completion counters, slot
        // statuses, reclaimed frames) is not re-wound by the choice-point
        // machinery — re-entering such a choice point acts on dead state.
        // Deterministic goals (every registry benchmark's CGE bodies) leave
        // no choice points behind, so for them this is a no-op.
        wk.b = ctx.entry_b;
        wk.cp_top = NONE_ADDR;
        match ctx.resume {
            Resume::ToWait { addr } => {
                wk.p = addr;
                wk.status = WorkerStatus::Running;
            }
            Resume::ToCancel { pf } => {
                // The goal succeeded while this worker's own state is a
                // suspended failure.  Its results belong to another Parcall
                // Frame but live in *our* Stack Set, above the suspended
                // state — freeze them: the deferred backtrack's restore
                // targets are clamped to these floors so the section
                // survives, and the goal's trail entries are dropped so the
                // backtrack never unbinds the frozen result (every entry in
                // the section points into the independent parcall's
                // dataflow, never into our own failing branch).
                wk.frozen_h = wk.frozen_h.max(wk.h);
                wk.frozen_local = wk.frozen_local.max(wk.local_top);
                wk.tr = ctx.entry_tr;
                wk.status = WorkerStatus::Cancelling { pf };
            }
            Resume::Idle => {
                wk.status = WorkerStatus::Idle;
            }
        }
        self.recede_control_top();
        Ok(())
    }

    /// A parallel goal failed: recover the storage of its Stack Section,
    /// mark the Parcall Frame as failed and commit the completion via
    /// [`Step::commit_completion`].
    pub(crate) fn fail_goal(&mut self) -> EngineResult<()> {
        self.unwind_goal(false)
    }

    /// Like [`Step::fail_goal`], but for a goal aborted by a `cancel_goal`
    /// request: the slot and message record the cancellation instead of a
    /// logical failure.  Either way the goal commits through the completion
    /// protocol, which is what keeps the cancelling parent's drain sound.
    fn abort_goal(&mut self) -> EngineResult<()> {
        self.wk.goals_aborted += 1;
        self.unwind_goal(true)
    }

    fn unwind_goal(&mut self, cancelled: bool) -> EngineResult<()> {
        let ctx = self
            .wk
            .goal_contexts
            .pop()
            .ok_or_else(|| EngineError::Internal("goal failure with no goal in progress".into()))?;
        let (pf, slot) = (ctx.pf, ctx.slot);
        if ctx.stolen {
            // Re-read the Marker, as the real machine recovers the Stack
            // Section through it: PF and SLOT, then — `ENTRY_B` is not needed
            // — ENTRY_TR to ENTRY_E.  Only the references matter.
            let mut words = [Cell::Empty; 4];
            self.mem_read_run(ctx.marker + marker::PF, ObjectKind::Marker, &mut words[..2]);
            self.mem_read_run(ctx.marker + marker::ENTRY_TR, ObjectKind::Marker, &mut words);
        }

        // Undo the goal's bindings and recover its storage.
        self.untrail_to(ctx.entry_tr)?;
        {
            let wk = &mut *self.wk;
            // Entry tops are clamped to the frozen floors: a goal started
            // before a `ToCancel` success froze a section would otherwise
            // reclaim it here.  (Goals started *after* the freeze have
            // entry tops at or above the floors, making this a no-op.)
            wk.h = ctx.entry_h.max(wk.frozen_h);
            wk.local_top = ctx.entry_local_top.max(wk.frozen_local);
            wk.e = ctx.entry_e;
            wk.env_cache_e = NONE_ADDR; // E restored from the goal context
            wk.b = ctx.entry_b;
            wk.cp_top = NONE_ADDR;
            wk.cp = ctx.prev_cp;
            wk.hb = ctx.prev_hb;
            wk.stack_boundary = ctx.prev_stack_boundary;
            wk.pf = ctx.entry_pf;
            wk.marker_top = ctx.prev_marker_top;
            if ctx.stolen {
                wk.control_top = ctx.marker; // the marker itself is recovered
            }
        }

        // Mark the Parcall Frame.  The status merge is a `max`: plain
        // failure never downgrades a frame already under cancellation, and
        // concurrent writers (relaxed backend) cannot lose each other's
        // update because it is one compare-exchange on the word.
        let (slot_mark, msg_kind, status_mark) = if cancelled {
            (parcall::SLOT_CANCELLED, message::KIND_CANCELLED, parcall::STATUS_CANCELLED)
        } else {
            (parcall::SLOT_FAILED, message::KIND_FAILED, parcall::STATUS_FAILED)
        };
        if ctx.stolen {
            self.mem_write(parcall::slot_status(pf, slot), Cell::Uint(slot_mark), ObjectKind::ParcallGlobal);
        }
        self.mem_rmw(pf + parcall::STATUS, ObjectKind::ParcallLocal, |v| v.max(status_mark))?;
        self.commit_completion(ctx.stolen, pf, slot, msg_kind)?;

        let wk = &mut *self.wk;
        match ctx.resume {
            Resume::ToWait { addr } => {
                wk.p = addr;
                wk.status = WorkerStatus::Running;
            }
            Resume::ToCancel { pf: parent_pf } => {
                // Failure path: the goal's whole Stack Section was just
                // unwound, so there is nothing to freeze — re-park and keep
                // waiting for the cancelled frame to drain.
                wk.status = WorkerStatus::Cancelling { pf: parent_pf };
            }
            Resume::Idle => {
                wk.status = WorkerStatus::Idle;
            }
        }
        Ok(())
    }

    /// Write a completion/failure message into `parent`'s Message Buffer.
    /// The parent's board lock is held across slot allocation *and* the word
    /// writes, so concurrent posters can never interleave on one slot.
    fn post_message(&mut self, parent: usize, kind: u32, pf: u32, slot: u32) -> EngineResult<()> {
        // `core` is copied out of `self` so the guard does not pin `self`.
        let core = self.core;
        let base = core.mem.map.area_base(parent, Area::MessageBuffer);
        let size = core.mem.map.config.message_words;
        let mut board = core.boards[parent].lock().unwrap();
        let mut top = board.msg_top;
        if top + message::SIZE > base + size {
            top = base; // wrap the circular buffer
        }
        // KIND, PF, SLOT.
        self.mem_write_run(top, ObjectKind::Message, &[kind, pf, slot].map(Cell::Uint));
        board.msg_top = top + message::SIZE;
        board.pending_messages += 1;
        Ok(())
    }

    /// Consume this worker's pending completion messages (called when a
    /// Parcall Frame completes), generating the corresponding read traffic.
    pub(crate) fn consume_messages(&mut self) {
        // `core` is copied out of `self` so the guard does not pin `self`.
        let core = self.core;
        let mut board = core.boards[self.w()].lock().unwrap();
        let pending = board.pending_messages;
        if pending == 0 {
            return;
        }
        let mut addr = board.msg_top;
        for _ in 0..pending {
            // Read back the most recent messages (newest first); the values
            // only matter for the reference trace.
            addr = addr.saturating_sub(message::SIZE).max(self.wk.msg_base);
            self.mem_read_run(addr, ObjectKind::Message, &mut [Cell::Empty; message::SIZE as usize]);
        }
        board.pending_messages = 0;
    }

    // -----------------------------------------------------------------
    // Choice points and backtracking
    // -----------------------------------------------------------------

    /// Push a choice point whose next alternative is the code address
    /// `next_clause`.
    pub(crate) fn push_choice_point(&mut self, next_clause: u32) -> EngineResult<()> {
        let nargs = self.wk.num_args as u32;
        let b = self.wk.control_top;
        self.check_cached_top(self.wk.control_end, Area::ControlStack, b + choice::size(nargs))?;
        self.mem_write(b + choice::NARGS, Cell::Uint(nargs), ObjectKind::ChoicePoint);
        self.save_args(choice::arg(b, 0), nargs, ObjectKind::ChoicePoint);
        let wk = &*self.wk;
        // E, CP, previous B, BP, TR, H, PF, local top, B0 — the order this
        // run and the two of `restore_from_choice_point` go by.
        debug_assert!([
            choice::saved_e as fn(u32, u32) -> u32,
            choice::saved_cp,
            choice::prev_b,
            choice::next_clause,
            choice::saved_tr,
            choice::saved_h,
            choice::saved_pf,
            choice::saved_local_top,
            choice::saved_b0,
        ]
        .iter()
        .zip(choice::saved_e(b, nargs)..b + choice::size(nargs))
        .all(|(word, addr)| word(b, nargs) == addr));
        let saved = [
            Cell::Uint(wk.e),
            Cell::Code(wk.cp),
            Cell::Uint(wk.b),
            Cell::Code(next_clause),
            Cell::Uint(wk.tr),
            Cell::Uint(wk.h),
            Cell::Uint(wk.pf),
            Cell::Uint(wk.local_top),
            Cell::Uint(wk.b0),
        ];
        self.mem_write_run(choice::saved_e(b, nargs), ObjectKind::ChoicePoint, &saved);
        let wk = &mut *self.wk;
        wk.b = b;
        wk.hb = wk.h;
        wk.stack_boundary = wk.local_top;
        wk.control_top = b + choice::size(nargs);
        wk.cp_top = wk.control_top;
        wk.max_control_top = wk.max_control_top.max(wk.control_top);
        Ok(())
    }

    /// Restore machine state from the current choice point and continue at
    /// its next-alternative address (the retry/trust driver instruction).
    fn restore_from_choice_point(&mut self) -> EngineResult<()> {
        let b = self.wk.b;
        let nargs = self.mem_read(b + choice::NARGS, ObjectKind::ChoicePoint).expect_uint("cp nargs");
        self.load_args(choice::arg(b, 0), nargs, ObjectKind::ChoicePoint);
        // E and CP; the previous B is not restored here, so a second run
        // starts past it: BP, TR, H, PF, local top, B0.
        let mut saved = [Cell::Empty; 6];
        self.mem_read_run(choice::saved_e(b, nargs), ObjectKind::ChoicePoint, &mut saved[..2]);
        let (e, cp) = (saved[0].expect_uint("cp e"), saved[1].expect_code("cp cp"));
        self.mem_read_run(choice::next_clause(b, nargs), ObjectKind::ChoicePoint, &mut saved);
        let [bp, tr, h, pf, lt, b0] = saved;
        let (bp, tr, h) = (bp.expect_code("cp bp"), tr.expect_uint("cp tr"), h.expect_uint("cp h"));
        let (pf, lt, b0) = (pf.expect_uint("cp pf"), lt.expect_uint("cp lt"), b0.expect_uint("cp b0"));
        self.untrail_to(tr)?;
        // `E` is being restored from saved state, not from this worker's own
        // allocation path — the topmost-environment cache no longer
        // describes it.
        self.invalidate_env_cache();
        let wk = &mut *self.wk;
        wk.num_args = nargs as u8;
        wk.e = e;
        wk.cp = cp;
        // Restore targets are clamped to the frozen floors (sections of
        // `ToCancel` goals that succeeded during a cancellation): the saved
        // tops predate the frozen section, and restoring below it would
        // reclaim results an independent Parcall Frame still references.
        // Outside cancellation the floors sit at the area bases and the
        // clamp is the identity.
        let h = h.max(wk.frozen_h);
        let lt = lt.max(wk.frozen_local);
        wk.h = h;
        wk.hb = h;
        wk.pf = pf;
        wk.local_top = lt;
        wk.stack_boundary = lt;
        wk.b0 = b0;
        wk.p = bp;
        wk.cp_top = b + choice::size(nargs);
        Ok(())
    }

    /// Discard the current choice point (executed by `trust` / cut).
    pub(crate) fn pop_choice_point(&mut self) -> EngineResult<()> {
        let b = self.wk.b;
        let nargs = self.mem_read(b + choice::NARGS, ObjectKind::ChoicePoint).expect_uint("cp nargs");
        let prev = self.mem_read(choice::prev_b(b, nargs), ObjectKind::ChoicePoint).expect_uint("cp prev");
        self.wk.b = prev;
        self.wk.cp_top = NONE_ADDR; // recomputed lazily by recede_control_top
        self.refresh_backtrack_boundaries()?;
        self.recede_control_top();
        Ok(())
    }

    /// After B changed (cut / trust / the parcall's first-solution commit),
    /// refresh the `hb` / `stack_boundary` trailing boundaries from the new
    /// current choice point.
    pub(crate) fn refresh_backtrack_boundaries(&mut self) -> EngineResult<()> {
        let b = self.wk.b;
        // With no choice point left, the failure boundary is the enclosing
        // parallel goal's *entry* state (what `start_goal` set), or the
        // area bases outside any goal.  The entry values matter: using the
        // worker's current `hb`/`stack_boundary` here would freeze a
        // boundary raised by a since-discarded choice point — e.g. the
        // clause-selection point of an inline `fib(1)` leaf — below which
        // no environment or Parcall Frame could ever be reclaimed again,
        // leaking local stack proportional to the call tree.
        let (goal_hb, goal_sb) = match self.wk.goal_contexts.last() {
            Some(c) => (c.entry_h, c.entry_local_top),
            None => (self.wk.heap_base, self.wk.local_base),
        };
        if b == NONE_ADDR {
            let wk = &mut *self.wk;
            wk.hb = goal_hb.max(wk.frozen_h).min(wk.h);
            wk.stack_boundary = goal_sb.max(wk.frozen_local).min(wk.local_top);
            return Ok(());
        }
        let nargs = self.mem_read(b + choice::NARGS, ObjectKind::ChoicePoint).expect_uint("cp nargs");
        let h = self.mem_read(choice::saved_h(b, nargs), ObjectKind::ChoicePoint).expect_uint("cp h");
        let lt =
            self.mem_read(choice::saved_local_top(b, nargs), ObjectKind::ChoicePoint).expect_uint("cp lt");
        let wk = &mut *self.wk;
        // Clamped like the restore targets: bindings into a frozen section
        // must be trailed (the section is never reclaimed wholesale), and a
        // backtrack can only restore tops down to the floor.
        wk.hb = h.max(wk.frozen_h);
        wk.stack_boundary = lt.max(wk.frozen_local);
        Ok(())
    }

    /// Recover Control-stack space if the discarded frames were topmost.
    pub(crate) fn recede_control_top(&mut self) {
        let wk = &*self.wk;
        // A stolen goal's Marker stays until the goal ends; `marker_top`
        // follows the innermost one as goals start and end.
        debug_assert_eq!(
            wk.marker_top,
            wk.goal_contexts
                .iter()
                .rev()
                .find(|c| c.stolen)
                .map_or(wk.control_base, |c| c.marker + marker::SIZE)
        );
        let marker_top = wk.marker_top;
        let b_top = if wk.b == NONE_ADDR {
            wk.control_base
        } else if wk.cp_top != NONE_ADDR {
            // Fast path: the frame extent is cached in the worker's
            // register file (set by `push_choice_point` / the previous
            // recomputation), so the hot success path touches no memory.
            debug_assert_eq!(wk.cp_top, wk.b + choice::size(self.own_uint(wk.b + choice::NARGS, "cp nargs")));
            wk.cp_top
        } else {
            // The frame's true extent comes from its saved argument count —
            // an untraced host-side read: `num_args` may have changed since
            // the frame was pushed, and a shorter bound would let the next
            // push clobber the live frame's saved fields.  Cache it: `b`
            // only changes through sites that refresh or invalidate
            // `cp_top`, so the value stays good until the next cut/pop.
            let top = wk.b + choice::size(self.own_uint(wk.b + choice::NARGS, "cp nargs"));
            self.wk.cp_top = top;
            top
        };
        let wk = &*self.wk;
        let new_top = marker_top.max(b_top).max(wk.control_base);
        if new_top < wk.control_top {
            self.wk.control_top = new_top;
        }
    }

    /// Undo trailed bindings down to `target`.
    pub(crate) fn untrail_to(&mut self, target: u32) -> EngineResult<()> {
        while self.wk.tr > target {
            self.wk.tr -= 1;
            let taddr = self.wk.tr;
            let addr = self.mem_read(taddr, ObjectKind::TrailEntry).expect_uint("trail entry");
            let obj = self.object_for_addr(addr);
            self.mem_write(addr, Cell::Ref(addr), obj);
        }
        Ok(())
    }

    /// Handle a failure on this worker: either the current parallel goal
    /// fails, the whole query fails, or we backtrack into the most recent
    /// choice point.
    ///
    /// Before the failure target is restored, backward execution runs: if
    /// the restore would cross an *incomplete* Parcall Frame on this
    /// worker's `PF` chain (the parent of an inline CGE branch failing
    /// before `pcall_wait`), the frame is cancelled — un-stolen Goal Frames
    /// retracted, `cancel_goal` sent after in-flight ones — and the
    /// backtrack is deferred until the frame's completion counter drains.
    pub(crate) fn backtrack(&mut self) -> EngineResult<()> {
        self.backtrack_with(true)
    }

    /// The body of [`Step::backtrack`].  `record_failure` is true for an
    /// original failure and false when `finish_cancellation` resumes a
    /// deferred one, so `parcall_failures` counts each logical failure
    /// exactly once — at its originating backtrack, whether it then fails
    /// a goal, restores a choice point, or fails the query.
    fn backtrack_with(&mut self, record_failure: bool) -> EngineResult<()> {
        let b = self.wk.b;
        let at_goal_boundary = self.wk.goal_contexts.last().map(|c| c.entry_b == b).unwrap_or(false);
        let mut crossing = false;
        if self.wk.pf != NONE_ADDR {
            // Where would this failure leave the PF register?  Restoring a
            // choice point rewinds it to the frame open when the choice
            // point was pushed; failing a parallel goal rewinds it to the
            // goal-entry value; failing the query abandons the whole chain.
            let target_pf = if at_goal_boundary {
                self.wk.goal_contexts.last().map(|c| c.entry_pf).unwrap_or(NONE_ADDR)
            } else if b == NONE_ADDR {
                NONE_ADDR
            } else {
                let nargs = self.own_uint(b + choice::NARGS, "cp nargs");
                self.own_uint(choice::saved_pf(b, nargs), "cp pf")
            };
            crossing = self.wk.pf != target_pf;
            if crossing {
                if record_failure {
                    self.core.parcall_failures.fetch_add(1, Ordering::Relaxed);
                }
                if self.begin_parcall_cancellation(target_pf)? {
                    // Deferred: the worker is now `Cancelling`; the failure
                    // resumes from `finish_cancellation` once the frame
                    // drains.
                    return Ok(());
                }
            }
        }
        if at_goal_boundary {
            if record_failure && !crossing {
                self.core.parcall_failures.fetch_add(1, Ordering::Relaxed);
            }
            return self.fail_goal();
        }
        if b == NONE_ADDR {
            self.core.mem.shared_write(board::STATUS, Cell::Uint(board::STATUS_FAILED));
            self.core.set_finished(false);
            self.wk.status = WorkerStatus::Stopped;
            return Ok(());
        }
        self.restore_from_choice_point()
    }

    /// Walk this worker's Parcall-Frame chain from `PF` down to (exclusive)
    /// `target_pf`, cancelling every incomplete frame on the way: retract
    /// its un-stolen Goal Frames, post `cancel_goal` for the in-flight
    /// stolen ones, and account the retractions so the completion counter
    /// still converges to `NGOALS`.  Returns `true` when some frame still
    /// has goals in flight — the worker is parked in
    /// [`WorkerStatus::Cancelling`] and the caller's failure is deferred —
    /// and `false` once every frame down to the target has fully drained.
    fn begin_parcall_cancellation(&mut self, target_pf: u32) -> EngineResult<bool> {
        let mut pf = self.wk.pf;
        while pf != target_pf && pf != NONE_ADDR {
            let status = self.mem_read(pf + parcall::STATUS, ObjectKind::ParcallLocal).expect_uint("status");
            let n = self.mem_read(pf + parcall::NGOALS, ObjectKind::ParcallLocal).expect_uint("ngoals");
            let done =
                self.mem_read(pf + parcall::COMPLETED, ObjectKind::ParcallCount).expect_uint("completed");
            if done < n {
                if status != parcall::STATUS_CANCELLED {
                    self.cancel_parcall_frame(pf)?;
                }
                let done =
                    self.mem_read(pf + parcall::COMPLETED, ObjectKind::ParcallCount).expect_uint("completed");
                if done < n {
                    self.wk.status = WorkerStatus::Cancelling { pf };
                    return Ok(true);
                }
            }
            self.consume_messages();
            pf = self.mem_read(pf + parcall::PREV_PF, ObjectKind::ParcallLocal).expect_uint("prev pf");
        }
        Ok(false)
    }

    /// Cancel one Parcall Frame: mark it, retract its un-stolen Goal Frames
    /// from this worker's board (each is accounted as completed so the
    /// counter still converges), and post a `cancel_goal` request to the
    /// executor of every in-flight stolen slot.  In-flight goals are never
    /// abandoned: they drain through the completion protocol, either by
    /// finishing normally or by aborting at the executor's next batch
    /// boundary.
    pub(crate) fn cancel_parcall_frame(&mut self, pf: u32) -> EngineResult<()> {
        let w = self.w();
        self.mem_rmw(pf + parcall::STATUS, ObjectKind::ParcallLocal, |v| v.max(parcall::STATUS_CANCELLED))?;
        self.core.parcalls_cancelled.fetch_add(1, Ordering::Relaxed);

        // Retract the frame's un-stolen Goal Frames under the board lock
        // (which serialises against thieves popping concurrently): once the
        // lock drops, every remaining goal of this frame is either already
        // committed or in an executor's hands.
        let mut retracted = 0u32;
        {
            // `core` is copied out of `self` so the guard does not pin `self`.
            let core = self.core;
            let mut board = core.boards[w].lock().unwrap();
            let mut kept = Vec::with_capacity(board.goal_frames.len());
            for &frame in board.goal_frames.iter() {
                let frame_pf =
                    self.mem_read(frame + goal_frame::PF, ObjectKind::GoalFrame).expect_uint("goal pf");
                if frame_pf == pf {
                    let slot =
                        self.mem_read(frame + goal_frame::SLOT, ObjectKind::GoalFrame).expect_uint("slot");
                    self.mem_write(
                        parcall::slot_status(pf, slot),
                        Cell::Uint(parcall::SLOT_CANCELLED),
                        ObjectKind::ParcallGlobal,
                    );
                    retracted += 1;
                } else {
                    kept.push(frame);
                }
            }
            board.goal_frames = kept;
            core.publish_goals_waiting(w, &board);
            board.goal_top = match board.goal_frames.last() {
                Some(&top) => {
                    let arity =
                        self.mem_read(top + goal_frame::ARITY, ObjectKind::GoalFrame).expect_uint("arity");
                    top + goal_frame::size(arity)
                }
                None => self.wk.goal_base,
            };
            self.wk.goal_top = board.goal_top;
        }
        for _ in 0..retracted {
            self.mem_rmw(pf + parcall::TO_SCHEDULE, ObjectKind::ParcallCount, |v| v.saturating_sub(1))?;
            self.mem_rmw(pf + parcall::COMPLETED, ObjectKind::ParcallCount, |v| v + 1)?;
        }
        self.core.goals_cancelled.fetch_add(retracted as u64, Ordering::Relaxed);

        // `cancel_goal` for every in-flight stolen slot.  Slots are written
        // lazily, so an untouched word means the goal was never stolen
        // (pending — just retracted — or executed by this worker through
        // the local path).
        let n = self.mem_read(pf + parcall::NGOALS, ObjectKind::ParcallLocal).expect_uint("ngoals");
        for k in 0..n {
            let status = self.mem_read(parcall::slot_status(pf, k), ObjectKind::ParcallGlobal);
            if status != Cell::Uint(parcall::SLOT_TAKEN) {
                continue;
            }
            let executor = self
                .mem_read(parcall::slot_pe(pf, k), ObjectKind::ParcallGlobal)
                .expect_uint("slot pe") as usize;
            if executor == w {
                continue; // cannot happen: own goals take the local path
            }
            {
                let mut board = self.core.boards[executor].lock().unwrap();
                board.cancel_requests.push((pf, k));
                board.cancel_notices += 1;
            }
            self.core.cancel_flags[executor].store(true, Ordering::Release);
        }
        Ok(())
    }

    /// A cancelled frame has fully drained: re-read its counters as the
    /// real machine would, consume the completion messages, and resume the
    /// deferred backtrack (which may immediately cancel the next frame on
    /// the chain).
    fn finish_cancellation(&mut self, pf: u32) -> EngineResult<()> {
        let _ = self.mem_read(pf + parcall::NGOALS, ObjectKind::ParcallLocal);
        let _ = self.mem_read(pf + parcall::COMPLETED, ObjectKind::ParcallCount);
        self.consume_messages();
        self.wk.status = WorkerStatus::Running;
        // Resuming the *same* logical failure: don't re-count it.
        self.backtrack_with(false)
    }

    /// Drain this worker's `cancel_goal` requests.  A request is honoured —
    /// the goal aborted through [`Step::abort_goal`] — only when the named
    /// goal is the worker's *innermost* activity, it has no Parcall Frame
    /// of its own still open (`PF` back at the goal-entry value), **and**
    /// the live frame at that address confirms the abort: its status is
    /// cancelled and its slot still records this worker as the taken
    /// executor.  The confirmation closes an ABA hole — a stale request
    /// naming a frame address that was freed and re-allocated must not
    /// kill the healthy goal of the new incarnation (whose status is OK).
    ///
    /// A request whose target is still live on this worker's context stack
    /// but **not** safely abortable right now — the goal called deeper
    /// work, opened its own Parcall Frame, or the worker is mid-transition
    /// — is *kept pending* and re-checked at every subsequent batch
    /// boundary until the goal either becomes abortable or commits.
    /// (Dropping it, as this function used to, let the doomed goal run to
    /// completion whenever the request arrived at an unlucky boundary.)
    /// Only requests with no matching live context (the goal already
    /// committed, or the address was recycled) are discarded.
    fn process_cancel_requests(&mut self) -> EngineResult<()> {
        let w = self.w();
        let mut requests = std::mem::take(&mut self.wk.pending_cancels);
        if self.core.cancel_flags[w].load(Ordering::Acquire) {
            let mut board = self.core.boards[w].lock().unwrap();
            self.core.cancel_flags[w].store(false, Ordering::Release);
            requests.extend(std::mem::take(&mut board.cancel_requests));
        }
        for (pf, slot) in requests {
            let live = self.wk.goal_contexts.iter().any(|c| c.stolen && c.pf == pf && c.slot == slot);
            if !live {
                continue; // committed (or recycled address): nothing to abort
            }
            let ctx_matches = match self.wk.goal_contexts.last() {
                Some(c) => c.stolen && c.pf == pf && c.slot == slot && self.wk.pf == c.entry_pf,
                None => false,
            };
            if !ctx_matches || self.wk.status != WorkerStatus::Running {
                self.wk.pending_cancels.push((pf, slot));
                continue;
            }
            // The matching context pins the frame live (its parent cannot
            // pass the drain while this goal is uncommitted), so these
            // words are valid whatever incarnation the request came from.
            let status = self.mem_read(pf + parcall::STATUS, ObjectKind::ParcallLocal).expect_uint("status");
            let slot_status = self
                .mem_read(parcall::slot_status(pf, slot), ObjectKind::ParcallGlobal)
                .expect_uint("slot status");
            if status != parcall::STATUS_CANCELLED || slot_status != parcall::SLOT_TAKEN {
                continue;
            }
            // Safe to read only behind a TAKEN status (the thief writes its
            // id first; a PENDING slot's executor word is uninitialised).
            let slot_pe =
                self.mem_read(parcall::slot_pe(pf, slot), ObjectKind::ParcallGlobal).expect_uint("slot pe");
            if slot_pe as usize == w {
                self.abort_goal()?;
            }
        }
        Ok(())
    }

    /// Called by the `halt` builtin: the query succeeded.  The answer
    /// location is published on the query board in the shared region, where
    /// any PE (or the host) can read it, *before* the finished flag flips,
    /// so every observer of the flag sees the answer.
    pub(crate) fn query_succeeded(&mut self) {
        self.core.mem.shared_write(board::STATUS, Cell::Uint(board::STATUS_SUCCEEDED));
        self.core.mem.shared_write(board::ANSWER_PE, Cell::Uint(self.w() as u32));
        self.core.mem.shared_write(board::ANSWER_ENV, Cell::Uint(self.wk.e));
        self.core.set_finished(true);
        self.wk.status = WorkerStatus::Stopped;
    }

    /// Execute a `call_host`: flip the machine RUNNING→SUSPENDED so every
    /// driver winds down at this instruction boundary, record the call for
    /// [`Engine::resume`], and point this worker's `p` at the continuation.
    ///
    /// Returns `false` on a lost race (another worker succeeded, failed or
    /// suspended first): the caller must leave `p` at the `call_host`
    /// instruction so it re-executes when (if) control ever comes back —
    /// re-execution is idempotent because the argument registers are
    /// untouched.  The inference is counted only on the winning path for
    /// the same reason.
    pub(crate) fn suspend_host(&mut self, host: u32, arity: u8, cont: u32) -> bool {
        if self
            .core
            .finished
            .compare_exchange(RUNNING, SUSPENDED, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        let args: Vec<Cell> = (1..=arity as usize).map(|i| self.wk.x[i]).collect();
        *self.core.pending_host.lock().unwrap() = Some(PendingHostCall { worker: self.w(), host, args });
        self.wk.inferences += 1;
        self.wk.p = cont;
        true
    }

    /// Build a source-level [`Term`] on this worker's heap, for unifying a
    /// host predicate's output bindings into the machine.  Variables are
    /// memoized by name in `memo` so one [`HostResult::Succeed`] reply
    /// shares variables across its bindings.
    pub(crate) fn build_term(
        &mut self,
        term: &Term,
        memo: &mut std::collections::HashMap<String, Cell>,
    ) -> EngineResult<Cell> {
        match term {
            Term::Int(i) => Ok(Cell::Int(*i)),
            Term::Atom(a) => Ok(Cell::Con(*a)),
            Term::Var(name) => {
                if let Some(&cell) = memo.get(name) {
                    return Ok(cell);
                }
                let cell = self.new_heap_var()?;
                memo.insert(name.clone(), cell);
                Ok(cell)
            }
            Term::Struct(f, args) if *f == known::DOT && args.len() == 2 => {
                let head = self.build_term(&args[0], memo)?;
                let tail = self.build_term(&args[1], memo)?;
                let p = self.heap_push(head)?;
                self.heap_push(tail)?;
                Ok(Cell::Lis(p))
            }
            Term::Struct(f, args) if args.is_empty() => Ok(Cell::Con(*f)),
            Term::Struct(f, args) => {
                let mut cells = Vec::with_capacity(args.len());
                for arg in args {
                    cells.push(self.build_term(arg, memo)?);
                }
                let p = self.heap_push(Cell::Fun(*f, args.len() as u8))?;
                for cell in cells {
                    self.heap_push(cell)?;
                }
                Ok(Cell::Str(p))
            }
        }
    }
}
