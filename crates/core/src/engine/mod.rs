//! The multi-worker RAP-WAM engine.
//!
//! The engine executes a [`CompiledProgram`] on a configurable number of
//! workers (PEs).  The stepping loops live in [`crate::sched`]; the engine
//! only defines what one worker does with one slot.  Internally the engine
//! is split along the line an actually-parallel backend needs:
//!
//! * [`EngineCore`] — state shared by every PE, behind interior mutability:
//!   the program, the sharded [`Memory`], atomic run counters, the
//!   completion flag and the answer's place, and one *board* per PE (its
//!   Goal-Stack mirror and Message-Buffer allocation state) that other PEs
//!   may touch under a lock.
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

use crate::error::{EngineError, EngineResult};
use crate::frames::{choice, env, goal_frame, marker, message};
use crate::layout::{Area, MemoryConfig, ObjectKind};
use crate::mem::{Memory, StackSetArena};
use crate::sched::{drive, DeterminismMode, SchedulerKind};
use crate::session::HostFn;
use crate::stats::RunStats;
use crate::trace::MemRef;
use crate::worker::{Worker, WorkerStatus};
use pwam_compiler::CompiledProgram;
use pwam_front::SymbolTable;
use pwam_front::Term;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod access;
mod backtrack;
mod goals;
mod results;
mod sched_spi;

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
    /// scheduling-relevant event instead.  At quantum 1 so does the running
    /// worker of a solo round, in which no other worker can act (see
    /// `Engine::step_slot`).  The relaxed backend never reads it.
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
    /// Deterministic instruction-fuel budget **per execution leg** (a run,
    /// or one step of a cursor, re-arms it, mirroring the per-leg deadline
    /// clock).
    /// `None` (the default) means unlimited.  Unlike `time_budget`, fuel is
    /// counted in executed instructions, so where a run stops is a pure
    /// function of the program: the strict backend preempts at the first
    /// round boundary at or past the budget (checked in `end_round`),
    /// leaving a machine state the fuel suite pins by fingerprint.  The
    /// relaxed backend checks fuel at its existing batch boundaries, so
    /// preemption is prompt but the exact stop point is schedule-dependent
    /// there (same contract as every other relaxed-mode observable).  A
    /// preempted one-shot run fails with [`EngineError::FuelExhausted`]; a
    /// cursor's engine stays parked ([`Engine::finished`] reads `None`,
    /// [`Engine::halted`] `true`) and its next step continues it in place.
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
    pub(crate) goal_frames: Vec<u32>,
    /// Authoritative Goal-Stack allocation top.
    pub(crate) goal_top: u32,
    /// Next free slot in the Message Buffer (bump allocation with wrap).
    pub(crate) msg_top: u32,
    /// Number of unread messages in the Message Buffer.
    pub(crate) pending_messages: u32,
    /// Pending `cancel_goal` requests `(pf, slot)` for in-flight stolen
    /// goals this PE is executing, posted by the cancelling parent under
    /// this board's lock and drained by the owner at instruction-batch
    /// boundaries.
    pub(crate) cancel_requests: Vec<(u32, u32)>,
    /// Goals thieves took from this PE's Goal Stack (a statistic, counted
    /// inside the critical section of the pop).
    pub(crate) steal_notices: u64,
    /// `cancel_goal` requests posted to this PE (a statistic, counted beside
    /// the push onto `cancel_requests`).
    pub(crate) cancel_notices: u64,
}

/// `finished` encoding in [`EngineCore`]: the engine halts in exactly three
/// ways.  `SUCCEEDED` doubles as a cursor's answer boundary: a first
/// solution is terminal for [`Engine::run`], while a cursor fails back into
/// the engine from it (`Engine::redo`) for the next one.
const RUNNING: u8 = 0;
const SUCCEEDED: u8 = 1;
const FAILED: u8 = 2;
/// Execution stopped because the per-leg instruction-fuel budget ran out.
/// The machine state is parked between whole scheduling rounds, and
/// `Engine::run_leg` continues it in place.
const PREEMPTED: u8 = 3;

/// Most instructions one run-to-event slot — the running worker's slot of a
/// one-PE engine or of a solo round — retires before returning to the round
/// driver (see `Engine::step_slot`).  Sized by the benchmark's
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
pub(crate) struct EngineCore<'p> {
    pub(crate) program: &'p CompiledProgram,
    pub(crate) config: EngineConfig,
    pub(crate) mem: Memory,
    /// Query status: `RUNNING` / `SUCCEEDED` / `FAILED` / `PREEMPTED`.
    finished: AtomicU8,
    /// The PE that produced the current answer and the environment holding
    /// its bindings: stored by `Step::query_succeeded` before `finished`
    /// flips, read by [`Engine::answer_bindings`] and [`Engine::redo`] once
    /// the drivers have returned.  `Relaxed` both ways: the outcome's
    /// compare-exchange (Release) or the relaxed threads' join orders the
    /// stores before any read.
    answer_pe: AtomicUsize,
    answer_env: AtomicU32,
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
    /// The closures of the program's host predicates, indexed like
    /// `CompiledProgram::hosts`: resolved by the session that builds the
    /// engine (`Engine::with_hosts`), empty for an engine built alone.
    hosts: Vec<Arc<HostFn>>,
    /// When the current execution leg started (re-armed by `start_leg`); the
    /// reference point for the `time_budget` deadline.
    started: Instant,
    /// Absolute `steps` threshold at which the current execution leg is
    /// preempted (`u64::MAX` = unlimited).  Re-armed to
    /// `steps + config.fuel` by `start_leg`, at the start of every leg.
    fuel_limit: AtomicU64,
}

impl<'p> EngineCore<'p> {
    /// `Some(true)` once the query succeeded, `Some(false)` once it failed.
    /// A *preempted* engine (parked at spent fuel) reports `None`: it has
    /// no outcome yet.  Drivers must gate on `EngineCore::halted`, which
    /// also covers preemption.
    pub(crate) fn finished(&self) -> Option<bool> {
        match self.finished.load(Ordering::Acquire) {
            RUNNING | PREEMPTED => None,
            SUCCEEDED => Some(true),
            _ => Some(false),
        }
    }

    /// True once execution must stop handing out slots: the query succeeded,
    /// failed, or was preempted at spent fuel.  This is the drivers' exit
    /// gate; [`EngineCore::finished`] stays the *outcome* accessor.
    #[inline]
    pub(crate) fn halted(&self) -> bool {
        self.finished.load(Ordering::Acquire) != RUNNING
    }

    /// Record the query outcome (the first outcome wins).  An outcome also
    /// wins over a preemption: a relaxed PE may spend the leg's fuel while
    /// another is mid-batch on its way to the answer or the end, and that
    /// outcome must not be lost.  The strict driver never executes an
    /// instruction after it preempts.
    fn set_finished(&self, success: bool) {
        let outcome = if success { SUCCEEDED } else { FAILED };
        let _ = self.finished.fetch_update(Ordering::AcqRel, Ordering::Acquire, |state| {
            matches!(state, RUNNING | PREEMPTED).then_some(outcome)
        });
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
    pub(crate) fn may_have_goals(&self, w: usize) -> bool {
        self.goals_waiting[w].load(Ordering::Relaxed) != 0
    }

    /// Whether every board reads empty: an idle PE has nothing to steal.
    #[inline]
    fn no_goals_waiting(&self) -> bool {
        self.goals_waiting.iter().all(|g| g.load(Ordering::Relaxed) == 0)
    }

    /// Instructions executed so far across all PEs (as of the last flush).
    pub(crate) fn steps(&self) -> u64 {
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
    /// *not* an error: the machine state stays parked for the next leg
    /// (`Engine::run_leg`).  The CAS keeps a query that succeeded or failed
    /// in the same round ahead of the preemption.  One relaxed load when no
    /// fuel is configured, so it runs unconditionally every round.
    pub(crate) fn check_fuel(&self) {
        if self.steps.load(Ordering::Relaxed) >= self.fuel_limit.load(Ordering::Relaxed) {
            let _ = self.finished.compare_exchange(RUNNING, PREEMPTED, Ordering::AcqRel, Ordering::Acquire);
        }
    }

    /// Start a fresh execution leg (a run, or one cursor step): restart the
    /// deadline clock and arm the fuel threshold.
    fn start_leg(&mut self) {
        self.started = Instant::now();
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
/// use pwam_front::{parse_program, parse_query, SymbolTable};
/// use rapwam::{Engine, EngineConfig};
///
/// let mut syms = SymbolTable::new();
/// let program = parse_program("p(1).\np(2).", &mut syms).unwrap();
/// let query = parse_query("p(X)", &mut syms).unwrap();
/// let compiled =
///     compile_program_and_query(&program, &query, &mut syms, CompileOptions::parallel()).unwrap();
///
/// let engine = Engine::new(&compiled, EngineConfig { num_workers: 2, ..EngineConfig::default() });
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
    /// End the batch after the first Goal Frame this worker pushes: set for
    /// a solo round in which an idle PE would steal the frame in its next
    /// slot (see `Engine::step_slot`).
    pub(crate) end_on_push: bool,
}

impl<'p> Engine<'p> {
    /// Create an engine ready to run the program's query.
    pub fn new(program: &'p CompiledProgram, config: EngineConfig) -> Self {
        let mem = Memory::new(config.memory, config.num_workers);
        Engine::build(program, config, mem)
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
            memory.reset();
            (Engine::build(program, config, memory), true)
        } else {
            // Dropped before the build, not after it: a dropped memory parks
            // its word arrays, and only parked arrays can serve the new one.
            drop(memory);
            (Engine::new(program, config), false)
        }
    }

    /// Assemble an engine around an already-allocated (pristine) memory.
    /// This is the one spelling of the machine's state before its first
    /// instruction — workers, boards, flags, counters — for a cold build and
    /// a build on recycled arenas alike.  A traced build gives each worker a
    /// parked record buffer where there is one.
    fn build(program: &'p CompiledProgram, config: EngineConfig, mem: Memory) -> Self {
        assert!(config.num_workers >= 1, "at least one worker is required");
        assert!(config.num_workers <= 255, "at most 255 workers are supported");
        let config_fuel = config.fuel;
        let mut workers: Vec<Worker> =
            (0..config.num_workers).map(|i| Worker::new(i as u8, &mem.map)).collect();
        for wk in &mut workers {
            wk.arm_trace(config.collect_trace);
            // Per-predicate profile storage, indexed by code address (entry
            // points of the predicates actually called).  The query body is
            // charged to `query_start` until the first call.
            wk.prof_counts = vec![0; program.code_len()];
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
                answer_pe: AtomicUsize::new(0),
                answer_env: AtomicU32::new(0),
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
                hosts: Vec::new(),
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
    /// caller can recover its arenas with [`Engine::into_memory`] for the
    /// next build on them ([`Engine::with_recycled_memory`]).  On error the
    /// engine is lost — a pool simply rebuilds cold on the next request.
    pub fn run_reusable(self, syms: &SymbolTable) -> EngineResult<(RunResult, Engine<'p>)> {
        let mut engine = self.run_leg()?;
        if engine.finished().is_none() {
            // One-shot callers have no way to grant more fuel, so preemption
            // surfaces as an error (the engine is lost, like any other
            // errored run).  A cursor's next step continues instead.
            let fuel = engine.core.config.fuel.unwrap_or(0);
            return Err(EngineError::FuelExhausted { fuel });
        }
        let result = engine.take_result(syms)?;
        Ok((result, engine))
    }

    /// Hand the engine the closures of its program's host predicates,
    /// indexed like `CompiledProgram::hosts` (see `Step::call_host`).
    pub(crate) fn with_hosts(mut self, hosts: Vec<Arc<HostFn>>) -> Self {
        self.core.hosts = hosts;
        self
    }

    /// One execution leg: arm a fresh leg of fuel and deadline and drive
    /// the engine until it halts — at an answer (`finished() == Some(true)`),
    /// at the end (`Some(false)`) or at spent fuel (`None`).  Starts a fresh
    /// engine and continues a preempted one, whose machine state is parked
    /// between whole rounds.  The engine keeps its entire machine state, so
    /// a cursor reads the answer off it and later legs go on from there.
    pub(crate) fn run_leg(mut self) -> EngineResult<Engine<'p>> {
        self.core.start_leg();
        let finished = self.core.finished.get_mut();
        if *finished == PREEMPTED {
            *finished = RUNNING;
        }
        drive(self)
    }

    /// Fail back into an engine halted at an answer for the next one: the
    /// cursor's redo leg.  Restores `RUNNING`, revives the worker that
    /// produced the answer (the only stopped one — a worker stops only
    /// through query success or query failure), backtracks it into its next
    /// alternative and drives the engine to its next halt, as
    /// [`Engine::run_leg`] does (a backtrack that exhausts the last choice
    /// point halts it at `FAILED`, and the driver returns at once).
    pub(crate) fn redo(mut self) -> EngineResult<Engine<'p>> {
        debug_assert_eq!(self.finished(), Some(true), "redo away from an answer");
        self.core.start_leg();
        *self.core.finished.get_mut() = RUNNING;
        let w = *self.core.answer_pe.get_mut();
        self.workers[w].status = WorkerStatus::Running;
        Step::new(&self.core, &mut self.workers[w]).backtrack()?;
        drive(self)
    }

    /// Tear the engine down to its [`Memory`], keeping the arena allocations
    /// alive for [`Engine::with_recycled_memory`]: the one warm path, for
    /// the same compiled program or another.
    pub fn into_memory(self) -> Memory {
        self.core.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_answer_reached_after_a_preemption_is_kept() {
        // What a relaxed PE does when another PE's batch spent the leg's fuel
        // while it was on its way to `halt`.
        let program = crate::session::Session::new("p.").unwrap().compile("p", true).unwrap();
        let mut engine = Engine::new(&program, EngineConfig { fuel: Some(0), ..EngineConfig::default() });
        engine.core.check_fuel();
        assert!(engine.halted() && engine.finished().is_none(), "spent fuel preempts the engine");
        Step::new(&engine.core, &mut engine.workers[0]).query_succeeded();
        assert_eq!(engine.finished(), Some(true));
        assert_eq!(engine.answer_bindings(), Ok(Vec::new()), "`p` binds no variable");
    }
}
