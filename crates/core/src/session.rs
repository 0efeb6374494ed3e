//! High-level convenience API: source text in, answers and statistics out.
//!
//! A [`Session`] owns a symbol table and a parsed program; each call to
//! [`Session::run`] compiles the program together with a query (in either
//! sequential-WAM or parallel-RAP-WAM mode) and executes it on a fresh
//! engine, returning the answer bindings, the run statistics and optionally
//! the full memory-reference trace.

use crate::engine::{Engine, EngineConfig, RunResult};
use crate::error::EngineError;
use crate::layout::MemoryConfig;
use crate::mem::Memory;
use crate::sched::{DeterminismMode, SchedulerKind};
use crate::stats::RunStats;
use crate::trace::MemRef;
use pwam_compiler::{compile_program_and_query_with_hosts, CompileError, CompileOptions, CompiledProgram};
use pwam_front::clause::Program;
use pwam_front::FrontError;
use pwam_front::SymbolTable;
use pwam_front::Term;
use pwam_front::{parse_program, parse_query};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Everything that can go wrong between source text and an answer.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    Front(FrontError),
    Compile(CompileError),
    Engine(EngineError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Front(e) => write!(f, "{e}"),
            SessionError::Compile(e) => write!(f, "{e}"),
            SessionError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<FrontError> for SessionError {
    fn from(e: FrontError) -> Self {
        SessionError::Front(e)
    }
}
impl From<CompileError> for SessionError {
    fn from(e: CompileError) -> Self {
        SessionError::Compile(e)
    }
}
impl From<EngineError> for SessionError {
    fn from(e: EngineError) -> Self {
        SessionError::Engine(e)
    }
}

/// Options for one query run.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Compile CGEs to parallel code (RAP-WAM) or plain sequential code (WAM).
    pub parallel: bool,
    /// Execute the leftmost branch of each CGE inline on the parent PE
    /// (the paper's last-goal-inline optimisation, made sound by parcall
    /// cancellation).  On by default; turning it off forces every branch
    /// through the Goal-Frame path, which the differential suites use to
    /// pin both compilation schemes against each other.
    pub inline_first_goal: bool,
    /// Number of workers (PEs).
    pub workers: usize,
    /// Collect the full memory-reference trace.
    pub trace: bool,
    /// Per-worker area sizes.
    pub memory: MemoryConfig,
    /// Instruction budget.
    pub max_steps: u64,
    /// Execution backend: deterministic interleaving (the reference) or one
    /// OS thread per PE.
    pub scheduler: SchedulerKind,
    /// Strict (reference interleaving, the default) or relaxed determinism.
    /// Relaxed lets the `Threaded` backend's threads free-run over their
    /// own arenas; a strict run is the host-thread interleaving whatever
    /// the backend asked for.  Answers are identical either way.
    pub determinism: DeterminismMode,
    /// How long the relaxed backend tolerates a machine-wide stall before
    /// aborting (a safety net for engine bugs; default 5s).
    pub stall_timeout: Duration,
    /// Wall-clock budget for the run (`None` = unlimited).  The serving
    /// layer sets this to enforce per-request deadlines.
    pub time_budget: Option<Duration>,
    /// Deterministic instruction-fuel budget per execution leg (`None` =
    /// unlimited).  A one-shot run that exhausts its fuel errors with
    /// [`EngineError::FuelExhausted`];
    /// a cursor parks instead ([`CursorStep::FuelExhausted`]) so the
    /// serving layer can preempt long queries and re-admit them fairly.
    pub fuel: Option<u64>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            parallel: true,
            inline_first_goal: true,
            workers: 1,
            trace: false,
            memory: MemoryConfig::default(),
            max_steps: 2_000_000_000,
            scheduler: SchedulerKind::Interleaved,
            determinism: DeterminismMode::Strict,
            stall_timeout: Duration::from_secs(5),
            time_budget: None,
            fuel: None,
        }
    }
}

impl QueryOptions {
    /// Sequential WAM baseline on one PE.
    pub fn sequential() -> Self {
        QueryOptions { parallel: false, workers: 1, ..Default::default() }
    }

    /// RAP-WAM with `n` PEs.
    pub fn parallel(n: usize) -> Self {
        QueryOptions { parallel: true, workers: n, ..Default::default() }
    }

    /// RAP-WAM with `n` PEs, each free-running on its own OS thread
    /// (relaxed determinism: same answers, real wall-clock speedup).
    ///
    /// ```
    /// use rapwam::session::{QueryOptions, Session};
    ///
    /// let mut session = Session::new(
    ///     "sum([], 0).\n\
    ///      sum([X|Xs], S) :- (ground(Xs) | sum(Xs, S1) & q(X, X2)), S is S1 + X2.\n\
    ///      q(X, Y) :- Y is X * X.",
    /// ).unwrap();
    /// let result = session.run("sum([1,2,3], S)", &QueryOptions::relaxed(4)).unwrap();
    /// let s = result.outcome.binding("S").unwrap();
    /// assert_eq!(session.render(s), "14");
    /// ```
    pub fn relaxed(n: usize) -> Self {
        QueryOptions {
            scheduler: SchedulerKind::Threaded,
            determinism: DeterminismMode::Relaxed,
            ..QueryOptions::parallel(n)
        }
    }

    /// Enable trace collection.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Disable the last-goal-inline optimisation (every CGE branch takes
    /// the Goal-Frame path).
    pub fn without_inline_first_goal(mut self) -> Self {
        self.inline_first_goal = false;
        self
    }

    /// The [`CompileOptions`] these options describe.
    pub fn compile_options(&self) -> CompileOptions {
        let base = if self.parallel { CompileOptions::parallel() } else { CompileOptions::sequential() };
        CompileOptions { inline_first_goal: self.inline_first_goal, ..base }
    }

    /// Override the per-worker memory sizes.
    pub fn with_memory(mut self, memory: MemoryConfig) -> Self {
        self.memory = memory;
        self
    }

    /// Override the relaxed-mode stall-watchdog timeout.
    pub fn with_stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// Bound the run's wall-clock time (the engine aborts with
    /// [`EngineError::DeadlineExceeded`] when the budget runs out).
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Bound each execution leg to `fuel` instructions (deterministic
    /// preemption; see [`QueryOptions::fuel`]).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// The [`EngineConfig`] these options describe.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            num_workers: self.workers,
            memory: self.memory,
            collect_trace: self.trace,
            max_steps: self.max_steps,
            scheduler: self.scheduler,
            determinism: self.determinism,
            stall_timeout: self.stall_timeout,
            time_budget: self.time_budget,
            fuel: self.fuel,
            ..EngineConfig::default()
        }
    }
}

/// A loaded Prolog program plus its symbol table and a cache of compiled
/// queries.
///
/// Compilation output is immutable, so [`Session::prepare`] hands out
/// [`Arc<CompiledProgram>`] handles that can be cached and re-run any number
/// of times — the serving layer's program cache is built on exactly this:
/// compile once, run on every request.
pub struct Session {
    syms: SymbolTable,
    program: Program,
    /// Compiled (program, query) units keyed by query text and the full
    /// compilation mode (parallel × inline-first-goal); invalidated when
    /// a host predicate is registered.
    compiled: HashMap<(String, bool, bool), Arc<CompiledProgram>>,
    /// Host predicates: closures the engine calls when a query calls them.
    /// Threaded into every compilation, so registering one invalidates the
    /// compiled-query cache.
    hosts: HashMap<(String, u8), Arc<HostFn>>,
}

/// A host predicate's implementation: called with the goal's argument terms,
/// it returns `None` to fail or `Some(bindings)` to succeed, where each
/// `(index, term)` binding unifies `term` with the argument at that 0-based
/// position (an un-unifiable binding fails the call like any unification
/// mismatch would).
pub(crate) type HostFn = dyn Fn(&[Term]) -> Option<Vec<(usize, Term)>> + Send + Sync;

impl Session {
    /// Parse a program from source text.
    pub fn new(program_src: &str) -> Result<Self, SessionError> {
        let mut syms = SymbolTable::new();
        let program = parse_program(program_src, &mut syms)?;
        Ok(Session { syms, program, compiled: HashMap::new(), hosts: HashMap::new() })
    }

    /// Register a host predicate `name/arity`.  Queries compiled after this
    /// call resolve matching goals to the engine's `call_host` opcode; when
    /// one executes, the engine calls `f` with the argument terms right
    /// there, on the PE that executes the call, as it runs any builtin —
    /// whether the query runs one-shot ([`Session::run`]) or through a
    /// cursor.  Under the relaxed backend that PE is one of the run's
    /// threads, and several may call `f` at once.  A host call is not a
    /// leg boundary: fuel and the deadline clock run across it.
    /// User-defined predicates of the same name and arity shadow the host;
    /// the host shadows builtins.  Registering invalidates the
    /// compiled-query cache (later registrations of the same `name/arity`
    /// replace the closure).
    pub fn register_host<F>(&mut self, name: &str, arity: u8, f: F)
    where
        F: Fn(&[Term]) -> Option<Vec<(usize, Term)>> + Send + Sync + 'static,
    {
        self.hosts.insert((name.to_string(), arity), Arc::new(f));
        self.compiled.clear();
    }

    /// The symbol table (needed to render answers).
    pub fn symbols(&self) -> &SymbolTable {
        &self.syms
    }

    /// Compile the program with a query without running it.
    pub fn compile(&mut self, query_src: &str, parallel: bool) -> Result<CompiledProgram, SessionError> {
        let opts = if parallel { CompileOptions::parallel() } else { CompileOptions::sequential() };
        self.compile_with(query_src, opts)
    }

    /// Compile the program with a query under explicit [`CompileOptions`].
    pub fn compile_with(
        &mut self,
        query_src: &str,
        opts: CompileOptions,
    ) -> Result<CompiledProgram, SessionError> {
        let query = parse_query(query_src, &mut self.syms)?;
        // Deterministic registry order: sorted by (name, arity).
        let mut host_names: Vec<(String, u8)> = self.hosts.keys().cloned().collect();
        host_names.sort();
        let host_list: Vec<(pwam_front::Atom, u8)> =
            host_names.iter().map(|(n, a)| (self.syms.intern(n), *a)).collect();
        Ok(compile_program_and_query_with_hosts(&self.program, &query, &mut self.syms, opts, &host_list)?)
    }

    /// Compile a query (or return the cached compilation) as a shareable
    /// handle that [`Session::run_prepared`] can execute any number of times
    /// without recompiling.
    pub fn prepare(&mut self, query_src: &str, parallel: bool) -> Result<Arc<CompiledProgram>, SessionError> {
        let opts = if parallel { CompileOptions::parallel() } else { CompileOptions::sequential() };
        self.prepare_with(query_src, opts)
    }

    /// Like [`Session::prepare`], with explicit [`CompileOptions`] (the
    /// cache key covers the parallel and inline-first-goal modes).
    pub fn prepare_with(
        &mut self,
        query_src: &str,
        opts: CompileOptions,
    ) -> Result<Arc<CompiledProgram>, SessionError> {
        let key = (query_src.to_string(), opts.parallel, opts.inline_first_goal);
        if let Some(c) = self.compiled.get(&key) {
            return Ok(Arc::clone(c));
        }
        let compiled = Arc::new(self.compile_with(query_src, opts)?);
        // Long-lived sessions (the serving layer) see client-supplied query
        // text: bound the cache so it cannot grow without limit.  Overflow
        // drops the map wholesale — recompiling is cheap next to running.
        if self.compiled.len() >= 1024 {
            self.compiled.clear();
        }
        self.compiled.insert(key, Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Compile and run a query.  Compilations are cached, so re-running the
    /// same query skips the front end and the compiler entirely.
    pub fn run(&mut self, query_src: &str, options: &QueryOptions) -> Result<RunResult, SessionError> {
        let compiled = self.prepare_with(query_src, options.compile_options())?;
        self.run_prepared(&compiled, options)
    }

    /// Run an already-compiled query on a fresh engine.  Takes `&self`: a
    /// prepared query can be executed from many threads against one shared
    /// session (the serving layer holds the session behind a read lock).
    pub fn run_prepared(
        &self,
        compiled: &CompiledProgram,
        options: &QueryOptions,
    ) -> Result<RunResult, SessionError> {
        let hosts = self.hosts_of(compiled)?;
        let engine = Engine::new(compiled, options.engine_config()).with_hosts(hosts);
        Ok(engine.run(&self.syms)?)
    }

    /// Run an already-compiled query, recycling the arenas of `memory` when
    /// its shape fits (the warm-engine path).  Returns the result, the
    /// engine's memory for the next reuse, and whether the arenas were
    /// actually recycled.  On an engine error the memory is consumed — the
    /// caller's next request simply builds cold.
    pub fn run_prepared_reusing(
        &self,
        compiled: &CompiledProgram,
        options: &QueryOptions,
        memory: Option<Memory>,
    ) -> Result<(RunResult, Memory, bool), SessionError> {
        let hosts = self.hosts_of(compiled)?;
        let config = options.engine_config();
        let (engine, warm) = match memory {
            Some(m) => Engine::with_recycled_memory(compiled, config, m),
            None => (Engine::new(compiled, config), false),
        };
        let (result, engine) = engine.with_hosts(hosts).run_reusable(&self.syms)?;
        Ok((result, engine.into_memory(), warm))
    }

    /// Render an answer term as text.
    pub fn render(&self, term: &pwam_front::Term) -> String {
        pwam_front::pretty::term_to_string(term, &self.syms)
    }

    /// Open an all-solutions cursor over an already-compiled query.
    ///
    /// The cursor owns its engine (built cold, or warm around `memory` when
    /// its shape fits) and a handle to the compiled program, so it can be
    /// parked anywhere — out of a pool slot, across requests — and stepped
    /// with [`QueryCursor::next`] whenever the consumer wants another
    /// answer.  Nothing runs until the first `next`.  Opening fails if the
    /// program references a host predicate that is no longer registered.
    pub fn open_cursor(
        &self,
        compiled: &Arc<CompiledProgram>,
        options: &QueryOptions,
        memory: Option<Memory>,
    ) -> Result<QueryCursor, SessionError> {
        let hosts = self.hosts_of(compiled)?;
        Ok(QueryCursor::open(Arc::clone(compiled), options.engine_config(), memory, hosts))
    }

    /// The closures of `compiled`'s host predicates from this session's
    /// registry, indexed like `CompiledProgram::hosts`, for the engine that
    /// runs it.  A program without host predicates allocates nothing here.
    fn hosts_of(&self, compiled: &CompiledProgram) -> Result<Vec<Arc<HostFn>>, SessionError> {
        compiled
            .hosts
            .iter()
            .map(|(name, arity)| {
                self.hosts.get(&(name.clone(), *arity)).cloned().ok_or_else(|| {
                    SessionError::Engine(EngineError::Internal(format!(
                        "host predicate {name}/{arity} is not registered on this session"
                    )))
                })
            })
            .collect()
    }
}

/// Where a [`QueryCursor`] stands in its answer stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CursorState {
    /// Opened with nothing run yet, or preempted mid-execution by the
    /// instruction-fuel budget ([`QueryOptions::fuel`]): the next step runs
    /// a leg with fresh fuel, which starts the query or continues it in
    /// place.
    Ready,
    /// Halted at an answer; `next` fails back into the engine for the
    /// following answer, [`QueryCursor::commit`] accepts this one.
    AtAnswer,
    /// The stream is exhausted, committed, or dead after an error.
    Done,
}

/// What one [`QueryCursor::next_step`] call produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CursorStep {
    /// An answer is available (the cursor stands at it; step again to
    /// backtrack into the next one, or [`QueryCursor::commit`] to accept).
    Answer(Vec<(String, Term)>),
    /// The stream is exhausted (or the cursor was committed/closed).
    Exhausted,
    /// The per-leg instruction fuel ran out before the next answer.  The
    /// cursor stays live, parked mid-execution; the next step re-admits it
    /// with a fresh leg of fuel.  This is the serving layer's preemption
    /// point: park the cursor, let other queries run, step again later.
    FuelExhausted,
}

/// An owned, parkable all-solutions query: the [`Engine`] plus
/// the [`Arc<CompiledProgram>`] it executes, bundled so the pair can move
/// between threads and outlive any pool slot.
///
/// `engine` borrows the program behind `_program`'s `Arc` allocation.  That
/// is sound because the allocation's address is stable for the `Arc`'s
/// lifetime, the struct keeps the `Arc` alive at least as long as the
/// engine, and the field order below drops the engine first.  The forged
/// `'static` lifetime never escapes this struct's API.
pub struct QueryCursor {
    /// Declared before `_program` so it drops first.
    engine: Option<Engine<'static>>,
    state: CursorState,
    /// Keeps the engine's program allocation alive; never read.
    _program: Arc<CompiledProgram>,
}

impl QueryCursor {
    fn open(
        program: Arc<CompiledProgram>,
        config: EngineConfig,
        memory: Option<Memory>,
        hosts: Vec<Arc<HostFn>>,
    ) -> QueryCursor {
        // SAFETY: see the struct-level comment — the referent lives behind
        // `_program`'s Arc allocation, which this struct holds for at least
        // the engine's lifetime, and drop order retires the engine first.
        let program_ref: &'static CompiledProgram = unsafe { &*Arc::as_ptr(&program) };
        let engine = match memory {
            Some(m) => Engine::with_recycled_memory(program_ref, config, m).0,
            None => Engine::new(program_ref, config),
        };
        QueryCursor { engine: Some(engine.with_hosts(hosts)), state: CursorState::Ready, _program: program }
    }

    /// Produce the next answer, or `None` once the stream is exhausted (or
    /// the cursor was committed).  On an engine error the cursor is dead:
    /// the error is returned and every later call yields `None`.
    // Deliberately named like `Iterator::next`, but fallible — an
    // `Iterator<Item = Result<...>>` impl would invert the natural
    // `Result<Option<_>>` shape.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Vec<(String, Term)>>, SessionError> {
        loop {
            match self.next_step()? {
                CursorStep::Answer(bindings) => return Ok(Some(bindings)),
                CursorStep::Exhausted => return Ok(None),
                // `next` callers asked for the next answer unconditionally,
                // so a fuel preemption is immediately continued — the fuel
                // budget then acts as a check-in interval, not a cap.
                CursorStep::FuelExhausted => continue,
            }
        }
    }

    /// Like [`QueryCursor::next`], but surfacing fuel preemptions
    /// ([`CursorStep::FuelExhausted`]) to the caller instead of continuing
    /// through them.  On an engine error the cursor is dead: the error is
    /// returned and every later call yields [`CursorStep::Exhausted`].
    pub fn next_step(&mut self) -> Result<CursorStep, SessionError> {
        if self.state == CursorState::Done {
            return Ok(CursorStep::Exhausted);
        }
        let engine = self.engine.take().expect("live cursor without an engine");
        // An error leaves the cursor dead, its engine lost.
        let engine = match std::mem::replace(&mut self.state, CursorState::Done) {
            CursorState::AtAnswer => engine.redo()?,
            // `Ready`: start the query, or continue it after spent fuel.
            _ => engine.run_leg()?,
        };
        let step = match engine.finished() {
            Some(true) => {
                let bindings = engine.answer_bindings()?;
                self.state = CursorState::AtAnswer;
                CursorStep::Answer(bindings)
            }
            Some(false) => CursorStep::Exhausted,
            None => {
                self.state = CursorState::Ready;
                CursorStep::FuelExhausted
            }
        };
        self.engine = Some(engine);
        Ok(step)
    }

    /// Accept the answer the cursor currently stands at and finish the
    /// query (the cursor's cut): later [`QueryCursor::next`] calls return
    /// `None`.  The engine stays halted at the answer.
    pub fn commit(&mut self) -> Result<(), SessionError> {
        if self.state != CursorState::AtAnswer {
            return Err(SessionError::Engine(EngineError::Internal(
                "commit without a pending answer".to_string(),
            )));
        }
        self.state = CursorState::Done;
        Ok(())
    }

    /// True once the stream is exhausted, committed or dead.
    pub fn is_done(&self) -> bool {
        self.state == CursorState::Done
    }

    /// The parked engine's state fingerprint (see
    /// [`Engine::state_fingerprint`]); `None` if the engine was lost.
    pub fn state_fingerprint(&self) -> Option<u64> {
        self.engine.as_ref().map(|e| e.state_fingerprint())
    }

    /// Close the cursor, recovering the engine's arenas for a pool's warm
    /// path (`None` if the engine was lost to an error).
    pub fn close(self) -> Option<Memory> {
        let QueryCursor { engine, .. } = self;
        engine.map(|e| e.into_memory())
    }

    /// Goal Frames still on the parked engine's boards (see
    /// [`Engine::pending_goal_frames`]); `0` if the engine was lost.
    pub fn pending_goal_frames(&self) -> usize {
        self.engine.as_ref().map_or(0, |e| e.pending_goal_frames())
    }

    /// Structural invariants of the parked engine (see
    /// [`Engine::check_consistency`]); trivially `Ok` if the engine was
    /// lost.
    pub fn check_consistency(&self) -> Result<(), String> {
        self.engine.as_ref().map_or(Ok(()), |e| e.check_consistency())
    }

    /// Run statistics so far (`None` if the engine was lost).
    pub fn stats(&self) -> Option<RunStats> {
        self.engine.as_ref().map(|e| e.stats())
    }

    /// Drain the memory-reference trace collected so far, if tracing is on.
    pub fn take_trace(&mut self) -> Option<Vec<MemRef>> {
        self.engine.as_mut().and_then(|e| e.take_trace())
    }
}
