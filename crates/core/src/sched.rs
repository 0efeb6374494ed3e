//! Pluggable execution backends for the RAP-WAM engine.
//!
//! The engine exposes a small scheduler SPI — [`Engine::begin_round`],
//! [`Engine::step_slot`], [`Engine::end_round`], [`Engine::finished`] — and
//! a [`Scheduler`] drives it until the query completes.  Three backends ship
//! with the crate, selected by a [`SchedulerKind`] plus a
//! [`DeterminismMode`]:
//!
//! * [`Interleaved`] — the reference semantics: one host thread steps every
//!   worker round-robin, one slot each per round.  With several PEs a
//!   running worker's slot is `quantum` instructions (default 1): the
//!   deterministic software-interleaved methodology of the paper's emulator.
//!   With one PE there is nothing to interleave, so a slot runs to the next
//!   scheduling-relevant event (park, wait, suspension, halt, fuel or step
//!   budget due) and sequential work costs what it costs on a sequential
//!   WAM — see [`EngineConfig::quantum`](crate::EngineConfig::quantum).
//! * [`Threaded`] (strict) — one OS thread per PE, connected in a ring over
//!   crossbeam channels.  A scheduling token carrying the engine travels the
//!   ring, so every worker is stepped on its own thread while the global
//!   instruction interleaving — and therefore the answer set, the per-area
//!   reference counts and the merged trace — stays exactly the reference
//!   order.  The token serialises execution: it proves the threading
//!   machinery, not the speedup.
//! * [`ThreadedRelaxed`] — true per-arena parallel execution: every OS
//!   thread free-runs over its *own* worker and Stack Set arena, with no
//!   token at all.  Cross-PE traffic — goal-steal pops, completion-counter
//!   updates, messages, bindings that cross an arena boundary — goes through
//!   the per-arena locks and per-PE boards of the shared
//!   [`crate::engine::EngineCore`], and steal notifications travel over
//!   crossbeam channels to the victim's thread.
//!
//! # What relaxed determinism does and does not change
//!
//! The CGE independence conditions guarantee that parallel goals never bind
//! the same variable, so the **answer set is identical** in every mode, as
//! are the schedule-invariant work counters (parcalls, parallel goals,
//! logical inferences).  What the relaxed mode gives up is the *placement*
//! determinism of the strict schedule: which PE steals which goal — and
//! therefore how many goals take the stolen path (Markers, Parcall-Frame
//! global slots, Messages) instead of the parent's cheap local path — is
//! decided by an actual race, exactly as on the paper's real hardware.
//! Reference counts for those scheduling-artifact objects, the trace
//! interleaving and the per-PE attribution may therefore differ run to run;
//! the differential suite pins the invariants and the strict backends remain
//! the byte-exact reference.

use crate::engine::Engine;
use crate::error::{EngineError, EngineResult};
use crate::worker::WorkerStatus;
use crossbeam::channel::{unbounded, Receiver, Sender};
use serde::{Deserialize, Serialize};
use std::thread;
use std::time::{Duration, Instant};

/// Which execution backend steps the workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Deterministic round-robin interleaving on the host thread (the
    /// reference semantics).
    #[default]
    Interleaved,
    /// One OS thread per PE.  [`DeterminismMode`] selects between the
    /// token-ring (strict) and free-running (relaxed) drivers.
    Threaded,
}

impl SchedulerKind {
    /// Parse a `--scheduler` / env-var value.
    ///
    /// ```
    /// use rapwam::SchedulerKind;
    /// assert_eq!(SchedulerKind::parse("threaded"), Some(SchedulerKind::Threaded));
    /// assert_eq!(SchedulerKind::parse("turbo"), None);
    /// ```
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "interleaved" => Some(SchedulerKind::Interleaved),
            "threaded" => Some(SchedulerKind::Threaded),
            _ => None,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Interleaved => "interleaved",
            SchedulerKind::Threaded => "threaded",
        }
    }
}

/// How much scheduling nondeterminism the backend may exploit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DeterminismMode {
    /// Reproduce the reference interleaving exactly: identical answers,
    /// counts *and* traces.  The `Threaded` backend serialises through a
    /// scheduling token.
    #[default]
    Strict,
    /// Free-running threads: identical answers and schedule-invariant
    /// counters, but steal placement, trace interleaving and per-PE
    /// attribution are racy.  This is the mode that turns `--threads N`
    /// into wall-clock speedup.
    Relaxed,
}

impl DeterminismMode {
    /// Parse a `--determinism` / env-var value.
    ///
    /// ```
    /// use rapwam::DeterminismMode;
    /// assert_eq!(DeterminismMode::parse("relaxed"), Some(DeterminismMode::Relaxed));
    /// assert_eq!(DeterminismMode::parse("chaotic"), None);
    /// ```
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "strict" => Some(DeterminismMode::Strict),
            "relaxed" => Some(DeterminismMode::Relaxed),
            _ => None,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DeterminismMode::Strict => "strict",
            DeterminismMode::Relaxed => "relaxed",
        }
    }
}

/// An execution backend: drives an engine from its initial state to
/// `finished()`, returning the engine for answer/statistics extraction.
///
/// ```
/// use rapwam::{scheduler_for, DeterminismMode, SchedulerKind};
/// let backend = scheduler_for(SchedulerKind::Threaded, DeterminismMode::Relaxed);
/// assert_eq!(backend.name(), "threaded-relaxed");
/// ```
pub trait Scheduler {
    /// Backend name (for reporting).
    fn name(&self) -> &'static str;

    /// Run the query to completion.
    fn drive<'p>(&self, engine: Engine<'p>) -> EngineResult<Engine<'p>>;
}

/// Resolve a [`SchedulerKind`] × [`DeterminismMode`] to its backend
/// implementation.  The interleaved backend is deterministic by
/// construction, so it ignores the mode.
pub fn scheduler_for(kind: SchedulerKind, determinism: DeterminismMode) -> Box<dyn Scheduler> {
    match (kind, determinism) {
        (SchedulerKind::Interleaved, _) => Box::new(Interleaved),
        (SchedulerKind::Threaded, DeterminismMode::Strict) => Box::new(Threaded),
        (SchedulerKind::Threaded, DeterminismMode::Relaxed) => Box::new(ThreadedRelaxed),
    }
}

/// The reference backend: deterministic round-robin on the host thread.
pub struct Interleaved;

impl Scheduler for Interleaved {
    fn name(&self) -> &'static str {
        "interleaved"
    }

    fn drive<'p>(&self, mut engine: Engine<'p>) -> EngineResult<Engine<'p>> {
        let n = engine.num_workers();
        while !engine.halted() {
            engine.begin_round();
            let mut progress = false;
            for w in 0..n {
                if engine.halted() {
                    break;
                }
                progress |= engine.step_slot(w)?;
                deliver_logged_events(&mut engine);
            }
            engine.end_round(progress)?;
        }
        // A `resume` leg can log cancel requests before any slot runs (its
        // backtrack happens outside the round structure) and halt at once;
        // fold that tail so notification accounting stays exact.
        deliver_logged_events(&mut engine);
        Ok(engine)
    }
}

/// Deliver, in place, the steal and cancel notifications logged since the
/// last call.  A slot that logged nothing (almost all of them) costs one
/// relaxed load.
fn deliver_logged_events(engine: &mut Engine<'_>) {
    if !engine.events_logged() {
        return;
    }
    for ev in engine.drain_steals() {
        engine.deliver_steal_notices(ev.victim, 1);
    }
    for ev in engine.drain_cancels() {
        engine.deliver_cancel_notices(ev.executor, 1);
    }
}

/// Messages exchanged between the per-PE threads of the strict [`Threaded`]
/// backend.
enum Msg<'p> {
    /// The scheduling token: whoever holds it steps its worker, then passes
    /// it to the next PE in the ring.
    Token(Box<Token<'p>>),
    /// A goal was taken from this PE's Goal Stack by `thief`.
    StealNote { thief: usize, frame: u32 },
    /// An in-flight goal this PE is executing was cancelled by `canceller`
    /// (backward execution).  The semantic request rides the shared boards;
    /// this message is the cross-thread notification, like `StealNote`.
    CancelNote { canceller: usize },
    /// The query finished (or errored); the thread should exit.
    Shutdown,
}

/// The token circulating the ring: the engine plus the open round's state.
struct Token<'p> {
    engine: Engine<'p>,
    /// Whether any worker made progress in the round in flight.
    progress: bool,
    /// True once PE 0 has opened a round (so it knows to close the previous
    /// one when the token comes back around).
    round_open: bool,
}

/// One OS thread per PE under a scheduling token (strict determinism).  A
/// token (carrying the engine) travels a ring of crossbeam channels; the
/// thread holding it steps its own worker.  Because the token enforces the
/// reference round-robin order, this backend produces the same answers,
/// reference counts and merged trace as [`Interleaved`] — the property the
/// differential tests pin down — while every instruction is executed on the
/// thread of the PE it belongs to.  [`ThreadedRelaxed`] retires the token.
pub struct Threaded;

impl Scheduler for Threaded {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn drive<'p>(&self, engine: Engine<'p>) -> EngineResult<Engine<'p>> {
        let n = engine.num_workers();
        let (txs, rxs): (Vec<Sender<Msg<'p>>>, Vec<Receiver<Msg<'p>>>) = (0..n).map(|_| unbounded()).unzip();
        let (done_tx, done_rx) = unbounded::<EngineResult<Engine<'p>>>();
        // Final-reconciliation channel: on shutdown every thread reports the
        // steal and cancel notes it had not yet folded into the engine, so
        // none are lost when the query finishes in the same round as the
        // event.
        let (notes_tx, notes_rx) = unbounded::<(usize, u64, u64)>();

        thread::scope(|scope| {
            for (w, rx) in rxs.into_iter().enumerate() {
                let txs = txs.clone();
                let done_tx = done_tx.clone();
                let notes_tx = notes_tx.clone();
                let notes_rx = notes_rx.clone();
                scope.spawn(move || pe_thread(w, n, rx, txs, done_tx, notes_tx, notes_rx));
            }
            // Drop the originals so the channels disconnect once every PE
            // thread has exited: if a thread panics (torn-down ring, no
            // result sent), `done_rx.recv()` unblocks with a disconnect
            // error instead of hanging, and `thread::scope` then re-raises
            // the panic at join.
            drop(done_tx);
            drop(notes_tx);
            txs[0]
                .send(Msg::Token(Box::new(Token { engine, progress: false, round_open: false })))
                .map_err(|_| EngineError::Internal("threaded scheduler: ring closed early".into()))?;
            done_rx.recv().map_err(|_| {
                EngineError::Internal("threaded scheduler: no thread produced a result".into())
            })?
        })
    }
}

/// Broadcast `Shutdown` so every ring thread exits.
fn shutdown_ring(txs: &[Sender<Msg<'_>>], me: usize) {
    for (w, tx) in txs.iter().enumerate() {
        if w != me {
            let _ = tx.send(Msg::Shutdown);
        }
    }
}

/// What a thread should do after handling one token visit.
enum Flow {
    Continue,
    Stop,
}

/// The body of one PE's OS thread (strict token ring).
fn pe_thread<'p>(
    w: usize,
    n: usize,
    rx: Receiver<Msg<'p>>,
    txs: Vec<Sender<Msg<'p>>>,
    done_tx: Sender<EngineResult<Engine<'p>>>,
    notes_tx: Sender<(usize, u64, u64)>,
    notes_rx: Receiver<(usize, u64, u64)>,
) {
    // Steal/cancel notes received while another PE holds the token; folded
    // into the engine's books the next time the token arrives here, or
    // reported over the reconciliation channel at shutdown.
    let mut pending_notes: u64 = 0;
    let mut pending_cancel_notes: u64 = 0;
    loop {
        let msg = match rx.recv() {
            Ok(m) => m,
            Err(_) => return, // ring torn down
        };
        match msg {
            Msg::Shutdown => {
                let _ = notes_tx.send((w, pending_notes, pending_cancel_notes));
                return;
            }
            Msg::StealNote { thief, frame } => {
                debug_assert!(thief != w, "worker {w} cannot steal goal frame {frame:#x} from itself");
                pending_notes += 1;
            }
            Msg::CancelNote { canceller } => {
                debug_assert!(canceller != w, "worker {w} cannot cancel its own in-flight goal");
                pending_cancel_notes += 1;
            }
            Msg::Token(token) => {
                // A panic while holding the token would leave every other
                // thread blocked on its channel: tear the ring down first,
                // then let the panic propagate through the scope.
                let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_token(
                        w,
                        n,
                        token,
                        &mut pending_notes,
                        &mut pending_cancel_notes,
                        &txs,
                        &done_tx,
                        &notes_rx,
                    )
                }));
                match handled {
                    Ok(Flow::Continue) => {}
                    Ok(Flow::Stop) => return,
                    Err(payload) => {
                        // The panic re-raises through thread::scope, so the
                        // caller observes it directly; the broadcast only
                        // keeps the other threads from blocking forever.
                        shutdown_ring(&txs, w);
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        }
    }
}

/// Handle one visit of the scheduling token at PE `w`.
#[allow(clippy::too_many_arguments)]
fn handle_token<'p>(
    w: usize,
    n: usize,
    mut token: Box<Token<'p>>,
    pending_notes: &mut u64,
    pending_cancel_notes: &mut u64,
    txs: &[Sender<Msg<'p>>],
    done_tx: &Sender<EngineResult<Engine<'p>>>,
    notes_rx: &Receiver<(usize, u64, u64)>,
) -> Flow {
    let engine = &mut token.engine;
    if *pending_notes > 0 {
        engine.deliver_steal_notices(w, *pending_notes);
        *pending_notes = 0;
    }
    if *pending_cancel_notes > 0 {
        engine.deliver_cancel_notices(w, *pending_cancel_notes);
        *pending_cancel_notes = 0;
    }
    // PE 0 is the round closer: finish the previous round, check for
    // completion, open the next round.
    if w == 0 {
        if token.round_open {
            if let Err(e) = engine.end_round(token.progress) {
                let _ = done_tx.send(Err(e));
                shutdown_ring(txs, w);
                return Flow::Stop;
            }
        }
        if engine.halted() {
            // Reconcile steal/cancel notes still pending on the other
            // threads (an event from the finishing round may not have
            // reached its target's books yet): every thread reports its
            // counts on shutdown, and no further token will circulate.
            shutdown_ring(txs, w);
            for _ in 0..n - 1 {
                match notes_rx.recv() {
                    Ok((peer, steals, cancels)) => {
                        engine.deliver_steal_notices(peer, steals);
                        engine.deliver_cancel_notices(peer, cancels);
                    }
                    Err(_) => break, // a thread died; stats stay partial
                }
            }
            let _ = done_tx.send(Ok(token.engine));
            return Flow::Stop;
        }
        engine.begin_round();
        token.progress = false;
        token.round_open = true;
    }
    match engine.step_slot(w) {
        Ok(p) => token.progress |= p,
        Err(e) => {
            let _ = done_tx.send(Err(e));
            shutdown_ring(txs, w);
            return Flow::Stop;
        }
    }
    // Stolen goals and cancel requests become real cross-thread messages:
    // notify each victim's / executor's thread over its channel.
    if token.engine.events_logged() {
        for ev in token.engine.drain_steals() {
            debug_assert_eq!(ev.thief, w);
            let _ = txs[ev.victim].send(Msg::StealNote { thief: ev.thief, frame: ev.frame });
        }
        for ev in token.engine.drain_cancels() {
            debug_assert_eq!(ev.canceller, w);
            let _ = txs[ev.executor].send(Msg::CancelNote { canceller: ev.canceller });
        }
    }
    if txs[(w + 1) % n].send(Msg::Token(token)).is_err() {
        return Flow::Stop; // next thread already shut down
    }
    Flow::Continue
}

// ---------------------------------------------------------------------
// The relaxed backend: free-running threads over owned arenas.
// ---------------------------------------------------------------------

/// Instructions a relaxed worker executes between channel polls and shared
/// bookkeeping flushes.  Large enough to amortise the poll, small enough
/// that completion/steal notifications are observed promptly.
///
/// This is also the status-staleness bound of the flat executor's batch
/// loop: within a batch, driver-free goal transitions keep the worker in
/// the dense stream without re-reading the shared finished/abort flags, so
/// a free-running PE can overrun a query finish by up to one batch of
/// instructions.  That tail work is discarded with the worker's arenas —
/// relaxed mode never reports per-PE reference attribution as exact — and
/// the strict backends are unaffected (their interleavings check between
/// slots).
const RELAXED_BATCH: u32 = 128;

/// Idle polls between global-progress checks of the stall watchdog.
const STALL_CHECK_INTERVAL: u32 = 256;

/// Executed batches between wall-clock deadline checks of a busy relaxed
/// worker (idle workers piggyback on the stall-watchdog polls instead).
const DEADLINE_CHECK_BATCHES: u32 = 8;

/// True per-arena parallel execution (relaxed determinism): one free-running
/// OS thread per PE, each mutating only its own worker state and Stack Set
/// arena through `Step`; cross-PE traffic rides the
/// per-arena locks, the per-PE boards and the steal-note channels.  No
/// scheduling token exists, so `--threads N` buys real wall-clock speedup;
/// see the module docs for exactly which observables stay invariant.
pub struct ThreadedRelaxed;

impl Scheduler for ThreadedRelaxed {
    fn name(&self) -> &'static str {
        "threaded-relaxed"
    }

    fn drive<'p>(&self, engine: Engine<'p>) -> EngineResult<Engine<'p>> {
        let n = engine.num_workers();
        let (core, mut workers) = engine.into_parts();
        // One note channel per PE, carrying steal notices (as the victim)
        // and cancel notices (as the executor).  The driver keeps a
        // receiver clone per channel to drain notes that arrive after the
        // thread has already exited (each note is consumed exactly once:
        // either by the owning thread or by the final drain).
        let (txs, rxs): (Vec<Sender<RelaxedNote>>, Vec<Receiver<RelaxedNote>>) =
            (0..n).map(|_| unbounded()).unzip();
        let driver_rxs: Vec<Receiver<RelaxedNote>> = rxs.iter().map(Receiver::clone).collect();

        thread::scope(|scope| {
            for ((w, wk), rx) in workers.iter_mut().enumerate().zip(rxs) {
                let core = &core;
                let txs = txs.clone();
                scope.spawn(move || {
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        relaxed_pe_loop(core, w, wk, &rx, &txs)
                    }));
                    match run {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => core.abort_with(e),
                        Err(payload) => {
                            // Wind the other threads down, then let the
                            // panic re-raise through the scope join.
                            core.abort_with(EngineError::Internal(format!(
                                "relaxed scheduler: worker {w} thread panicked"
                            )));
                            std::panic::resume_unwind(payload);
                        }
                    }
                });
            }
        });

        let mut engine = Engine::from_parts(core, workers);
        for (pe, rx) in driver_rxs.iter().enumerate() {
            let (mut steals, mut cancels) = (0u64, 0u64);
            while let Ok(note) = rx.try_recv() {
                match note {
                    RelaxedNote::Steal => steals += 1,
                    RelaxedNote::Cancel => cancels += 1,
                }
            }
            if steals > 0 {
                engine.deliver_steal_notices(pe, steals);
            }
            if cancels > 0 {
                engine.deliver_cancel_notices(pe, cancels);
            }
        }
        if let Some(e) = engine.core().take_abort() {
            return Err(e);
        }
        if !engine.halted() {
            return Err(EngineError::Internal("relaxed scheduler exited without an outcome".into()));
        }
        // Rounds do not exist without the token; report the critical-path
        // estimate (the busiest worker's slot count) as elapsed cycles.
        let critical_path = engine.workers.iter().map(|w| w.instructions + w.idle_cycles).max().unwrap_or(0);
        engine.core().set_cycles(critical_path);
        Ok(engine)
    }
}

/// A cross-thread notification of the relaxed backend (the semantic content
/// of both kinds rides the shared boards; these keep the per-worker books).
enum RelaxedNote {
    /// A goal was taken from this PE's Goal Stack.
    Steal,
    /// An in-flight goal this PE is executing was cancelled.
    Cancel,
}

/// The body of one PE's free-running thread.
fn relaxed_pe_loop(
    core: &crate::engine::EngineCore<'_>,
    w: usize,
    wk: &mut crate::worker::Worker,
    rx: &Receiver<RelaxedNote>,
    txs: &[Sender<RelaxedNote>],
) -> EngineResult<()> {
    let stall_timeout = core.config.stall_timeout;
    let mut step = crate::engine::Step { core, wk };
    let mut idle_spins: u32 = 0;
    let mut busy_batches: u32 = 0;
    let mut last_steps = core.steps();
    let mut stall_since: Option<Instant> = None;
    loop {
        if core.halted() || core.is_aborted() {
            return Ok(());
        }
        // Fold in the steal/cancel notices other PEs sent this one.
        while let Ok(note) = rx.try_recv() {
            match note {
                RelaxedNote::Steal => step.wk.steal_notices += 1,
                RelaxedNote::Cancel => step.wk.cancel_notices += 1,
            }
        }
        let progress = match step.wk.status {
            WorkerStatus::Stopped => return Ok(()),
            WorkerStatus::Running => step.exec_batch(RELAXED_BATCH)? > 0,
            _ => step.run_slot()?,
        };
        // Steals and cancel requests this worker just performed become real
        // cross-thread messages to each victim's / executor's thread.
        for ev in core.drain_steals_of(w) {
            debug_assert_eq!(ev.thief, w);
            let _ = txs[ev.victim].send(RelaxedNote::Steal);
        }
        for ev in core.drain_cancels_of(w) {
            debug_assert_eq!(ev.canceller, w);
            let _ = txs[ev.executor].send(RelaxedNote::Cancel);
        }
        if progress {
            idle_spins = 0;
            stall_since = None;
            busy_batches += 1;
            // Fuel is checked per batch: prompt preemption, but the exact
            // stop point is schedule-dependent here (the relaxed contract).
            core.check_fuel();
            if busy_batches.is_multiple_of(DEADLINE_CHECK_BATCHES) {
                core.check_deadline()?;
            }
            continue;
        }
        // Nothing to do: back off, and watch for a machine-wide stall.  The
        // ramp matters on oversubscribed hosts: an idle PE that spins hard
        // steals the core from the PE doing the work, so after a short spin
        // phase it yields, then parks in 100µs naps (bounding steal latency
        // at well under the grain of the goals worth stealing).
        idle_spins = idle_spins.saturating_add(1);
        if idle_spins <= 16 {
            std::hint::spin_loop();
        } else if idle_spins <= 256 {
            // Telemetry rides the ladder's existing branch structure: the
            // rung-entry transitions are counted once per idle episode and
            // the park time is the nap count times the fixed nap length —
            // no clock reads on the idle path.
            if idle_spins == 17 {
                step.wk.backoff_yields += 1;
            }
            thread::yield_now();
        } else {
            if idle_spins == 257 {
                step.wk.backoff_parks += 1;
            }
            step.wk.park_micros += 100;
            thread::sleep(Duration::from_micros(100));
        }
        if idle_spins.is_multiple_of(STALL_CHECK_INTERVAL) {
            core.check_deadline()?;
            core.check_fuel();
            let now = core.steps();
            if now != last_steps {
                last_steps = now;
                stall_since = None;
            } else {
                let since = *stall_since.get_or_insert_with(Instant::now);
                if since.elapsed() > stall_timeout {
                    return Err(EngineError::Internal(format!(
                        "relaxed scheduler stalled: worker {w} idle with no global progress for {stall_timeout:?}"
                    )));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_kind_parses() {
        assert_eq!(SchedulerKind::parse("interleaved"), Some(SchedulerKind::Interleaved));
        assert_eq!(SchedulerKind::parse("threaded"), Some(SchedulerKind::Threaded));
        assert_eq!(SchedulerKind::parse("bogus"), None);
        assert_eq!(SchedulerKind::default(), SchedulerKind::Interleaved);
        assert_eq!(SchedulerKind::Threaded.name(), "threaded");
    }

    #[test]
    fn determinism_mode_parses() {
        assert_eq!(DeterminismMode::parse("strict"), Some(DeterminismMode::Strict));
        assert_eq!(DeterminismMode::parse("relaxed"), Some(DeterminismMode::Relaxed));
        assert_eq!(DeterminismMode::parse("bogus"), None);
        assert_eq!(DeterminismMode::default(), DeterminismMode::Strict);
        assert_eq!(DeterminismMode::Relaxed.name(), "relaxed");
    }

    #[test]
    fn scheduler_for_resolves_every_backend() {
        assert_eq!(scheduler_for(SchedulerKind::Interleaved, DeterminismMode::Strict).name(), "interleaved");
        assert_eq!(
            scheduler_for(SchedulerKind::Interleaved, DeterminismMode::Relaxed).name(),
            "interleaved",
            "the interleaved backend is deterministic by construction"
        );
        assert_eq!(scheduler_for(SchedulerKind::Threaded, DeterminismMode::Strict).name(), "threaded");
        assert_eq!(
            scheduler_for(SchedulerKind::Threaded, DeterminismMode::Relaxed).name(),
            "threaded-relaxed"
        );
    }
}
