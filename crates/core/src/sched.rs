//! The two execution backends of the RAP-WAM engine.
//!
//! The engine exposes a small stepping SPI — [`Engine::begin_round`],
//! [`Engine::step_slot`], [`Engine::end_round`], [`Engine::halted`] — and the
//! crate-private `drive` runs it until the query halts.  Which of the paper's
//! two execution regimes does the driving follows from the engine's own
//! configuration, a [`SchedulerKind`] plus a [`DeterminismMode`].  The memory
//! does not care which: a reference is the same lock-free word move, counted
//! by the PE that issues it, under either driver (see [`crate::mem`]).
//!
//! * *Interleaved* — the reference semantics: one host thread steps every
//!   worker round-robin, one slot each per round.  With several PEs a
//!   running worker's slot is `quantum` instructions (default 1): the
//!   deterministic software-interleaved methodology of the paper's emulator.
//!   With one PE there is nothing to interleave, so a slot runs to the next
//!   scheduling-relevant event (park, wait, suspension, halt, fuel or step
//!   budget due) and sequential work costs what it costs on a sequential
//!   WAM — see [`EngineConfig::quantum`](crate::EngineConfig::quantum).
//!   [`DeterminismMode::Strict`] names exactly this one schedule, so every
//!   strict run — whatever its [`SchedulerKind`] — is driven here: putting
//!   the PEs on OS threads and then serialising them to reproduce the same
//!   interleaving would buy nothing the host thread does not already give.
//! * *Threaded × relaxed* — true per-arena parallel execution: every OS
//!   thread free-runs over its *own* worker, which holds everything a
//!   reference books — the PE's reference counts and, when tracing, its
//!   trace buffer — so a reference shares nothing but the word it moves.
//!   Almost all of them stay inside the PE's own Stack Set, the paper's
//!   central finding; the ones that cross — a thief's pick-up of a stolen
//!   goal, its completion-counter update, its message, bindings — are the
//!   same unlocked moves.  What orders cross-PE traffic is the words
//!   themselves (atomics: Release stores, Acquire loads, compare-exchange
//!   for the counters) and the per-PE boards of the shared
//!   [`crate::engine::EngineCore`], so even a reference that races is sound.
//!   As in the paper, nothing is ever sent to the victim of a steal: a thief
//!   takes the Goal Frame under the victim's board lock, and the steal is
//!   counted there.
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
//! the differential suite pins the invariants and the strict backend remains
//! the byte-exact reference.

use crate::engine::Engine;
use crate::error::{EngineError, EngineResult};
use crate::worker::WorkerStatus;
use serde::{Deserialize, Serialize};
use std::sync::atomic::Ordering;
use std::thread;
use std::time::{Duration, Instant};

/// Which execution backend steps the workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Deterministic round-robin interleaving on the host thread (the
    /// reference semantics).
    #[default]
    Interleaved,
    /// One free-running OS thread per PE under
    /// [`DeterminismMode::Relaxed`].  A strict run has one schedule by
    /// definition and is driven interleaved whatever the kind.
    Threaded,
}

impl SchedulerKind {
    /// Parse a wire-header value.
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
    /// counts *and* traces.
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

/// True for the one pair that free-runs the PEs on threads.  Only threads
/// may race, and only a relaxed run lets them; every other pair names the
/// one deterministic schedule.
fn free_running(kind: SchedulerKind, determinism: DeterminismMode) -> bool {
    kind == SchedulerKind::Threaded && determinism == DeterminismMode::Relaxed
}

/// Drive `engine` until it halts (success, failure, suspension or
/// preemption) on the backend its own configuration names, returning it for
/// answer and statistics extraction.
pub(crate) fn drive(engine: Engine<'_>) -> EngineResult<Engine<'_>> {
    let config = &engine.core.config;
    if free_running(config.scheduler, config.determinism) {
        drive_relaxed(engine)
    } else {
        drive_interleaved(engine)
    }
}

/// The reference backend: deterministic round-robin on the host thread.
fn drive_interleaved(mut engine: Engine<'_>) -> EngineResult<Engine<'_>> {
    let n = engine.num_workers();
    while !engine.halted() {
        engine.begin_round();
        let mut progress = false;
        for w in 0..n {
            if engine.halted() {
                break;
            }
            progress |= engine.step_slot(w)?;
        }
        engine.end_round(progress)?;
    }
    Ok(engine)
}

// ---------------------------------------------------------------------
// The relaxed backend: free-running threads over owned arenas.
// ---------------------------------------------------------------------

/// Instructions a relaxed worker executes per batch; between batches it
/// re-reads the shared halted/abort flags, checks the fuel budget and
/// flushes its instruction count.  Large enough to amortise that, small
/// enough that a finish, an abort or a preemption is observed promptly.
///
/// This is also the status-staleness bound of the flat executor's batch
/// loop: within a batch, driver-free goal transitions keep the worker in
/// the dense stream without re-reading the shared finished/abort flags, so
/// a free-running PE can overrun a query finish by up to one batch of
/// instructions.  That tail work is discarded with the worker's arenas —
/// relaxed mode never reports per-PE reference attribution as exact — and
/// the strict backend is unaffected (its interleaving checks between
/// slots).
const RELAXED_BATCH: u32 = 128;

/// Idle polls between global-progress checks of the stall watchdog.
const STALL_CHECK_INTERVAL: u32 = 256;

/// Executed batches between wall-clock deadline checks of a busy relaxed
/// worker (idle workers piggyback on the stall-watchdog polls instead).
const DEADLINE_CHECK_BATCHES: u32 = 8;

/// True per-arena parallel execution (relaxed determinism): one free-running
/// OS thread per PE, each mutating only its own worker state through `Step`
/// and referencing memory lock-free; cross-PE traffic is ordered by the words'
/// own atomics and the per-PE boards.  Nothing serialises the
/// threads, so `--threads N` buys real wall-clock speedup; see the module
/// docs for exactly which observables stay invariant.
fn drive_relaxed(mut engine: Engine<'_>) -> EngineResult<Engine<'_>> {
    let core = &engine.core;
    thread::scope(|scope| {
        for (w, wk) in engine.workers.iter_mut().enumerate() {
            scope.spawn(move || {
                let run =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| relaxed_pe_loop(core, w, wk)));
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

    if let Some(e) = core.take_abort() {
        return Err(e);
    }
    if !engine.halted() {
        return Err(EngineError::Internal("relaxed scheduler exited without an outcome".into()));
    }
    // Free-running threads have no rounds; report the critical-path
    // estimate (the busiest worker's slot count) as elapsed cycles.
    let critical_path = engine.workers.iter().map(|w| w.instructions + w.idle_cycles).max().unwrap_or(0);
    core.set_cycles(critical_path);
    Ok(engine)
}

/// The body of one PE's free-running thread.
fn relaxed_pe_loop(
    core: &crate::engine::EngineCore<'_>,
    w: usize,
    wk: &mut crate::worker::Worker,
) -> EngineResult<()> {
    let stall_timeout = core.config.stall_timeout;
    let mut step = crate::engine::Step::new(core, wk);
    let mut idle_spins: u32 = 0;
    let mut busy_batches: u32 = 0;
    let mut last_steps = core.steps();
    let mut stall_since: Option<Instant> = None;
    loop {
        if core.halted() || core.is_aborted() {
            return Ok(());
        }
        let progress = match step.wk.status {
            WorkerStatus::Stopped => return Ok(()),
            WorkerStatus::Running => {
                let executed = step.exec_batch(RELAXED_BATCH)?;
                if executed > 0 {
                    // Every PE thread adds to the count fuel and the
                    // watchdog read: one atomic add per batch.
                    core.steps.fetch_add(executed as u64, Ordering::Relaxed);
                }
                executed > 0
            }
            // Not running, so no instruction: a scheduling action only.
            _ => step.run_slot()?,
        };
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
    fn only_threaded_relaxed_free_runs() {
        use DeterminismMode::{Relaxed, Strict};
        use SchedulerKind::{Interleaved, Threaded};
        for (kind, mode, threads) in [
            (Interleaved, Strict, false),
            (Interleaved, Relaxed, false),
            (Threaded, Strict, false),
            (Threaded, Relaxed, true),
        ] {
            assert_eq!(free_running(kind, mode), threads, "{kind:?} x {mode:?}");
        }
    }
}
