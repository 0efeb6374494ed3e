//! Aggregate run statistics (the quantities reported in the paper's Table 2,
//! Figure 2 and the high-level results of Section 2).

use crate::layout::Area;
use crate::trace::AreaStats;
use serde::{Deserialize, Serialize};

/// Per-worker summary.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Instructions executed.
    pub instructions: u64,
    /// Cycles the worker spent idle or waiting for a Parcall Frame.
    pub idle_cycles: u64,
    /// Maximum words used in (heap, local stack, control stack, trail, goal stack).
    pub max_usage: (u32, u32, u32, u32, u32),
    /// Goals this worker took from another worker's Goal Stack.
    pub goals_stolen: u64,
    /// Steal notifications this worker received as a victim.
    pub steal_notices: u64,
    /// `cancel_goal` notifications this worker received as the executor of
    /// an in-flight stolen goal.
    pub cancel_notices: u64,
    /// Stolen goals this worker aborted mid-flight on a `cancel_goal`
    /// request.
    pub goals_aborted: u64,
    /// Goals this worker started while parked in backward execution
    /// (waiting for a cancelled Parcall Frame to drain) — useful work done
    /// mid-cancellation.
    pub goals_while_cancelling: u64,
    /// Steal scans this worker ran while looking for work (each sweeps
    /// every other PE's Goal Stack once; `goals_stolen` counts successes).
    pub steal_attempts: u64,
    /// Idle-backoff transitions from spinning to yielding (relaxed
    /// backend's idle ladder; zero on the strict backend).
    pub backoff_yields: u64,
    /// Idle-backoff transitions from yielding to timed parking (relaxed
    /// backend).
    pub backoff_parks: u64,
    /// Microseconds spent in timed parks while idle (relaxed backend).
    pub park_micros: u64,
    /// Flat-dispatch batch exits caused by the slot's instruction budget
    /// running out while the worker was still running: the quantum on an
    /// N-PE strict engine, the relaxed backend's batch length, and on a
    /// one-PE strict engine the slot cap or a due fuel/step limit.  Dispatch
    /// telemetry, not a property of the program: it counts driver
    /// re-entries, so it is the one counter that depends on how long a slot
    /// is.
    pub batch_exits_budget: u64,
    /// Flat-dispatch batch exits caused by leaving the running state
    /// (parked at a `pcall_wait`, went idle, cancelling, query finished).
    pub batch_exits_park: u64,
}

/// Statistics of one engine run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Number of workers (PEs) configured.
    pub num_workers: usize,
    /// Total abstract-machine instructions executed (all PEs).
    pub instructions: u64,
    /// Total data memory references (all PEs).
    pub data_refs: u64,
    /// Reads / writes split of `data_refs`.
    pub reads: u64,
    pub writes: u64,
    /// Machine cycles until the query finished, one per scheduling round of
    /// the strict backend; with the default quantum of one instruction
    /// this approximates the parallel critical path and is the quantity
    /// used to compute speed-ups.  A one-PE engine retires many
    /// instructions per slot but counts one cycle for each, so there
    /// `elapsed_cycles == instructions + idle_cycles` exactly as if it had
    /// been driven an instruction at a time.  The relaxed backend has no
    /// rounds and reports the busiest PE's instructions + idle slots.
    pub elapsed_cycles: u64,
    /// Number of Parcall Frames allocated (parallel calls executed).
    pub parcalls: u64,
    /// Goal Frames executed through the Goal Stack machinery.
    pub parallel_goals: u64,
    /// Goal Frames executed by a PE other than the Parcall Frame's parent —
    /// the paper's "goals actually executed in parallel".
    pub goals_actually_parallel: u64,
    /// Number of logical inferences (user predicate calls) performed.
    pub inferences: u64,
    /// Failures that reached a parallel-goal boundary or crossed a Parcall
    /// Frame, counted once per originating failure (deferred-cancellation
    /// resumptions and cancel-induced aborts do not re-count).  Zero is a
    /// logical (schedule-free) property of the program: a reference run
    /// reporting zero guarantees no schedule can trigger backward
    /// execution, which is what the differential suite keys its
    /// counter-equality contract on.
    pub parcall_failures: u64,
    /// Parcall Frames cancelled by backward execution (a parent failing
    /// past an incomplete frame, or a failed goal dooming its siblings).
    pub parcalls_cancelled: u64,
    /// Goal Frames retracted un-executed during parcall cancellation.
    pub goals_cancelled: u64,
    /// `cancel_goal` requests posted for in-flight stolen goals.
    pub cancel_requests: u64,
    /// Detailed per-area / per-object reference counters.
    pub area_stats: AreaStats,
    /// Per-worker summaries.
    pub workers: Vec<WorkerStats>,
    /// Per-predicate instruction attribution from the dispatch loop:
    /// `("name/arity", instructions)` sorted by decreasing count (ties by
    /// name).  Attribution is call-granular — instructions between two call
    /// boundaries are charged to the predicate entered at the first — and
    /// the query body itself appears as `$query`.
    pub predicate_profile: Vec<(String, u64)>,
}

impl RunStats {
    /// Average data references per instruction (the paper quotes ~3 for
    /// large programs; small benchmarks are typically between 2 and 3).
    pub fn refs_per_instruction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.data_refs as f64 / self.instructions as f64
        }
    }

    /// References to a given area.
    pub fn refs_to(&self, area: Area) -> u64 {
        self.area_stats.area(area).total()
    }

    /// Fraction of busy (non-idle) cycles over all workers.
    pub fn utilisation(&self) -> f64 {
        let busy: u64 = self.workers.iter().map(|w| w.instructions).sum();
        let idle: u64 = self.workers.iter().map(|w| w.idle_cycles).sum();
        if busy + idle == 0 {
            0.0
        } else {
            busy as f64 / (busy + idle) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios() {
        let stats = RunStats {
            instructions: 100,
            data_refs: 250,
            inferences: 10,
            workers: vec![
                WorkerStats { instructions: 60, idle_cycles: 20, ..Default::default() },
                WorkerStats { instructions: 40, idle_cycles: 80, ..Default::default() },
            ],
            ..Default::default()
        };
        assert!((stats.refs_per_instruction() - 2.5).abs() < 1e-12);
        assert!((stats.utilisation() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_division_is_safe() {
        let stats = RunStats::default();
        assert_eq!(stats.refs_per_instruction(), 0.0);
        assert_eq!(stats.utilisation(), 0.0);
    }
}
