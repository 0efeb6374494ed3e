//! Results: the answer, the merged trace and the run statistics of an engine.

use super::{Engine, Outcome, RunResult};
use crate::answer::extract_binding;
use crate::error::{EngineError, EngineResult};
use crate::frames::env;
use crate::layout::ObjectKind;
use crate::stats::{RunStats, WorkerStats};
use crate::trace::{AreaStats, MemRef};
use crate::worker::park_records;
use pwam_front::SymbolTable;
use pwam_front::Term;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

impl<'p> Engine<'p> {
    // -----------------------------------------------------------------
    // Results
    // -----------------------------------------------------------------

    /// The current answer's query-variable bindings, without symbol-table
    /// rendering (variables print as `_G<addr>`; atoms keep their interned
    /// [`pwam_front::Atom`] inside the returned [`Term`]s).  Only meaningful
    /// while the engine stands at an answer (`finished() == Some(true)`),
    /// which both callers check first.
    pub(crate) fn answer_bindings(&self) -> EngineResult<Vec<(String, Term)>> {
        let env_addr = self.core.answer_env.load(Ordering::Relaxed);
        let mut out = Vec::new();
        for (name, slot) in &self.core.program.query_vars {
            let addr = env::y_addr(env_addr, *slot);
            let term = extract_binding(&self.core.mem, addr)?;
            out.push((name.clone(), term));
        }
        Ok(out)
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
    pub(crate) fn take_trace(&mut self) -> Option<Vec<MemRef>> {
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
    /// behind for reuse (the trace buffer, if any, is drained).  An engine
    /// parked at spent fuel has no result yet: that is an
    /// [`EngineError::Internal`].  `_syms` is not read: answers keep their
    /// interned atoms and are rendered later.
    pub(crate) fn take_result(&mut self, _syms: &SymbolTable) -> EngineResult<RunResult> {
        let outcome = match self.core.finished() {
            Some(true) => Outcome::Success(self.answer_bindings()?),
            Some(false) => Outcome::Failure,
            None => return Err(EngineError::Internal(
                "no result yet: the engine has not completed (it is parked at spent fuel, or has not run)"
                    .to_string(),
            )),
        };
        let stats = self.stats();
        let trace = self.take_trace();
        Ok(RunResult { outcome, stats, trace })
    }

    /// Run statistics of the engine as it stands (usable while it is parked
    /// at an answer or at spent fuel).
    pub fn stats(&self) -> RunStats {
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
