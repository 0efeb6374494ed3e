//! Streaming differential over the benchmark registry: driving a registry
//! program through a [`rapwam::QueryCursor`] must be observationally
//! identical to the one-shot [`Session::run_prepared`] path at the first
//! answer boundary (same bindings, counters, per-area/per-object counts,
//! trace fingerprint), and a drained-then-recycled cursor must replay the
//! same stream warm.  This pins the resumable state machine against the
//! real WAM workloads, complementing the randomized program family in
//! `crates/core/tests/resumable_differential.rs`.

use pwam_benchmarks::{benchmark, BenchmarkId, Scale};
use rapwam::session::{QueryOptions, Session};
use rapwam::trace::fingerprint;
use rapwam::{Area, MemoryConfig, ObjectKind, Outcome};

fn small_opts(workers: usize) -> QueryOptions {
    // CI matrix knob: `PWAM_THREADS` overrides the default worker count.
    let workers = std::env::var("PWAM_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(workers);
    QueryOptions { trace: true, memory: MemoryConfig::small(), ..QueryOptions::parallel(workers) }
}

/// Benchmarks can enumerate large solution spaces; bound the drain so the
/// suite stays fast while still crossing many suspension points.
const MAX_ANSWERS: usize = 25;

fn drain_capped(session: &Session, cursor: &mut rapwam::QueryCursor) -> Vec<Vec<(String, String)>> {
    let mut answers = Vec::new();
    while answers.len() < MAX_ANSWERS {
        match cursor.next().expect("cursor step") {
            Some(b) => {
                answers.push(b.iter().map(|(n, t)| (n.clone(), session.render(t))).collect::<Vec<_>>());
                cursor
                    .check_consistency()
                    .unwrap_or_else(|e| panic!("inconsistent stack sets at answer {}: {e}", answers.len()));
                assert_eq!(cursor.pending_goal_frames(), 0, "goal frames parked across an answer boundary");
            }
            None => break,
        }
    }
    answers
}

#[test]
fn first_answers_match_the_one_shot_path_on_the_registry() {
    for id in BenchmarkId::EXTENDED {
        let b = benchmark(id, Scale::Small);
        let mut session = Session::new(&b.program).unwrap();
        let opts = small_opts(4);
        let compiled = session.prepare_with(&b.query, opts.compile_options()).unwrap();

        let one_shot = session.run_prepared(&compiled, &opts).unwrap();
        let mut cursor = session.open_cursor(&compiled, &opts, None).unwrap();
        let first = cursor.next().expect("cursor step");

        match (&one_shot.outcome, &first) {
            (Outcome::Success(expected), Some(got)) => {
                let expected: Vec<(String, String)> =
                    expected.iter().map(|(n, t)| (n.clone(), session.render(t))).collect();
                let got: Vec<(String, String)> =
                    got.iter().map(|(n, t)| (n.clone(), session.render(t))).collect();
                assert_eq!(expected, got, "{}: first answers differ", id.name());
            }
            (Outcome::Failure, None) => {}
            (a, b) => panic!("{}: outcome mismatch: run={a:?} cursor={b:?}", id.name()),
        }

        let stats = cursor.stats().expect("cursor stats");
        assert_eq!(one_shot.stats.instructions, stats.instructions, "{}: instructions", id.name());
        assert_eq!(one_shot.stats.inferences, stats.inferences, "{}: inferences", id.name());
        assert_eq!(one_shot.stats.data_refs, stats.data_refs, "{}: refs", id.name());
        assert_eq!(one_shot.stats.elapsed_cycles, stats.elapsed_cycles, "{}: cycles", id.name());
        assert_eq!(one_shot.stats.parcalls, stats.parcalls, "{}: parcalls", id.name());
        for area in Area::ALL {
            assert_eq!(
                one_shot.stats.area_stats.area(area),
                stats.area_stats.area(area),
                "{}: {} counts",
                id.name(),
                area.name()
            );
        }
        for object in ObjectKind::ALL {
            assert_eq!(
                one_shot.stats.area_stats.object(object),
                stats.area_stats.object(object),
                "{}: {} counts",
                id.name(),
                object.name()
            );
        }
        let run_fp = fingerprint(one_shot.trace.as_ref().expect("run trace"));
        let cursor_fp = fingerprint(&cursor.take_trace().expect("cursor trace"));
        assert_eq!(run_fp, cursor_fp, "{}: trace fingerprints differ", id.name());
    }
}

#[test]
fn recycled_cursors_replay_the_registry_streams_warm() {
    for id in BenchmarkId::EXTENDED {
        let b = benchmark(id, Scale::Small);
        let mut session = Session::new(&b.program).unwrap();
        let opts = small_opts(2);
        let compiled = session.prepare_with(&b.query, opts.compile_options()).unwrap();

        let mut cursor = session.open_cursor(&compiled, &opts, None).unwrap();
        let cold = drain_capped(&session, &mut cursor);
        let memory = cursor.close().expect("drained cursor yields its arenas");

        let mut replay = session.open_cursor(&compiled, &opts, Some(memory)).unwrap();
        let warm = drain_capped(&session, &mut replay);
        assert_eq!(cold, warm, "{}: warm replay diverged from the cold stream", id.name());
    }
}
