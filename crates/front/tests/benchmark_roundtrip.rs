//! Parse → pretty-print → re-parse round-trips over the four benchmark
//! programs of the paper: pretty-printing a parsed program and parsing it
//! again must reproduce the same clauses, and printing must be idempotent.

use pwam_benchmarks::{benchmark, BenchmarkId, Scale};
use pwam_front::parse_program;
use pwam_front::pretty::program_to_string;
use pwam_front::SymbolTable;

#[test]
fn benchmark_programs_round_trip() {
    for id in BenchmarkId::ALL {
        let bench = benchmark(id, Scale::Small);
        let mut syms = SymbolTable::new();
        let program = parse_program(&bench.program, &mut syms)
            .unwrap_or_else(|e| panic!("{}: parse failed: {e}", id.name()));
        assert!(!program.clauses.is_empty(), "{}: no clauses", id.name());

        let printed = program_to_string(&program, &syms);
        let reparsed = parse_program(&printed, &mut syms)
            .unwrap_or_else(|e| panic!("{}: re-parse of pretty output failed: {e}\n{printed}", id.name()));
        assert_eq!(
            program.clauses,
            reparsed.clauses,
            "{}: pretty-printed program parsed differently",
            id.name()
        );
    }
}

#[test]
fn pretty_printing_is_idempotent_on_benchmarks() {
    for id in BenchmarkId::ALL {
        let bench = benchmark(id, Scale::Small);
        let mut syms = SymbolTable::new();
        let program = parse_program(&bench.program, &mut syms).unwrap();
        let once = program_to_string(&program, &syms);
        let again = program_to_string(&parse_program(&once, &mut syms).unwrap(), &syms);
        assert_eq!(once, again, "{}: pretty output not a fixed point", id.name());
    }
}

#[test]
fn benchmark_queries_parse() {
    for id in BenchmarkId::ALL {
        for scale in [Scale::Small, Scale::Paper] {
            let bench = benchmark(id, scale);
            let mut syms = SymbolTable::new();
            pwam_front::parse_query(&bench.query, &mut syms)
                .unwrap_or_else(|e| panic!("{} {scale:?}: query failed to parse: {e}", id.name()));
        }
    }
}

#[test]
fn cge_annotations_survive_the_round_trip() {
    // All four paper benchmarks are annotated; their CGEs must survive
    // printing and re-parsing.
    for id in BenchmarkId::ALL {
        let bench = benchmark(id, Scale::Small);
        let mut syms = SymbolTable::new();
        let program = parse_program(&bench.program, &mut syms).unwrap();
        let cges = program.cge_count();
        assert!(cges > 0, "{}: benchmark program has no CGE annotations", id.name());
        let reparsed = parse_program(&program_to_string(&program, &syms), &mut syms).unwrap();
        assert_eq!(cges, reparsed.cge_count(), "{}: CGE count changed", id.name());
    }
}
