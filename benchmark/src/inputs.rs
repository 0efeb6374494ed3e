//! Seeded inputs: which program each op runs, when open-loop requests are
//! due, the never-seen programs of `serve-cold`, and the golden answers
//! every op is checked against.
//!
//! Everything here is a pure function of `--seed`; the program under test
//! only ever sees the generated inputs.

use pwam_benchmarks::{benchmark, BenchmarkId, Scale};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::OnceLock;
use std::time::Duration;

/// One registry program at one scale, with the answer it must produce.
#[derive(Debug, Clone)]
pub struct Bench {
    pub id: BenchmarkId,
    pub program: String,
    pub query: String,
    /// Golden `(variable, rendered term)` bindings.
    pub expected: Vec<(String, String)>,
}

pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Small => "small",
        Scale::Paper => "paper",
        Scale::Large => "large",
    }
}

/// The committed answers, `program → scale → variable → rendered term`.
/// Compiled in, so a checkout that lacks the file does not build.
const GOLDEN: &str = include_str!("../golden/answers.json");

/// Golden bindings of `id` at `scale`.
pub fn golden(id: BenchmarkId, scale: Scale) -> Vec<(String, String)> {
    static DOC: OnceLock<serde_json::Value> = OnceLock::new();
    let doc = DOC.get_or_init(|| serde_json::from_str(GOLDEN).expect("golden/answers.json is valid JSON"));
    let entry = doc
        .get(id.name())
        .and_then(|p| p.get(scale_name(scale)))
        .unwrap_or_else(|| panic!("golden/answers.json has no {} at {}", id.name(), scale_name(scale)));
    let serde_json::Value::Object(bindings) = entry else { panic!("golden entry is not an object") };
    bindings
        .iter()
        .map(|(var, term)| (var.clone(), term.as_str().expect("golden term is a string").to_string()))
        .collect()
}

pub fn bench(id: BenchmarkId, scale: Scale) -> Bench {
    let b = benchmark(id, scale);
    Bench { id, program: b.program, query: b.query, expected: golden(id, scale) }
}

/// A workload's programs with their weights in the op mix.
///
/// Weights are chosen so that the median and the 90th percentile of the
/// pooled latency fall *inside* one program's mode: with equal weights
/// over an even number of programs the median sits on the boundary between
/// two modes and jumps between them from run to run.
pub type Mix = &'static [(BenchmarkId, usize)];

/// An endless op order: repeated blocks holding each mix index `weight`
/// times, each block shuffled — so every block of ops has exactly the mix's
/// proportions whatever the seed.
pub struct OpOrder {
    rng: StdRng,
    block: Vec<usize>,
    pos: usize,
}

/// An independent generator for stream `stream` of run `seed`.
pub fn stream_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl OpOrder {
    pub fn new(seed: u64, stream: u64, mix: Mix) -> OpOrder {
        let block: Vec<usize> =
            mix.iter().enumerate().flat_map(|(i, (_, w))| std::iter::repeat_n(i, *w)).collect();
        let pos = block.len();
        OpOrder { rng: stream_rng(seed, stream), block, pos }
    }
}

impl Iterator for OpOrder {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.pos == self.block.len() {
            for i in (1..self.block.len()).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.block.swap(i, j);
            }
            self.pos = 0;
        }
        self.pos += 1;
        Some(self.block[self.pos - 1])
    }
}

/// Due times of a Poisson arrival process at `rate_per_s` over `window`,
/// as offsets from the window's start.  Fixed before the first request is
/// sent: open-loop arrivals never adapt to a slow server.
pub fn poisson_schedule(rng: &mut StdRng, rate_per_s: f64, window: Duration) -> Vec<Duration> {
    let mut offsets = Vec::new();
    let mut t = 0.0;
    loop {
        // Inverse-CDF sampling; the uniform stays in (0, 1] so ln is finite.
        let unit = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -unit.ln() / rate_per_s;
        if t >= window.as_secs_f64() {
            return offsets;
        }
        offsets.push(Duration::from_secs_f64(t));
    }
}

/// Source of never-seen programs: a registry program plus one
/// `bench_nonce/1` fact that no query calls.  The fact changes the program
/// text — the server's cache key — without changing any answer.
pub struct Nonces {
    base: u64,
    issued: u64,
}

impl Nonces {
    pub fn new(seed: u64) -> Nonces {
        // 40 random bits, shifted so that adding the issue counter cannot
        // carry into them: nonces of one run are distinct by construction.
        Nonces { base: (stream_rng(seed, u64::MAX).next_u64() >> 24) << 20, issued: 0 }
    }

    pub fn program(&mut self, base_program: &str) -> String {
        let nonce = self.base + self.issued;
        self.issued += 1;
        format!("{base_program}\nbench_nonce({nonce}).\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwam_benchmarks::{validate, Validation};
    use rapwam::session::{QueryOptions, Session};
    use rapwam::Outcome;

    const MIX: Mix = &[(BenchmarkId::Tak, 1), (BenchmarkId::Fib, 2), (BenchmarkId::Boyer, 1)];

    #[test]
    fn op_order_and_poisson_schedule_are_pure_functions_of_the_seed() {
        let order = |seed, stream| OpOrder::new(seed, stream, MIX).take(64).collect::<Vec<_>>();
        assert_eq!(order(7, 0), order(7, 0));
        assert_ne!(order(7, 0), order(8, 0));
        assert_ne!(order(7, 0), order(7, 1));
        let schedule = |seed| poisson_schedule(&mut stream_rng(seed, 3), 200.0, Duration::from_secs(2));
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
        let s = schedule(7);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "due times ascend");
        assert!((300..500).contains(&s.len()), "about rate x window arrivals, got {}", s.len());
    }

    #[test]
    fn every_block_of_ops_has_the_mix_proportions() {
        let ops: Vec<usize> = OpOrder::new(3, 0, MIX).take(40).collect();
        for block in ops.chunks(4) {
            let count = |i| block.iter().filter(|&&x| x == i).count();
            assert_eq!((count(0), count(1), count(2)), (1, 2, 1));
        }
    }

    #[test]
    fn nonce_programs_are_distinct_and_still_parse_and_validate() {
        let mut nonces = Nonces::new(11);
        let mut seen = std::collections::HashSet::new();
        for id in BenchmarkId::EXTENDED {
            let b = benchmark(id, Scale::Small);
            let src = nonces.program(&b.program);
            assert!(seen.insert(src.clone()), "nonce program repeated");
            assert_ne!(src, b.program);
            let mut session = Session::new(&src).expect("nonce program parses");
            let result = session.run(&b.query, &QueryOptions::parallel(1)).expect("nonce program runs");
            validate(&b, &session, &result).expect("nonce program keeps the registry's answer");
        }
        assert_eq!(Nonces::new(11).program("p."), Nonces::new(11).program("p."));
        assert_ne!(Nonces::new(11).program("p."), Nonces::new(12).program("p."));
    }

    /// The golden file against the engine and, where the registry states an
    /// expected value, against that value — so the file is tied to
    /// something other than a run of the engine under test.
    #[test]
    fn golden_answers_agree_with_the_registry() {
        for scale in [Scale::Small, Scale::Paper, Scale::Large] {
            for id in BenchmarkId::EXTENDED {
                let b = benchmark(id, scale);
                let want = golden(id, scale);
                let mut session = Session::new(&b.program).unwrap();
                let result = session.run(&b.query, &QueryOptions::sequential()).unwrap();
                let Outcome::Success(bindings) = &result.outcome else { panic!("{} failed", id.name()) };
                let got: Vec<(String, String)> =
                    bindings.iter().map(|(n, t)| (n.clone(), session.render(t))).collect();
                assert_eq!(got, want, "{} at {}", id.name(), scale_name(scale));
                let var = |name: &str| {
                    want.iter().find(|(n, _)| n == name).map(|(_, t)| t.clone()).expect("golden variable")
                };
                match &b.validation {
                    Validation::EqualsInt { variable, expected } => {
                        assert_eq!(var(variable), expected.to_string());
                    }
                    Validation::EqualsAtom { variable, expected } => assert_eq!(&var(variable), expected),
                    Validation::EqualsList { variable, expected } => {
                        let text: Vec<String> = expected.iter().map(|i| i.to_string()).collect();
                        assert_eq!(var(variable), format!("[{}]", text.join(",")));
                    }
                    Validation::EqualsMatrix { variable, expected } => {
                        let rows: Vec<String> = expected
                            .iter()
                            .map(|r| {
                                let cells: Vec<String> = r.iter().map(|i| i.to_string()).collect();
                                format!("[{}]", cells.join(","))
                            })
                            .collect();
                        assert_eq!(var(variable), format!("[{}]", rows.join(",")));
                    }
                    Validation::MatchesSequential { .. } | Validation::SucceedsOnly => {}
                }
            }
        }
    }

    /// `cargo test -- --ignored regenerate_golden` rewrites the golden file
    /// from a sequential-WAM run (after a registry input changes); review
    /// the diff and re-run `golden_answers_agree_with_the_registry`.
    #[test]
    #[ignore = "rewrites golden/answers.json"]
    fn regenerate_golden() {
        use serde_json::Value;
        let mut programs = Vec::new();
        for id in BenchmarkId::EXTENDED {
            let mut scales = Vec::new();
            for scale in [Scale::Small, Scale::Paper, Scale::Large] {
                let b = benchmark(id, scale);
                let mut session = Session::new(&b.program).unwrap();
                let result = session.run(&b.query, &QueryOptions::sequential()).unwrap();
                let Outcome::Success(bindings) = &result.outcome else { panic!("{} failed", id.name()) };
                let bindings =
                    bindings.iter().map(|(n, t)| (n.clone(), Value::Str(session.render(t)))).collect();
                scales.push((scale_name(scale).to_string(), Value::Object(bindings)));
            }
            programs.push((id.name().to_string(), Value::Object(scales)));
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/answers.json");
        std::fs::write(path, Value::Object(programs).to_json_pretty() + "\n").unwrap();
    }
}
