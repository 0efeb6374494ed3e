//! Sample where the executor's host time goes: a dependency-free SIGPROF
//! profiler around one leg of the pwam-ladder's work, run over and over on
//! one recycled set of arenas:
//!
//! * `--leg cge` — the `seq-large` mix (tak, fib, boyer twice and queens at
//!   `Scale::Large`) on one PE, compiled for CGE (`QueryOptions::parallel(1)`);
//! * `--leg wam` — the same mix compiled for the WAM
//!   (`QueryOptions::sequential()`).  Comparing the two legs' profiles
//!   attributes what a one-PE CGE run spends beyond the WAM;
//! * `--leg trace4` — `trace-sim`'s run: its mix (deriv, tak twice, qsort and
//!   matrix at `Scale::Paper`) on four strict interleaved PEs, traced
//!   (`QueryOptions::parallel(4).with_trace()`), each run's merged trace
//!   dropped unread.  The cache sweep that follows it in `trace-sim` is the
//!   `sweep` leg;
//! * `--leg plain2` — the same mix on two strict interleaved PEs, untraced
//!   (`QueryOptions::parallel(2)`): the N-PE driver at its default quantum of
//!   one instruction per slot, without the recording;
//! * `--leg sweep` — `trace-sim`'s cache sweep: the five traces `trace4`
//!   records, made once before the profile starts, each replayed in turn
//!   through `run_sweep_with_threads` over the benchmark's eight
//!   configurations (the four protocols × 512- and 2048-word caches under
//!   the paper's allocation policy, four PEs) on `--threads` threads
//!   (default 2), the calling thread included.
//!
//! The process asks for a `SIGPROF` every millisecond of CPU time
//! (`setitimer(ITIMER_PROF)`; the kernel rounds the interval up to its tick,
//! 4 ms at `HZ=250`), and the handler stores the interrupted instruction's
//! address in a preallocated buffer.  At the end every sample is printed on
//! stdout, one hex address per line, relative to the executable's load
//! address, so `addr2line` reads them straight; a summary goes to stderr.
//!
//! ```text
//! cargo build --release --example profile_leg
//! EXE=target/release/examples/profile_leg
//! $EXE --leg cge --seconds 60 > cge.pcs
//! $EXE --leg wam --seconds 60 > wam.pcs
//! # samples per function, inlined frames attributed to the innermost one:
//! addr2line -a -f -i -C -e $EXE < cge.pcs | awk '/^0x/ { getline f; print f }' \
//!     | sort | uniq -c | sort -rn | head -40
//! # samples per out-of-line function (the last frame `-i` prints per address):
//! addr2line -a -f -i -C -e $EXE < cge.pcs \
//!     | awk '/^0x/ { if (f) print f; n = 0; next } { if (n++ % 2 == 0) f = $0 } END { print f }' \
//!     | sort | uniq -c | sort -rn | head -40
//! # the hottest single instructions:
//! sort cge.pcs | uniq -c | sort -rn | head -20
//! ```
//!
//! `addr2line -f -i` prints a function line and a `file:line` line for every
//! inlining level of an address, innermost first; `-a` puts the address
//! before them, which is what the `awk` scripts split on.  The release
//! profile keeps debug info (`[profile.release] debug = true` in the
//! workspace manifest), so inlined frames resolve.  Divide a count by the
//! leg's sample total for its share.
//!
//! The sampler is Linux on x86-64 only: it reads the interrupted `RIP` out
//! of the kernel's `ucontext_t`.  Elsewhere the example exits with code 2.
//!
//! Usage: `profile_leg [--leg cge|wam|trace4|plain2|sweep] [--seconds N]
//! [--threads N]` (defaults `cge`, 60, 2; `--threads` is the sweep's).

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    use pwam_bench::cli::{arg_value, num_arg, reject_unknown_flags, usage_error};
    use pwam_benchmarks::{benchmark, BenchmarkId, Scale};
    use pwam_cachesim::sweep::run_sweep_with_threads;
    use pwam_cachesim::{CacheConfig, Protocol, SimConfig};
    use rapwam::session::{QueryOptions, Session};
    use std::io::Write;
    use std::time::{Duration, Instant};
    use BenchmarkId::{Boyer, Deriv, Fib, Matrix, Qsort, Queens, Tak};

    let args: Vec<String> = std::env::args().collect();
    reject_unknown_flags(&args, &[("--leg", true), ("--seconds", true), ("--threads", true)]);
    let leg = arg_value(&args, "--leg").unwrap_or_else(|| "cge".to_string());
    // The ladder's mixes, with the program it doubles listed twice.
    let seq_large: &[BenchmarkId] = &[Tak, Fib, Boyer, Boyer, Queens];
    let trace_sim: &[BenchmarkId] = &[Deriv, Tak, Tak, Qsort, Matrix];
    let (options, mix, scale) = match leg.as_str() {
        "cge" => (QueryOptions::parallel(1), seq_large, Scale::Large),
        "wam" => (QueryOptions::sequential(), seq_large, Scale::Large),
        "trace4" => (QueryOptions::parallel(4).with_trace(), trace_sim, Scale::Paper),
        "plain2" => (QueryOptions::parallel(2), trace_sim, Scale::Paper),
        "sweep" => (QueryOptions::parallel(4).with_trace(), trace_sim, Scale::Paper),
        other => usage_error(&format!("--leg {other} (expected cge, wam, trace4, plain2 or sweep)")),
    };
    let seconds = num_arg(&args, "--seconds").unwrap_or(60);
    let threads = num_arg(&args, "--threads").unwrap_or(2) as usize;
    if threads == 0 {
        usage_error("--threads 0 (a sweep needs at least the calling thread)");
    }

    let programs: Vec<_> = mix
        .iter()
        .map(|&id| {
            let bench = benchmark(id, scale);
            let mut session = Session::new(&bench.program).expect("registry program parses");
            let compiled = session
                .prepare_with(&bench.query, options.compile_options())
                .expect("registry program compiles");
            (id, session, compiled)
        })
        .collect();
    let mut memory = None;
    let mut execute = |i: usize| {
        let (id, session, compiled) = &programs[i % programs.len()];
        let (result, recycled, _warm) = session
            .run_prepared_reusing(compiled, &options, memory.take())
            .unwrap_or_else(|e| panic!("{}: run failed: {e}", id.name()));
        assert!(result.outcome.is_success(), "{}: the query failed", id.name());
        memory = Some(recycled);
        result.trace
    };
    // Warm the arenas and the caches outside the profile; the sweep leg
    // keeps the traces and profiles only their replay.
    let traces: Vec<_> = (0..programs.len()).map(&mut execute).collect();
    let configs: Vec<SimConfig> = Protocol::ALL
        .into_iter()
        .flat_map(|protocol| {
            [512, 2048].map(|size| SimConfig {
                cache: CacheConfig::paper_policy(size, protocol),
                protocol,
                num_pes: 4,
            })
        })
        .collect();
    let mut run = |i: usize| match traces[i % traces.len()].as_deref() {
        Some(trace) if leg == "sweep" => drop(run_sweep_with_threads(trace, &configs, threads)),
        _ => drop(execute(i)),
    };

    let base = sampler::executable_base();
    sampler::start(Duration::from_millis(1));
    let started = Instant::now();
    let mut ops = 0;
    while started.elapsed() < Duration::from_secs(seconds) {
        run(ops);
        ops += 1;
    }
    let samples = sampler::stop();
    let elapsed = started.elapsed().as_secs_f64();

    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    for &pc in &samples {
        writeln!(out, "{:#x}", pc.wrapping_sub(base)).expect("stdout takes the samples");
    }
    out.flush().expect("stdout takes the samples");
    eprintln!(
        "profile_leg: leg {leg}, {ops} ops in {elapsed:.1} s ({:.1} ops/s), {} samples",
        ops as f64 / elapsed,
        samples.len()
    );
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("profile_leg: the SIGPROF sampler reads x86-64 Linux signal frames only");
    std::process::exit(2);
}

/// The sampler: a `SIGPROF` handler that stores the interrupted instruction
/// pointer, armed and disarmed with `setitimer`.  `sigaction` and
/// `setitimer` come from the C library the standard library already links.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::ffi::c_void;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
    use std::time::Duration;

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// Byte offset of the saved `RIP` in x86-64 Linux's `ucontext_t`:
    /// `uc_flags` (8), `uc_link` (8) and `uc_stack` (24) come first, then
    /// `uc_mcontext.gregs`, whose `REG_RIP` is entry 16.
    const RIP_OFFSET: usize = 8 + 8 + 24 + 16 * 8;
    /// Room for 73 minutes of samples at the kernel's 4 ms tick; later ones
    /// are counted and dropped.
    const CAPACITY: usize = 1 << 20;

    /// glibc's `struct sigaction` on x86-64.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    extern "C" {
        fn sigaction(signal: i32, action: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
    }

    static SAMPLES: [AtomicU64; CAPACITY] = [const { AtomicU64::new(0) }; CAPACITY];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    /// Stores and loads of atomics are all it does: async-signal-safe.
    extern "C" fn on_sigprof(_signal: i32, _info: *mut c_void, context: *mut c_void) {
        // SAFETY: with `SA_SIGINFO` the kernel passes the interrupted
        // thread's `ucontext_t` as the third argument; on x86-64 Linux it is
        // 8-byte aligned and holds the saved `RIP` as a `u64` at
        // `RIP_OFFSET`, inside the structure.
        let pc = unsafe { context.cast::<u8>().add(RIP_OFFSET).cast::<u64>().read() };
        if let Some(slot) = SAMPLES.get(TAKEN.fetch_add(1, Relaxed)) {
            slot.store(pc, Relaxed);
        }
    }

    fn set_timer(every: Duration) {
        let tick = TimeVal { sec: every.as_secs() as i64, usec: every.subsec_micros() as i64 };
        let timer = ITimerVal { interval: tick, value: tick };
        // SAFETY: `timer` is a valid `struct itimerval` for the duration of
        // the call, and a null `old` asks for nothing back.
        let status = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
        assert_eq!(status, 0, "setitimer: {}", std::io::Error::last_os_error());
    }

    /// Install the handler and start a `SIGPROF` per `every` of CPU time.
    pub fn start(every: Duration) {
        let handler: extern "C" fn(i32, *mut c_void, *mut c_void) = on_sigprof;
        let action = SigAction {
            handler: handler as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: `action` is a valid `struct sigaction` (empty mask) whose
        // handler has the three-argument `SA_SIGINFO` signature, and a null
        // `old` asks for nothing back.
        let status = unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) };
        assert_eq!(status, 0, "sigaction: {}", std::io::Error::last_os_error());
        set_timer(every);
    }

    /// Disarm the timer and return the samples taken, in order.
    pub fn stop() -> Vec<u64> {
        set_timer(Duration::ZERO);
        let taken = TAKEN.load(Relaxed);
        if taken > CAPACITY {
            eprintln!("profile_leg: {} samples past the buffer were dropped", taken - CAPACITY);
        }
        SAMPLES[..taken.min(CAPACITY)].iter().map(|s| s.load(Relaxed)).collect()
    }

    /// Where the executable's first segment is mapped: subtracted from a
    /// sample, it gives the address `addr2line` looks up.
    pub fn executable_base() -> u64 {
        let exe = std::fs::canonicalize("/proc/self/exe").expect("the executable's path");
        let maps = std::fs::read_to_string("/proc/self/maps").expect("the process's mappings");
        maps.lines()
            .find_map(|line| {
                // start-end perms offset dev inode path
                let fields: Vec<&str> = line.split_whitespace().collect();
                let (range, offset, path) = (fields[0], fields[2], fields.get(5)?);
                let first = u64::from_str_radix(offset, 16).ok()? == 0 && std::path::Path::new(path) == exe;
                first.then(|| u64::from_str_radix(range.split('-').next()?, 16).ok()).flatten()
            })
            .expect("the executable is mapped at offset 0")
    }
}
