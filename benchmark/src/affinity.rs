//! Confining the process to one CPU.
//!
//! The relaxed backend is bistable on a multi-core host: the operating
//! system either keeps the PE threads of a run on one CPU, where they take
//! turns, or spreads them, where they contend for every shared cache line
//! and run two to three times slower (measured on the seed host; see the
//! README).  Which of the two happens is the scheduler's choice, lasts for
//! seconds to minutes and flips between runs, so no timed window of
//! `par-large` would repeat.  The benchmark cannot place single PE threads
//! from outside the engine; it can place all of them, which it does.

use std::ffi::c_int;

/// glibc's `cpu_set_t`: 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// Restrict the calling thread, and with it every thread started from now
/// on, to the first CPU it may run on.  Returns that CPU's number.  Call
/// before the first thread is started.
pub fn confine_to_one_cpu() -> Result<usize, String> {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the length
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let word = allowed.iter().position(|w| *w != 0).ok_or("empty CPU affinity mask")?;
    let bit = allowed[word].trailing_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the length passed, which
    // the call only reads; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(word * 64 + bit)
}
