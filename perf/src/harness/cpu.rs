//! Pinning the benchmark process to one CPU.
//!
//! A workload whose every request is a few microseconds of work is timed
//! mostly in wake-ups between the client, the event loop and the workers.
//! On a small machine the scheduler's placement of those threads decides
//! whether a wake-up stays on its CPU or crosses to another, and a
//! placement can last tens of seconds: unpinned, one hot-cache run moved
//! between about 19k and 28k requests/s as it changed. On one CPU every
//! wake-up is local.

use std::io;

/// 64-bit words in the CPU masks passed to the kernel (1,024 CPUs).
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on now. Returns that CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed;
    // the kernel writes at most that many bytes into it.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = allowed
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
        .ok_or_else(|| io::Error::other("no CPU is allowed"))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Pinning needs Linux's affinity calls; elsewhere the run stays unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> io::Result<usize> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "CPU affinity is set only on Linux",
    ))
}
