//! What the benchmark needs from the host and has no std call for: CPU
//! pinning, a clock that reads the same in every process, process-group
//! kill, the kernel's per-process counters the traced run reports, and
//! the allocator's thresholds. 64-bit Linux with glibc only.

use std::ffi::c_void;

type Pid = i32;

const CLOCK_MONOTONIC: i32 = 1;
const SIGKILL: i32 = 9;
/// Bits in the affinity mask handed to the kernel (1,024 CPUs).
const MASK_WORDS: usize = 16;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
struct Rusage {
    /// `ru_utime`, `ru_stime`.
    times: [i64; 4],
    /// `ru_maxrss` .. `ru_nivcsw`, in declaration order.
    counts: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
/// Index of `ru_minflt` in [`Rusage::counts`].
const RU_MINFLT: usize = 4;

/// `mallopt` parameters (`<malloc.h>`).
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;
const M_ARENA_MAX: i32 = -8;

extern "C" {
    fn sched_getaffinity(pid: Pid, size: usize, mask: *mut c_void) -> i32;
    fn sched_setaffinity(pid: Pid, size: usize, mask: *const c_void) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn kill(pid: Pid, sig: i32) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Nanoseconds on `CLOCK_MONOTONIC`. Unlike `std::time::Instant` the
/// value is comparable across the processes of one launch, which is how
/// set-up time is measured from the launcher's call to the timing rank's
/// first finished slice.
pub fn mono_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the
    // duration of the call; CLOCK_MONOTONIC always exists on Linux.
    let rc = unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_MONOTONIC) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Pin this process (and everything it later spawns or forks) to the
/// lowest CPU of its allowed mask; returns that CPU. Every rank process
/// and thread of a launch inherits the mask, so throughput is per core.
pub fn pin_to_lowest_cpu() -> std::io::Result<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `bytes` bytes.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr().cast()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `bytes` bytes.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr().cast()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Fix glibc malloc's two dynamic thresholds for this process: serve
/// everything up to 32 MiB (the largest value glibc accepts) from the
/// heap, and never give the top of the heap back. Left alone, glibc moves
/// both thresholds as a process frees its first large blocks, and where
/// they settle relative to `socket_bulk`'s 64-128 KiB buffers is heap-
/// layout luck: a consumer process then either reuses its buffers or
/// trims and regrows its heap on every element (0 to 7 page faults per
/// element, measured), which put launches of the same build in regimes
/// 20 % apart. Pinned, a warmed-up process takes next to no page faults
/// (0.001 per element).
pub fn pin_malloc_thresholds() {
    // SAFETY: plain libc calls that only set two of malloc's parameters.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 256 << 20) == 1
    };
    assert!(ok, "mallopt refused a threshold");
}

/// Give this process one malloc arena. glibc hands each new thread an
/// arena of its own until it has eight per CPU, then shares them out by
/// timing; `sim_fig5`'s 32 rank threads (one running at a time, so never
/// contending) end up spread over them differently in every launch, and
/// the launch's peak resident set with them: 11.6 to 14.1 MiB over twenty
/// launches of the same build, 8.9 to 9.2 MiB with one arena.
pub fn single_malloc_arena() {
    // SAFETY: a plain libc call that only sets one of malloc's parameters.
    let ok = unsafe { mallopt(M_ARENA_MAX, 1) == 1 };
    assert!(ok, "mallopt refused M_ARENA_MAX");
}

/// SIGKILL every process of group `pgid` (a launch and its rank
/// processes) and wait, for up to two seconds, until none is left: the
/// ranks are not this process's children, so they cannot be `wait`ed for.
pub fn kill_group(pgid: u32) {
    let group = -(pgid as Pid);
    // SAFETY: plain syscalls; a negative pid addresses the process group,
    // signal 0 only asks whether any member still exists.
    unsafe { kill(group, SIGKILL) };
    for _ in 0..200 {
        // SAFETY: as above.
        if unsafe { kill(group, 0) } != 0 {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// One numeric field of a `/proc/.../status` file, e.g. `VmHWM:` (kB) or
/// `voluntary_ctxt_switches:`.
fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set of this process in MiB (`VmHWM`; not `ru_maxrss`,
/// which after an exec still counts the parent's pages).
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&text, "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// `(context switches, minor page faults)` of this process so far, all
/// threads. From `getrusage`, not `/proc/self/task/*`: the kernel folds a
/// thread's counts into the process's when it exits, and the simulator's
/// rank threads are gone by the time a slice can be read off.
pub fn switches_and_faults() -> (u64, u64) {
    let mut ru = Rusage { times: [0; 4], counts: [0; 14] };
    // SAFETY: `ru` is a valid, writable `struct rusage` (two timevals of
    // two longs, then fourteen longs) for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let [.., voluntary, involuntary] = ru.counts;
    ((voluntary + involuntary) as u64, ru.counts[RU_MINFLT] as u64)
}

/// Facts about the machine, recorded with every run.
pub struct HostFacts {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
}

pub fn host_facts() -> HostFacts {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    // Counted from cpuinfo: `available_parallelism` reads the affinity
    // mask, which is one CPU once the driver has pinned itself.
    let nproc = cpuinfo.lines().filter(|l| l.starts_with("processor")).count().max(1);
    HostFacts { nproc, cpu_model, kernel }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t    5124 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(status_field(text, "VmHWM:"), Some(5124));
        assert_eq!(status_field(text, "voluntary_ctxt_switches:"), Some(17));
        assert_eq!(status_field(text, "VmRSS:"), None);
    }

    #[test]
    fn malloc_accepts_the_pinned_policy() {
        // Both panic if glibc refuses a value (32 MiB is the largest mmap
        // threshold it takes); allocation still works afterwards.
        pin_malloc_thresholds();
        single_malloc_arena();
        assert_eq!(vec![1u8; 1 << 20].len(), 1 << 20);
    }

    #[test]
    fn proc_counters_are_live() {
        assert!(peak_rss_mib() > 0.0);
        let a = mono_ns();
        std::thread::yield_now();
        assert!(mono_ns() >= a);
        let (switches, faults) = switches_and_faults();
        assert!(faults > 0);
        std::thread::spawn(std::thread::yield_now).join().unwrap();
        assert!(switches_and_faults().0 >= switches);
    }
}
