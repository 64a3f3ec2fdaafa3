//! Process CPU time and peak resident memory, read through the two libc
//! calls the standard library does not wrap. Linux, 64-bit.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

/// `struct rusage`: two `timeval`s, then fourteen `long` counters, the
/// first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    counters: [c_long; 14],
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const RUSAGE_SELF: c_int = 0;
const RUSAGE_CHILDREN: c_int = -1;

/// User plus system CPU time of the whole process (every thread), in
/// nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's
    // duration, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn maxrss_kib(who: c_int) -> u64 {
    let mut ru = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `ru` has the layout of `struct rusage` on 64-bit Linux and
    // is valid and writable for the call's duration.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    ru.counters[0].max(0) as u64
}

/// Peak resident set size of this process, KiB.
pub fn peak_rss_kib() -> u64 {
    maxrss_kib(RUSAGE_SELF)
}

/// Largest peak resident set size among this process's waited-for
/// children, KiB.
pub fn children_peak_rss_kib() -> u64 {
    maxrss_kib(RUSAGE_CHILDREN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_and_rss_is_plausible() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_ns() > a, "{x}");
        let rss = peak_rss_kib();
        assert!(rss > 100 && rss < 64 * 1024 * 1024, "{rss} KiB");
    }
}
