//! Process measurements: CPU time and peak RSS (`getrusage`), resident
//! memory (`/proc/self/status`). Linux only, like the rest of the
//! benchmark's process handling.

use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s
/// starting with `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// CPU time (user + system) and peak RSS in KiB.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub cpu: Duration,
    pub maxrss_kib: i64,
}

fn usage(who: i32) -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout declared above, and `who` is one of the two constants
    // the call accepts; the kernel writes only within the struct.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    let micros =
        |t: &Timeval| u64::try_from(t.sec * 1_000_000 + t.usec).expect("CPU time is non-negative");
    Usage {
        cpu: Duration::from_micros(micros(&ru.utime) + micros(&ru.stime)),
        maxrss_kib: ru.maxrss,
    }
}

/// This process, all threads.
pub fn self_usage() -> Usage {
    usage(RUSAGE_SELF)
}

/// Every child this process has waited for (`maxrss` is the largest).
pub fn children_usage() -> Usage {
    usage(RUSAGE_CHILDREN)
}

/// A `/proc/self/status` field in KiB (`VmHWM`, `VmRSS`).
pub fn status_kib(field: &str) -> i64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// Nearest-rank median (the lower middle value for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile over raw samples; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
