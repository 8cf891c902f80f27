//! Host-side measurement: the process CPU clock, peak RSS, and the
//! order statistics every timing is reported with.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has consumed. `/proc/self/stat` carries the same sum in
/// 10 ms ticks, 5% of a rack iteration; the kernel's process CPU clock
/// reports it in nanoseconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the whole call, and the clock id is a constant the
    // kernel defines, so the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's peak resident set (`VmHWM` in `/proc/self/status`), in
/// MB of 10^6 bytes. `None` where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples a tail figure must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest whole percentile `p` of `xs` (nearest rank) with at least
/// [`TAIL_BEYOND`] samples above its rank, as `(p, value)`. With too few
/// samples for any such percentile it is the maximum, labelled 100.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return (100, v[n - 1]);
    }
    let p = (100 * (n - TAIL_BEYOND) / n) as u32;
    // Nearest rank: ceil(p/100 * n), 1-based; p*n/100 <= n - 10, so the
    // rank leaves at least ten samples above it.
    let rank = (p as usize * n).div_ceil(100).max(1);
    (p, v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90, 90.0));
        let xs: Vec<f64> = (1..=37).map(f64::from).collect();
        let (p, v) = tail(&xs);
        assert_eq!(p, 72);
        assert!(xs.iter().filter(|&&x| x > v).count() >= TAIL_BEYOND);
        assert_eq!(tail(&[5.0, 1.0]), (100, 5.0));
    }

    #[test]
    fn cpu_clock_advances_and_rss_reads() {
        let a = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() > a, "{x}");
        assert!(peak_rss_mb().expect("/proc/self/status") > 0.0);
    }
}
