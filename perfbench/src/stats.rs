//! Order statistics and process memory readings.

/// Median (the mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in `(0, 1]`.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "order statistic of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Peak resident set (`VmHWM`) of a live process, MiB; `pid` may be
/// `"self"`.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s
/// of which `ru_maxrss` is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Peak resident set of the largest child this process has waited for,
/// MiB (the `repro` invocations of the report workloads, which exit too
/// quickly to read from `/proc`).
pub fn children_peak_rss_mb() -> Option<f64> {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable value with the layout of the C
    // `struct rusage` on 64-bit Linux, and getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    (rc == 0 && u.maxrss > 0).then(|| u.maxrss as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn memory_readings() {
        assert!(vm_hwm_mb("self").is_some_and(|m| m > 0.0));
        std::process::Command::new("true").status().unwrap();
        assert!(children_peak_rss_mb().is_some_and(|m| m > 0.0));
    }
}
