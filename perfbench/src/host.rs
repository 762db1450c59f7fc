//! Host-side helpers: the calibration probe, peak resident memory, timing
//! and order statistics.

use std::hint::black_box;
use std::time::Instant;

/// Runs `f` and returns its result with the wall seconds it took.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The median of `xs` (mean of the middle two for an even count; NaN for
/// an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The nearest-rank `q`-quantile of `xs` (`q` in `[0, 1]`; NaN for an
/// empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when nothing was counted.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One pass of the calibration probe: a fixed xorshift-and-accumulate loop
/// over a 512 KiB buffer. It calls no code of the repository, so its time
/// moves only with the host (clock, throttling, neighbours).
fn probe_once() -> f64 {
    const WORDS: usize = 1 << 16;
    const PASSES: usize = 300;
    let mut buf = vec![0u64; WORDS];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let (_, secs) = timed(|| {
        for _ in 0..PASSES {
            for (i, v) in buf.iter_mut().enumerate() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = v.wrapping_add(x ^ i as u64);
            }
            black_box(&mut buf);
        }
    });
    secs
}

/// The host calibration figure: median seconds of three probe passes.
/// Recorded beside the metrics to flag drift; never used to rescale them.
pub(crate) fn calibrate() -> f64 {
    median(&[probe_once(), probe_once(), probe_once()])
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two `timeval`s
/// and fourteen `long` counters, `ru_maxrss` first among them. Only the C
/// library writes the fields this crate never reads.
#[repr(C)]
#[allow(dead_code)]
struct RUsage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    ru_rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set of this process in MiB (`ru_maxrss`, KiB on Linux).
/// NaN when the call fails, which the report counts as a failure.
#[allow(unsafe_code)]
pub(crate) fn peak_rss_mb() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        ru_rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the layout
    // the 64-bit Linux C library expects, and `getrusage` writes only
    // within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    usage.ru_maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 10.0);
        assert_eq!(quantile(&xs, 0.9), 18.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 20.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
