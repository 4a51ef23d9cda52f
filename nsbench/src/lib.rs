//! Probes behind the NoiseScope benchmark (`nsbench/run.py`).
//!
//! The benchmark times the program from outside: every span here wraps a
//! public call into one workspace crate (`nsdata` through
//! `PreparedTask::prepare`, `nstensor`, `hwsim`, `nnet`, and the
//! `noisescope` runner, resume, fleet and experiments modules). Nothing
//! in the program is instrumented.

pub mod probes;
pub mod replay;
pub mod stacks;
pub mod workload;

use std::time::Instant;

/// The probes' one clock. Timings are reported as measurements and never
/// feed a model result.
pub fn now() -> Instant {
    // detlint::allow(DL003, reason = "benchmark timing harness; timings are measurements, never model results")
    Instant::now()
}

/// Runs `f` once; returns its result and its duration in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs `f` `reps` times after `warmup` untimed calls and returns the
/// median duration in seconds.
pub fn median_time(warmup: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

/// The median of `v` (the mean of the two middle values for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` by linear interpolation between order
/// statistics.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&mut [0.0, 10.0], 0.9), 9.0);
        assert_eq!(quantile(&mut [5.0], 0.99), 5.0);
    }
}
