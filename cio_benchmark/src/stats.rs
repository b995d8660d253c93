//! Sample statistics and the wall-clock timing loop.

use std::time::Instant;

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty. Sorts a copy, so callers keep their sample order.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=1) of an ascending-sorted slice.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The tail percentiles a report may quote, lowest first, each with the
/// `n` of "one sample in `n` lies beyond it" (kept as an integer so the
/// ten-samples rule is exact).
const TAIL_LADDER: [(f64, usize); 5] = [
    (0.5, 2),
    (0.9, 10),
    (0.99, 100),
    (0.999, 1_000),
    (0.9999, 10_000),
];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it: a tail quoted from fewer samples is one slow op,
/// not a distribution.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|(_, one_in)| samples >= 10 * one_in)
        .map_or(TAIL_LADDER[0].0, |&(p, _)| p)
}

/// Throughput from slices: the *median* of the per-slice rates, so one
/// pre-empted slice cannot poison the run. With equal-op slices this is
/// ops per slice divided by the median slice time.
pub fn ops_per_s_median_slice(slice_ops: &[u64], slice_ns: &[u64]) -> f64 {
    let rates: Vec<f64> = slice_ops
        .iter()
        .zip(slice_ns)
        .filter(|(_, &ns)| ns > 0)
        .map(|(&ops, &ns)| ops as f64 * 1e9 / ns as f64)
        .collect();
    median(&rates)
}

/// The second-best of the per-slice readings: second-highest when
/// `higher_is_better`, second-lowest otherwise (the only reading when
/// there is one).
///
/// Interference on a shared box only ever slows a slice down, and it
/// comes in seconds-long stretches (cache and memory-bandwidth
/// neighbours), not single pre-empted slices: between identical runs the
/// median over slices moved 7-10% where the best slices moved 2-4%. The
/// fastest slices are the measurement and the rest is the noise; taking
/// the second guards against one lucky reading. Slices hold the same ops
/// for one seed, so two commits compare like with like.
pub fn second_best(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v.get(1).or(v.first()).copied().unwrap_or(0.0)
}

/// First and third quartile by the same "exclusive" method as Python's
/// `statistics.quantiles(values, n=4)`, which is what the acceptance
/// procedure for this benchmark uses.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based axis, linearly interpolated.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median (0 when undefined).
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// One wall-clock measurement of a repeated operation.
pub struct Measured {
    /// Iterations in the final (reported) window.
    pub iters: u64,
    /// Wall nanoseconds of that window.
    pub ns: u64,
}

/// Runs `f` in geometrically growing windows until one window takes at
/// least `target_ns`; that last window is the measurement (it has the
/// least timer bias). `before` runs ahead of each window, untimed, so
/// callers can snapshot counters for exactly the reported window.
pub fn measure<F: FnMut(), B: FnMut()>(target_ns: u64, mut before: B, mut f: F) -> Measured {
    let target_ns = target_ns.max(1_000);
    let mut iters: u64 = 1;
    loop {
        before();
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = (t.elapsed().as_nanos() as u64).max(1);
        if ns >= target_ns || iters >= (1 << 32) {
            return Measured { iters, ns };
        }
        // Aim past the target in one step, but grow at most 16x so a
        // mis-timed tiny window cannot overshoot into a stall.
        let want = iters.saturating_mul(target_ns) / ns;
        iters = want.clamp(iters * 2, iters * 16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond it, p99 leaves 1.
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(999), 0.9);
        assert_eq!(highest_supported_percentile(1_000), 0.99);
        assert_eq!(highest_supported_percentile(9_999), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
        assert_eq!(highest_supported_percentile(400_000), 0.9999);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(highest_supported_percentile(19), 0.5);
        assert_eq!(highest_supported_percentile(0), 0.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), Some(50));
        assert_eq!(percentile_sorted(&v, 0.99), Some(99));
        assert_eq!(percentile_sorted(&v, 1.0), Some(100));
        assert_eq!(percentile_sorted::<u64>(&[], 0.5), None);
    }

    #[test]
    fn median_slice_estimator_ignores_one_slow_slice() {
        let ops = vec![1_000u64; 32];
        let mut slices = vec![1_000_000u64; 32];
        let clean = ops_per_s_median_slice(&ops, &slices);
        slices[7] *= 10;
        let poisoned = ops_per_s_median_slice(&ops, &slices);
        assert_eq!(clean, poisoned);
        assert_eq!(clean, 1_000.0 * 1e9 / 1e6);
        // A mean-based estimate would have moved by more than 20%.
        let mean = slices.iter().sum::<u64>() as f64 / slices.len() as f64;
        assert!(1_000.0 * 1e9 / mean < 0.8 * clean);
    }

    #[test]
    fn second_best_ignores_disturbed_slices_and_one_lucky_one() {
        // Most of the run disturbed, one slice implausibly fast.
        let mut rates = vec![700.0; 24];
        rates.extend([1000.0, 1001.0, 999.0, 1002.0, 998.0, 1000.5, 1003.0, 2000.0]);
        assert_eq!(second_best(&rates, true), 1003.0);
        let ns: Vec<f64> = rates.iter().map(|r| 1e9 / r).collect();
        assert_eq!(second_best(&ns, false), 1e9 / 1003.0);
        assert_eq!(second_best(&[5.0], true), 5.0);
        assert_eq!(second_best(&[], false), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn measure_reports_the_last_window() {
        let (mut n, mut resets) = (0u64, 0u64);
        let m = {
            let n = &mut n;
            measure(20_000, || resets += 1, || *n += std::hint::black_box(1))
        };
        assert!(m.iters >= 1 && n >= m.iters && resets >= 1);
        assert!(m.ns > 0);
    }
}
