//! Small statistics over host-time samples: medians, nearest-rank
//! percentiles, the tail percentile the benchmark reports, and
//! work-normalized rates.

/// The number of samples a tail percentile must leave beyond it.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The nearest-rank `q`-th percentile (`q` in `[0, 100]`) of `samples`.
///
/// Returns `None` for an empty slice. The samples need not be sorted.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Nearest rank: the smallest rank r (1-based) with r / n >= q / 100.
    let rank = ((q.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The median (nearest-rank 50th percentile) of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The tail of one pass's samples: the highest nearest-rank percentile
/// that leaves at least [`TAIL_SAMPLES_BEYOND`] samples, and at least 1% of
/// them, beyond it, but never below the median. Returns `(percentile,
/// value)`.
///
/// The 1% floor only binds above 1,000 samples. There, the ten slowest
/// points of a pass are host jitter (preemption, I/O stalls) many times the
/// median, so a rank closer to the maximum would measure the machine rather
/// than the program.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let beyond = TAIL_SAMPLES_BEYOND.max(n.div_ceil(100));
    let rank = n.saturating_sub(beyond).max(n.div_ceil(2));
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// `work` units per host second, or zero for an empty interval.
#[must_use]
pub fn rate(work: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        work as f64 / seconds
    } else {
        0.0
    }
}

/// `numerator / denominator`, or zero when the denominator is zero.
#[must_use]
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}
