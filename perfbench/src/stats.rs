//! Sample statistics: nearest-rank percentiles, the tail-percentile
//! support rule, medians and quartile spreads.

/// The percentiles a tail metric may be named after, highest first.
pub const TAIL_CANDIDATES: [u32; 4] = [99, 95, 90, 50];

/// Samples strictly beyond a percentile's rank that a tail metric needs
/// before it may be reported under that percentile's name.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of the `p`-th percentile in `n` sorted
/// samples.
fn rank(n: usize, p: u32) -> usize {
    let r = (p as usize * n).div_ceil(100);
    r.clamp(1, n) - 1
}

/// Samples that lie strictly beyond the `p`-th percentile's rank.
pub fn beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// Whether `n` samples support a `p`-th percentile: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, p: u32) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The highest percentile among [`TAIL_CANDIDATES`], up to `max`, that
/// `n` samples support, if any.
pub fn highest_supported(n: usize, max: u32) -> Option<u32> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| p <= max && supports(n, p))
}

/// Nearest-rank `p`-th percentile of unsorted samples (`NaN` if empty).
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p)]
}

/// Median of unsorted samples: the mean of the middle pair for an even
/// count (`NaN` if empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sum of samples.
pub fn sum(samples: &[f64]) -> f64 {
    samples.iter().sum()
}

/// Geometric mean of positive values (1.0 if empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
