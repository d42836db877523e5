//! Order statistics over latency samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A tail latency at a percentile, with the samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    /// The latency at `percentile`.
    pub value: f64,
    /// The percentile reported.
    pub percentile: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
    /// Samples beyond the percentile's rank.
    pub beyond: usize,
}

/// Samples a tail percentile should leave beyond it.
pub const TAIL_BEYOND: usize = 10;

const GRID: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

impl Tail {
    /// The `p`-th percentile of `values`.
    pub fn at(values: &[f64], p: f64) -> Tail {
        let n = values.len();
        Tail {
            value: quantile(values, p / 100.0),
            percentile: p,
            samples: n,
            beyond: (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() as usize,
        }
    }
}

/// The highest percentile on a fixed grid that leaves at least
/// [`TAIL_BEYOND`] of `values` beyond it; the median when none does.
pub fn tail(values: &[f64]) -> Tail {
    GRID.into_iter()
        .map(|p| Tail::at(values, p))
        .find(|t| t.beyond >= TAIL_BEYOND)
        .unwrap_or_else(|| Tail::at(values, 50.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        let t = tail(&few);
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 3.0);
    }
}
