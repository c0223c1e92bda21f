//! Summary statistics, done once: medians, nearest-rank percentiles, the
//! rule for which percentile a sample count supports, and medians over
//! consecutive blocks of a run. (The run-to-run
//! spread of the repeatability gate is `repeat.py`'s, by Python's own
//! `statistics.quantiles`.)

/// Sorted copy of `values` (NaNs order last; the driver never feeds any).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None` when
/// empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        None
    } else if n % 2 == 1 {
        Some(v[n / 2])
    } else {
        Some((v[n / 2 - 1] + v[n / 2]) / 2.0)
    }
}

/// 1-based nearest rank of the `p`-th percentile among `n` > 0 samples:
/// the least rank with at least `p` percent of the samples at or below
/// it (an epsilon keeps 99.9 % of 10 000 at 9 990, not 9 991).
fn nearest_rank(n: usize, p: f64) -> usize {
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    (!v.is_empty()).then(|| v[nearest_rank(v.len(), p) - 1])
}

/// Samples a block needs for its 95th percentile to have ten samples
/// beyond it.
pub const PERCENTILE_BLOCK: usize = 200;

/// Median over consecutive blocks of `values` of each block's `p`-th
/// percentile. The blocks are equal, as many as fit with at least
/// `min_block` samples each (fewer samples than two blocks' worth are one
/// block); up to one sample per block is left over at the end. A stretch
/// of the run that is unlike the rest — the cold start, a burst of noise
/// from the machine — moves the blocks it covers and not the result.
#[must_use]
pub fn block_percentile(values: &[f64], p: f64, min_block: usize) -> Option<f64> {
    let blocks = (values.len() / min_block.max(1)).max(1);
    let size = values.len() / blocks;
    if size == 0 {
        return None;
    }
    let each: Vec<f64> = values
        .chunks_exact(size)
        .filter_map(|block| percentile(block, p))
        .collect();
    median(&each)
}

/// How many samples lie strictly beyond the nearest-rank `p`-th
/// percentile position.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// The percentile rule: the highest of the usual tail percentiles that
/// still has at least ten samples beyond it, or `None` below 20 samples
/// (where only the median is worth reporting).
#[must_use]
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| samples_beyond(n, *p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(percentile(&v, 100.0), Some(200.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[], 95.0), None);
    }

    #[test]
    fn block_percentile_ignores_an_unusual_stretch() {
        // Five blocks of 200: the first is a cold start ten times slower.
        let mut v: Vec<f64> = (0..1000).map(|i| f64::from(i % 200) + 1.0).collect();
        for x in &mut v[..200] {
            *x *= 10.0;
        }
        assert_eq!(percentile(&v, 95.0), Some(1500.0));
        assert_eq!(block_percentile(&v, 95.0, 200), Some(190.0));
        assert_eq!(block_percentile(&v, 50.0, 200), Some(100.0));
        // Fewer than two blocks' worth is one block: the plain percentile.
        assert_eq!(
            block_percentile(&v[..399], 95.0, 200),
            percentile(&v[..399], 95.0)
        );
        // 450 samples are two blocks of 225.
        assert_eq!(
            block_percentile(&v[..450], 95.0, 200),
            median(&[
                percentile(&v[..225], 95.0).unwrap(),
                percentile(&v[225..450], 95.0).unwrap()
            ])
        );
        assert_eq!(block_percentile(&[], 95.0, 200), None);
        assert_eq!(block_percentile(&[3.0], 95.0, 0), Some(3.0));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(samples_beyond(0, 95.0), 0);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
