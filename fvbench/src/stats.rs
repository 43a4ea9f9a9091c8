//! Order statistics the ledger is built from: medians, interpolated
//! percentiles, the tail percentile a sample can support, per-block rates
//! and the quartile spread `repeat` compares against each bound.

/// Sort a sample ascending. Latencies and rates are finite by
/// construction; a NaN would sort last rather than panic.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Linearly interpolated percentile `p` in `0..=1` of an ascending
/// sample; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = rank - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// The highest percentile of the ladder that still leaves at least ten
/// samples beyond it, so a reported tail is never one unlucky op. `None`
/// below twenty samples, where only the maximum is honest.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // per mille, so "ten samples beyond" is exact integer arithmetic
    const LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];
    LADDER
        .iter()
        .copied()
        .find(|pm| n * (1000 - pm) >= 10_000)
        .map(|pm| pm as f64 / 1000.0)
}

/// One block of consecutive ops: how many, and the sum of their
/// latencies (ops run back to back, so that is the block's own time; what
/// the driver does between ops is not the system's).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    pub ops: usize,
    pub wall_s: f64,
}

impl Block {
    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.wall_s.max(1e-9)
    }
}

/// Median of the per-block rates. A burst of interference slows the
/// blocks it lands on and leaves the median where it was, which total
/// ops / elapsed time does not.
pub fn median_block_rate(blocks: &[Block]) -> f64 {
    median(&blocks.iter().map(Block::rate).collect::<Vec<_>>())
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the acceptance check uses.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        // position i*(n+1)/4 on a 1-based scale, clamped to the sample
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((q(1), q(2), q(3)))
}

/// Distance between first and third quartile as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, _, q3)) => {
            let m = median(values);
            if m == 0.0 {
                0.0
            } else {
                (q3 - q1).abs() / m.abs()
            }
        }
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_ignores_one_outlier() {
        assert_eq!(median(&[10.0, 11.0, 12.0, 13.0, 900.0]), 12.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(66), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(450), Some(0.95));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn block_median_shrugs_off_a_slow_burst() {
        let mut blocks = vec![
            Block {
                ops: 16,
                wall_s: 1.0
            };
            9
        ];
        // a noisy-neighbour burst triples three blocks
        for b in blocks.iter_mut().take(3) {
            b.wall_s = 3.0;
        }
        assert_eq!(median_block_rate(&blocks), 16.0);
        let total: f64 = blocks.iter().map(|b| b.wall_s).sum();
        let mean_rate = (9 * 16) as f64 / total;
        assert!(mean_rate < 10.0, "total/elapsed follows the burst");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 2.0, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
