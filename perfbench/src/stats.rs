//! Seeded draws and the summary statistics the benchmark reports.

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer make the tail a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// SplitMix64: a small, fixed, seedable generator, so a seed names the same
/// draw on every machine and every build.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything a
    /// draw of a few thousand items can show.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Median (mean of the middle pair for even lengths); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `q` (in `0..1`) of `samples`, refused (`None`)
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=199).map(f64::from).collect();
        // 199 samples: rank 190, only 9 beyond.
        assert_eq!(percentile(&samples, 0.95), None);
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: rank 190, exactly 10 beyond.
        assert_eq!(percentile(&samples, 0.95), Some(190.0));
        assert_eq!(percentile(&samples, 0.5), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0; 15], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let draw = |seed| {
            let mut v: Vec<u32> = (0..100).collect();
            Rng::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut sorted = draw(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
