//! Seeded randomness for the generated inputs.
//!
//! Every input is a pure function of the workload seed and the input's position,
//! so any thread can regenerate call `i` and two runs with one seed see the same
//! inputs.

/// SplitMix64: tiny, fast and well mixed, which is all input generation needs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// The generator for item `index` of the named `stream` under `seed`.
    pub fn derive(seed: u64, stream: u64, index: u64) -> Self {
        Rng(mix(seed
            ^ mix(
                stream.wrapping_add(0x9E37_79B9_7F4A_7C15) ^ mix(index)
            )))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Cumulative Zipf weights over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
pub fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let mut total = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|r| {
            total += 1.0 / ((r + 1) as f64).powf(exponent);
            total
        })
        .collect();
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// Draw a rank from a CDF made by [`zipf_cdf`].
pub fn draw(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4).map(|i| Rng::derive(7, 1, i).next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|i| Rng::derive(7, 1, i).next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(
            Rng::derive(7, 1, 0).next_u64(),
            Rng::derive(8, 1, 0).next_u64()
        );
        assert_ne!(
            Rng::derive(7, 1, 0).next_u64(),
            Rng::derive(7, 2, 0).next_u64()
        );
    }

    #[test]
    fn zipf_draws_favour_low_ranks() {
        let cdf = zipf_cdf(100, 1.0);
        let mut rng = Rng::derive(1, 0, 0);
        let low = (0..10_000).filter(|_| draw(&cdf, &mut rng) < 10).count();
        assert!(low > 4_000, "{low}");
    }
}
