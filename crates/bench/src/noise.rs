//! Deterministic synthetic noise for benchmark inputs.
//!
//! Every bench used to carry its own copy of this splitmix-style mixer;
//! it lives here once so all benchmarks draw from the same reproducible
//! stream. The function is pure: `(i, seed)` always yields the same value
//! on every host, which keeps bitwise cached-vs-naive assertions
//! meaningful across runs.

/// A deterministic pseudo-random value in `[-0.5, 0.5)` for sample `i` of
/// stream `seed`, produced by a splitmix64-style finalizer.
pub fn noise(i: usize, seed: u64) -> f64 {
    let mut s =
        (i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) ^ seed.wrapping_mul(0xD1B54A32D192ED03);
    s ^= s >> 33;
    s = s.wrapping_mul(0xff51afd7ed558ccd);
    s ^= s >> 29;
    ((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_deterministic_and_bounded() {
        for i in 0..1000 {
            for seed in [0u64, 1, 0xDEADBEEF] {
                let a = noise(i, seed);
                let b = noise(i, seed);
                assert_eq!(a.to_bits(), b.to_bits());
                assert!((-0.5..0.5).contains(&a), "out of range: {a}");
            }
        }
    }

    #[test]
    fn streams_with_different_seeds_differ() {
        let a: Vec<f64> = (0..64).map(|i| noise(i, 1)).collect();
        let b: Vec<f64> = (0..64).map(|i| noise(i, 2)).collect();
        assert_ne!(a, b);
    }
}
