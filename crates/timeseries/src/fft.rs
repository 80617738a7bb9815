//! A small radix-2 Cooley–Tukey FFT.
//!
//! Sieve's shape-based distance is defined via the normalized
//! cross-correlation, which k-Shape computes with the Fast Fourier Transform
//! (§3.2: "Cross correlation is calculated using Fast Fourier
//! Transformation"). We implement the transform from scratch so that the
//! reproduction does not depend on external numerics crates.

use std::ops::{Add, Mul, Neg, Sub};
use std::sync::{Arc, OnceLock};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The purely real complex number `re + 0i`.
    pub fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude (absolute value).
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// `e^{i theta}` on the unit circle.
    pub fn from_polar_unit(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

/// Smallest power of two that is `>= n` (returns 1 for `n == 0`).
pub fn next_power_of_two(n: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    n.next_power_of_two()
}

/// Precomputed twiddle factors for one radix-2 FFT length.
///
/// The table stores, for every butterfly stage `len = 2, 4, …, n`, the
/// `len/2` twiddles `w_0 … w_{len/2-1}` that the seed FFT derived on the fly
/// via the recurrence `w_{k+1} = w_k * wlen`. The table is built with the
/// **exact same recurrence** (not `e^{-2πik/len}` closed-form calls), so an
/// FFT driven by the table performs bit-for-bit the same float operations as
/// the recomputing oracle [`fft_in_place_naive`] — which is what keeps every
/// cached==naive model-equality assert in the workspace bitwise.
///
/// All stages are flattened into one buffer; stage `len` starts at offset
/// `len/2 - 1` (the stage sizes `1 + 2 + … + len/4` telescope), for `n - 1`
/// factors in total.
///
/// Beside the twiddles the table holds the other thing that depends on `n`
/// alone: the bit-reversal permutation of `0..n` the transform opens with,
/// built by the very carry-chain loop [`fft_in_place_naive`] runs per
/// transform, so the two cannot disagree.
#[derive(Debug)]
pub struct TwiddleTable {
    n: usize,
    factors: Vec<Complex>,
    /// `bit_reversal[i]` is `i` with its `log2(n)` bits reversed.
    bit_reversal: Vec<u32>,
}

impl TwiddleTable {
    /// Builds the table for FFT length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        let mut factors = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            // Same per-stage recurrence as the seed FFT's inner loop.
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::from_polar_unit(ang);
            let mut w = Complex::from_real(1.0);
            for _ in 0..len / 2 {
                factors.push(w);
                w = w * wlen;
            }
            len <<= 1;
        }
        // Same carry chain as the seed FFT's permutation loop, run once.
        let mut bit_reversal = vec![0u32; n];
        let mut j = 0usize;
        for slot in bit_reversal.iter_mut().skip(1) {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            *slot = u32::try_from(j).expect("an FFT length whose twiddles fit in memory");
        }
        Self {
            n,
            factors,
            bit_reversal,
        }
    }

    /// The FFT length this table serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the table is for the trivial length-1 transform (which has no
    /// twiddle factors at all).
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    /// The twiddles of the stage with butterfly span `len` (a power of two
    /// in `2..=self.len()`).
    #[inline]
    fn stage(&self, len: usize) -> &[Complex] {
        &self.factors[len / 2 - 1..len - 1]
    }

    /// The bit-reversal permutation of `0..self.len()` (an involution):
    /// where input element `i` sits when the butterfly passes start.
    #[inline]
    pub(crate) fn bit_reversal(&self) -> &[u32] {
        &self.bit_reversal
    }
}

/// Process-wide cache of twiddle tables: one lazily built slot per
/// power-of-two FFT length, indexed by `log2(n)`.
///
/// A metric-reduction sweep runs thousands of same-length FFTs per
/// component (every series of a component pads to the same power of two),
/// so the table for each padded length is built once and shared via `Arc`
/// across threads and call sites. After a slot's first use a lookup is one
/// atomic load — no lock to contend on and no poison state to panic on.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn twiddle_table(n: usize) -> Arc<TwiddleTable> {
    const SLOTS: usize = usize::BITS as usize;
    static TABLES: [OnceLock<Arc<TwiddleTable>>; SLOTS] = [const { OnceLock::new() }; SLOTS];
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    Arc::clone(TABLES[n.trailing_zeros() as usize].get_or_init(|| Arc::new(TwiddleTable::new(n))))
}

/// In-place iterative radix-2 FFT, driven by the process-wide twiddle cache.
///
/// Bit-identical to the recomputing oracle [`fft_in_place_naive`]: the cached
/// table is produced by the same recurrence the oracle evaluates inline.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two (use [`next_power_of_two`]
/// and zero-padding to prepare inputs).
pub fn fft_in_place(data: &mut [Complex]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    let table = twiddle_table(n);
    fft_in_place_with(data, &table);
}

/// In-place FFT against a caller-held twiddle table (one lock-free lookup
/// per transform — the batched path fetches the table once per component).
///
/// # Panics
///
/// Panics if `data.len()` differs from the table's length.
pub fn fft_in_place_with(data: &mut [Complex], table: &TwiddleTable) {
    let n = data.len();
    assert_eq!(n, table.len(), "FFT length must match the twiddle table");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation, read off the table.
    for (i, &j) in table.bit_reversal().iter().enumerate() {
        let j = j as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    butterflies(data, table);
}

/// The butterfly passes of the transform, over data already in bit-reversed
/// order: identical float operations to the seed FFT, with the per-butterfly
/// `w = w * wlen` recurrence replaced by a table load. A caller that writes
/// its input straight to the permuted slots ([`crate::spectrum::sbd_oriented`])
/// skips the swap pass.
pub(crate) fn butterflies(data: &mut [Complex], table: &TwiddleTable) {
    let n = data.len();
    assert_eq!(n, table.len(), "FFT length must match the twiddle table");
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let twiddles = table.stage(len);
        let mut i = 0;
        while i < n {
            let (lo, hi) = data[i..i + len].split_at_mut(half);
            for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(twiddles.iter()) {
                let u = *a;
                let v = *b * w;
                *a = u + v;
                *b = u - v;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// The seed in-place radix-2 FFT, recomputing twiddles on the fly via the
/// per-stage recurrence. Kept as the reference oracle: property tests assert
/// [`fft_in_place`] is **bitwise** equal to this across random lengths, and
/// the `analysis` bench measures the twiddle-cached/batched paths against it.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place_naive(data: &mut [Complex]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterfly passes.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_polar_unit(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::from_real(1.0);
            for k in 0..len / 2 {
                let u = data[i + k];
                let v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Batched in-place FFT: transforms every consecutive `n`-chunk of `data`
/// with a single twiddle-table fetch, streaming one contiguous buffer.
///
/// Bit-identical to running [`fft_in_place`] on each chunk separately — the
/// batch shares the table and the memory layout, not the summation order —
/// so batched spectra can feed every bitwise model-equality assert.
///
/// # Panics
///
/// Panics if `n` is not a power of two or `data.len()` is not a multiple of
/// `n`.
pub fn fft_batch(data: &mut [Complex], n: usize) {
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    assert_eq!(
        data.len() % n,
        0,
        "batch buffer must be a whole number of length-{n} transforms"
    );
    if n <= 1 {
        return;
    }
    let table = twiddle_table(n);
    for chunk in data.chunks_exact_mut(n) {
        fft_in_place_with(chunk, &table);
    }
}

/// In-place inverse FFT (including the `1/n` scaling).
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn ifft_in_place(data: &mut [Complex]) {
    let n = data.len();
    for v in data.iter_mut() {
        *v = v.conj();
    }
    fft_in_place(data);
    let scale = 1.0 / n as f64;
    for v in data.iter_mut() {
        *v = Complex::new(v.re * scale, -v.im * scale);
    }
}

/// Forward FFT of a real signal, zero-padded to `padded_len` (which must be a
/// power of two at least as large as the signal).
///
/// # Panics
///
/// Panics if `padded_len` is smaller than `signal.len()` or not a power of
/// two.
pub fn fft_real(signal: &[f64], padded_len: usize) -> Vec<Complex> {
    assert!(padded_len >= signal.len(), "padded length too small");
    let mut buf: Vec<Complex> = signal.iter().map(|&v| Complex::from_real(v)).collect();
    buf.resize(padded_len, Complex::default());
    fft_in_place(&mut buf);
    buf
}

/// Full (linear) cross-correlation of `x` and `y` computed via FFT.
///
/// The result has length `x.len() + y.len() - 1`. Index `k` corresponds to a
/// shift of `k - (y.len() - 1)` of `x` relative to `y`, i.e. the centre of
/// the output is the zero-shift correlation — the same layout as the CC
/// sequence in the k-Shape paper.
pub fn cross_correlation(x: &[f64], y: &[f64]) -> Vec<f64> {
    if x.is_empty() || y.is_empty() {
        return Vec::new();
    }
    let out_len = x.len() + y.len() - 1;
    let fft_len = next_power_of_two(out_len);
    let fx = fft_real(x, fft_len);
    let fy = fft_real(y, fft_len);
    cross_correlation_from_ffts(&fx, &fy, x.len(), y.len())
}

/// The back half of [`cross_correlation`]: multiplies two precomputed
/// forward spectra, inverts the product and rearranges the circular result
/// into the linear shift layout.
///
/// Both spectra must have been produced by [`fft_real`] at the *same* padded
/// length `next_power_of_two(n + m - 1)`. [`cross_correlation`] funnels
/// through this function; the cached-spectrum kernel
/// ([`crate::spectrum::sbd_oriented`]) performs the same float operations
/// per output value without materialising the sequence, which is what keeps
/// it bit-identical to the direct path.
///
/// # Panics
///
/// Panics if the spectra have different lengths or are shorter than
/// `n + m - 1`.
pub fn cross_correlation_from_ffts(fx: &[Complex], fy: &[Complex], n: usize, m: usize) -> Vec<f64> {
    let out_len = n + m - 1;
    let fft_len = fx.len();
    assert_eq!(fft_len, fy.len(), "spectra must share the padded length");
    assert!(
        fft_len >= out_len,
        "spectra too short for the output length"
    );
    let mut prod: Vec<Complex> = fx
        .iter()
        .zip(fy.iter())
        .map(|(a, b)| *a * b.conj())
        .collect();
    ifft_in_place(&mut prod);
    // The circular correlation places non-negative shifts at the head and
    // negative shifts at the tail; rearrange so the output runs from shift
    // -(m-1) .. (n-1) like a linear correlation.
    let mut out = Vec::with_capacity(out_len);
    for k in 0..out_len {
        let shift = k as isize - (m as isize - 1);
        let idx = if shift >= 0 {
            shift as usize
        } else {
            fft_len - shift.unsigned_abs()
        };
        out.push(prod[idx].re);
    }
    out
}

/// Naive O(n²) cross-correlation used as a test oracle and for very short
/// series.
pub fn cross_correlation_naive(x: &[f64], y: &[f64]) -> Vec<f64> {
    if x.is_empty() || y.is_empty() {
        return Vec::new();
    }
    let n = x.len();
    let m = y.len();
    let mut out = vec![0.0; n + m - 1];
    for (k, slot) in out.iter_mut().enumerate() {
        let shift = k as isize - (m as isize - 1);
        let mut acc = 0.0;
        for (i, &xi) in x.iter().enumerate() {
            let j = i as isize - shift;
            if j >= 0 && (j as usize) < m {
                acc += xi * y[j as usize];
            }
        }
        *slot = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::default(); 8];
        data[0] = Complex::from_real(1.0);
        fft_in_place(&mut data);
        for c in data {
            assert!((c.re - 1.0).abs() < 1e-12);
            assert!(c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let original: Vec<Complex> = (0..16)
            .map(|i| Complex::new(i as f64, (i * i) as f64 * 0.1))
            .collect();
        let mut data = original.clone();
        fft_in_place(&mut data);
        ifft_in_place(&mut data);
        for (a, b) in data.iter().zip(original.iter()) {
            assert!((a.re - b.re).abs() < 1e-9);
            assert!((a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_parseval_energy_is_preserved() {
        let signal: Vec<f64> = (0..32).map(|i| ((i as f64) * 0.7).sin()).collect();
        let spectrum = fft_real(&signal, 32);
        let time_energy: f64 = signal.iter().map(|v| v * v).sum();
        let freq_energy: f64 = spectrum.iter().map(|c| c.abs().powi(2)).sum::<f64>() / 32.0;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn next_power_of_two_bounds() {
        assert_eq!(next_power_of_two(0), 1);
        assert_eq!(next_power_of_two(1), 1);
        assert_eq!(next_power_of_two(5), 8);
        assert_eq!(next_power_of_two(8), 8);
        assert_eq!(next_power_of_two(1000), 1024);
    }

    #[test]
    fn fft_cross_correlation_matches_naive() {
        let x = [1.0, 2.0, 3.0, 4.0, 0.5, -1.0];
        let y = [0.0, 1.0, 0.5, 2.0];
        let fast = cross_correlation(&x, &y);
        let slow = cross_correlation_naive(&x, &y);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn cross_correlation_peak_identifies_lag() {
        // y is x delayed by 3 samples: the peak should sit at shift -3
        // (x must be shifted back to match) i.e. index (m-1) - 3.
        let x: Vec<f64> = (0..32).map(|i| if i == 5 { 1.0 } else { 0.0 }).collect();
        let y: Vec<f64> = (0..32).map(|i| if i == 8 { 1.0 } else { 0.0 }).collect();
        let cc = cross_correlation(&x, &y);
        let (argmax, _) = cc
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let shift = argmax as isize - (y.len() as isize - 1);
        assert_eq!(shift, -3);
    }

    #[test]
    fn cross_correlation_of_empty_is_empty() {
        assert!(cross_correlation(&[], &[1.0]).is_empty());
        assert!(cross_correlation(&[1.0], &[]).is_empty());
    }

    /// Deterministic splitmix64-style generator for the property tests.
    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        ((z >> 11) as f64) / (1u64 << 53) as f64 - 0.5
    }

    fn random_complex(len: usize, seed: u64) -> Vec<Complex> {
        let mut s = seed;
        (0..len)
            .map(|_| Complex::new(50.0 * splitmix(&mut s), 50.0 * splitmix(&mut s)))
            .collect()
    }

    fn assert_bitwise_eq(a: &[Complex], b: &[Complex], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{ctx}: re[{i}]");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{ctx}: im[{i}]");
        }
    }

    #[test]
    fn twiddle_cached_fft_is_bitwise_equal_to_seed_fft() {
        // Property: across random power-of-two lengths and random inputs, the
        // table-driven FFT performs the exact float operations of the seed's
        // recomputing FFT — bitwise, not approximately.
        for exp in 0..=11usize {
            let n = 1usize << exp;
            for seed in 0..4u64 {
                let original = random_complex(n, seed.wrapping_mul(0x9E37) + exp as u64 + 1);
                let mut cached = original.clone();
                let mut naive = original;
                fft_in_place(&mut cached);
                fft_in_place_naive(&mut naive);
                assert_bitwise_eq(&cached, &naive, &format!("n={n} seed={seed}"));
            }
        }
    }

    #[test]
    fn twiddle_table_matches_seed_recurrence() {
        let n = 64;
        let table = TwiddleTable::new(n);
        assert_eq!(table.len(), n);
        assert!(!table.is_empty());
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::from_polar_unit(ang);
            let mut w = Complex::from_real(1.0);
            for (k, &t) in table.stage(len).iter().enumerate() {
                assert_eq!(t.re.to_bits(), w.re.to_bits(), "len={len} k={k}");
                assert_eq!(t.im.to_bits(), w.im.to_bits(), "len={len} k={k}");
                w = w * wlen;
            }
            len <<= 1;
        }
    }

    #[test]
    fn tabled_bit_reversal_is_the_seed_loops_permutation_and_an_involution() {
        for exp in 0..=12usize {
            let n = 1usize << exp;
            let table = TwiddleTable::new(n);
            let tabled = table.bit_reversal();
            assert_eq!(tabled.len(), n);
            // What the seed FFT's swap loop does to the identity sequence.
            let mut looped: Vec<usize> = (0..n).collect();
            let mut j = 0usize;
            for i in 1..n {
                let mut bit = n >> 1;
                while j & bit != 0 {
                    j ^= bit;
                    bit >>= 1;
                }
                j |= bit;
                if i < j {
                    looped.swap(i, j);
                }
            }
            for (i, &r) in tabled.iter().enumerate() {
                let r = r as usize;
                assert_eq!(r, looped[i], "n={n} i={i}");
                assert_eq!(tabled[r] as usize, i, "n={n} i={i}: not an involution");
                if exp > 0 {
                    let reversed = i.reverse_bits() >> (usize::BITS as usize - exp);
                    assert_eq!(r, reversed, "n={n} i={i}");
                }
            }
        }
    }

    #[test]
    fn twiddle_cache_shares_tables_per_length() {
        let a = twiddle_table(256);
        let b = twiddle_table(256);
        assert!(Arc::ptr_eq(&a, &b), "same length must share one table");
        let c = twiddle_table(512);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn fft_batch_is_bitwise_equal_to_per_series_ffts() {
        for (count, n) in [(1usize, 8usize), (3, 64), (7, 128), (16, 32)] {
            let mut batch: Vec<Complex> = Vec::with_capacity(count * n);
            let mut singles: Vec<Vec<Complex>> = Vec::with_capacity(count);
            for series in 0..count {
                let data = random_complex(n, series as u64 * 31 + 7);
                batch.extend_from_slice(&data);
                singles.push(data);
            }
            fft_batch(&mut batch, n);
            for (series, single) in singles.iter_mut().enumerate() {
                fft_in_place(single);
                assert_bitwise_eq(
                    &batch[series * n..(series + 1) * n],
                    single,
                    &format!("count={count} n={n} series={series}"),
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn fft_batch_rejects_ragged_buffers() {
        let mut data = vec![Complex::default(); 12];
        fft_batch(&mut data, 8);
    }

    #[test]
    fn complex_arithmetic_identities() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a + b, Complex::new(-2.0, 2.5));
        assert_eq!(a - b, Complex::new(4.0, 1.5));
        let prod = a * b;
        assert!((prod.re - (-4.0)).abs() < 1e-12);
        assert!((prod.im - (-5.5)).abs() < 1e-12);
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
        assert!((Complex::new(3.0, 4.0).abs() - 5.0).abs() < 1e-12);
    }
}
