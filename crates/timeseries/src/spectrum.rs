//! Cached series spectra: the shared SBD computation engine.
//!
//! Every shape-based distance evaluation needs the same two ingredients
//! per series — the L2 norm of its z-normalized values and the forward FFT
//! of the z-normalized signal at the padded power-of-two length. The naive
//! [`crate::shape_based_distance`] recomputes them for *both*
//! operands on every call; k-Shape fit, centroid refinement and
//! silhouette-based k selection together issue O(n²·k·iterations) such
//! calls per component. A [`SeriesSpectrum`] computes the ingredients once
//! per series, after which each pairwise distance costs one spectrum
//! product and one inverse FFT instead of two z-normalizations and three
//! FFTs.
//!
//! The cached path is **bit-identical** to the naive one: the kernel
//! ([`sbd_oriented`]) performs, per output value, the float operations of
//! [`crate::cross_correlation`] followed by the division and
//! first-maximum scan of [`crate::shape_based_distance`] — it only
//! stops materialising the intermediate vectors — and the cached forward
//! FFT is the transform `fft::fft_real` runs for the direct path.
//! The pipeline's cached/naive model equality tests rely on this.
//!
//! Everything here is in the transform's split-complex layout — real parts
//! in one slice, imaginary parts in another — so the spectrum product, the
//! butterflies and the scan each stream plain `f64` lanes.

use crate::fft::{
    fft_gather, next_power_of_two, spectrum_product, twiddle_table, Parts, SplitMut, TwiddleTable,
};
use crate::normalize::z_normalize_into;
use crate::sbd::SbdResult;
use crate::stats::{dot, sum_of_squares};
use crate::{Result, TimeSeriesError};
use std::sync::Arc;

/// The per-series state of the SBD engine: the L2 norm of the series'
/// z-normalized values and their forward FFT at the padded power-of-two
/// length.
///
/// The spectrum lives behind an `Arc`, so cloning one (e.g. to share it
/// between a distance matrix and a k-Shape run) is a refcount bump.
#[derive(Debug, Clone)]
pub struct SeriesSpectrum {
    /// Original series length.
    len: usize,
    /// L2 norm of the z-normalized values.
    norm: f64,
    /// Forward FFT of the z-normalized values, zero-padded to `padded_len`:
    /// the `padded_len` real parts, then the `padded_len` imaginary parts, in
    /// one allocation.
    fft: Arc<[f64]>,
    /// The power-of-two FFT length: `next_power_of_two(2 * len - 1)`.
    padded_len: usize,
}

impl SeriesSpectrum {
    /// Computes the spectrum of `values`: z-normalizes, takes the norm and
    /// runs one forward FFT at `next_power_of_two(2 * len - 1)` — the padded
    /// length a cross-correlation against any series of the *same* length
    /// requires, which is the shape of every pairwise computation in the
    /// pipeline (prepared series are truncated to a common length and
    /// k-Shape centroids inherit it).
    ///
    /// # Errors
    ///
    /// * [`TimeSeriesError::Empty`] for an empty input.
    pub fn compute(values: &[f64]) -> Result<Self> {
        Self::compute_with(values, &mut SbdScratch::default())
    }

    /// [`SeriesSpectrum::compute`] with the transform's working memory and
    /// twiddle table taken from `scratch`: what a loop that builds many
    /// spectra of one length (a batch, a k-Shape sweep) calls. Same bits.
    ///
    /// # Errors
    ///
    /// * [`TimeSeriesError::Empty`] for an empty input.
    pub fn compute_with(values: &[f64], scratch: &mut SbdScratch) -> Result<Self> {
        if values.is_empty() {
            return Err(TimeSeriesError::Empty);
        }
        let len = values.len();
        let padded_len = next_power_of_two(2 * len - 1);
        let (table, (zr, zi), _) = scratch.for_len(padded_len);
        // The z-normalized signal over the head of the real half, zeros
        // everywhere else.
        let (z, padding) = zr.split_at_mut(len);
        z_normalize_into(values, z);
        // Same chunked kernel as the direct SBD path, so the two stay
        // bitwise interchangeable.
        let norm = sum_of_squares(z).sqrt();
        padding.fill(0.0);
        zi.fill(0.0);
        // Transformed into its final allocation.
        let mut fft: Arc<[f64]> = std::iter::repeat(0.0).take(2 * padded_len).collect();
        let block = Arc::get_mut(&mut fft).expect("a spectrum nobody else holds yet");
        fft_gather((zr, zi), block.split_at_mut(padded_len), table, Parts::Both);
        Ok(Self {
            len,
            norm,
            fft,
            padded_len,
        })
    }

    /// The spectrum of the negated series `−x`, by negating every bin
    /// instead of running a second forward transform.
    ///
    /// z-normalization, the norm and every butterfly are sums, differences
    /// and products, and IEEE arithmetic is sign-symmetric in those, so a
    /// transform of `−x` holds the bins of `x` negated — except where a bin
    /// (or a z value on the way to it) is an exact zero: a fresh transform
    /// writes `+0.0` there, the negation `−0.0`. Nothing else differs; the
    /// norm is the same bits.
    ///
    /// No output of [`sbd_oriented`] can see those zero signs, in either
    /// argument position. From the spectrum product to the scan the kernel
    /// only adds, subtracts and multiplies bins, and on such values a zero's
    /// sign decides only the sign of a zero result (`y ± 0 = y` for
    /// `y ≠ 0`, `0 · y = ±0`); the one division is by the norms, which do
    /// not change. So both correlation sequences are equal value for value
    /// as numbers. The scan only compares values (`>`, `<`, `==`, for which
    /// `+0 == −0`), so it finds the same shift. An extreme that is a zero
    /// gives `1 − (±0) = 1` for both `distance` and `flipped_distance`.
    /// Only [`SbdResult::ncc`] can then carry the other zero's sign.
    pub fn negated(&self) -> Self {
        Self {
            len: self.len,
            norm: self.norm,
            fft: self.fft.iter().map(|v| -v).collect(),
            padded_len: self.padded_len,
        }
    }

    /// The cached spectrum's real and imaginary parts.
    fn fft(&self) -> (&[f64], &[f64]) {
        self.fft.split_at(self.padded_len)
    }

    /// Original series length.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying series is empty (never true for a constructed
    /// spectrum; provided for API completeness).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// L2 norm of the z-normalized values (0 for a constant series).
    #[cfg(test)]
    pub(crate) fn norm(&self) -> f64 {
        self.norm
    }

    /// The padded FFT length.
    #[cfg(test)]
    pub(crate) fn padded_len(&self) -> usize {
        self.padded_len
    }

    /// The spectrum's magnitudes as a unit vector over the half spectrum:
    /// bin `k` of `0..=N/2` (`N` the padded length) holds
    /// `√(w_k / N) · |X_k| / ‖x‖`, with `w_k = 2` for the interior bins —
    /// each stands for its mirror image `N − k` too, the signal being real —
    /// and `1` for bins `0` and `N/2`. By Parseval the squares sum to 1, and
    /// the dot product of two series' vectors is the
    /// `Σ_k |X_k||Y_k| / (N·‖x‖·‖y‖)` of [`sbd_lower_bound`], which takes
    /// them.
    ///
    /// Computed on call, not cached: `N/2 + 1` values that only a caller
    /// bounding many distances against this series wants to keep. A
    /// constant series (zero norm) yields NaNs, a series holding a
    /// non-finite sample NaNs too.
    pub fn unit_magnitudes(&self) -> Vec<f64> {
        let (re, im) = self.fft();
        let half = self.padded_len / 2;
        let scale = 1.0 / ((self.padded_len as f64).sqrt() * self.norm);
        (re[..=half].iter().zip(&im[..=half]).enumerate())
            .map(|(k, (&r, &i))| {
                let weight: f64 = if k == 0 || k == half { 1.0 } else { 2.0 };
                (weight * (r * r + i * i)).sqrt() * scale
            })
            .collect()
    }
}

/// All spectra of one component, computed against one twiddle table.
///
/// The pipeline's prepared series are truncated to a common length per
/// component, so every spectrum of a component shares one padded FFT
/// length. The batch checks that once and holds one [`SbdScratch`] — one
/// table fetch, one working buffer — for all of them; each series is
/// transformed into the allocation its spectrum keeps.
///
/// The result is **bitwise identical** to calling
/// [`SeriesSpectrum::compute`] per series (asserted by property tests): the
/// batch shares the table, never the float operations.
#[derive(Debug, Clone)]
pub struct SpectrumBatch {
    spectra: Vec<SeriesSpectrum>,
}

impl SpectrumBatch {
    /// Computes the spectra of `series`, which must all have the same
    /// nonzero length (the shape every per-component computation in the
    /// pipeline has).
    ///
    /// # Errors
    ///
    /// * [`TimeSeriesError::Empty`] if any series is empty.
    /// * [`TimeSeriesError::LengthMismatch`] if the series lengths differ.
    pub fn compute<S: AsRef<[f64]>>(series: &[S]) -> Result<Self> {
        let Some(first) = series.first() else {
            return Ok(Self {
                spectra: Vec::new(),
            });
        };
        let len = first.as_ref().len();
        if len == 0 {
            return Err(TimeSeriesError::Empty);
        }
        for s in series {
            let other = s.as_ref().len();
            if other != len {
                return Err(TimeSeriesError::LengthMismatch {
                    left: len,
                    right: other,
                });
            }
        }
        let mut scratch = SbdScratch::default();
        let spectra = (series.iter())
            .map(|s| SeriesSpectrum::compute_with(s.as_ref(), &mut scratch))
            .collect::<Result<_>>()?;
        Ok(Self { spectra })
    }

    /// The computed spectra, in input order.
    pub fn spectra(&self) -> &[SeriesSpectrum] {
        &self.spectra
    }

    /// Number of spectra in the batch.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.spectra.len()
    }

    /// Whether the batch is empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.spectra.is_empty()
    }

    /// Consumes the batch, yielding the spectra in input order.
    pub fn into_spectra(self) -> Vec<SeriesSpectrum> {
        self.spectra
    }
}

/// Caller-held working memory of the SBD engine: the twiddle table of one
/// padded length and the split-complex FFT buffers of that length.
///
/// A loop that evaluates many distances or builds many spectra at one
/// series length (a k-Shape fit, a distance-matrix row, a batch) creates
/// one scratch and passes it to every [`sbd_oriented`] /
/// [`SeriesSpectrum::compute_with`] call; after the first call none
/// allocates working memory or looks a table up. A scratch adapts when
/// handed another padded length, so any scratch works with any input.
#[derive(Debug, Default)]
pub struct SbdScratch {
    table: Option<Arc<TwiddleTable>>,
    /// Four runs of `n`: the real and imaginary parts of a transform's
    /// input in natural order, where its head stages run, then those of the
    /// bit-reversed buffer the kernel's transform finishes in (a forward
    /// transform finishes in the spectrum's own allocation).
    buf: Vec<f64>,
}

impl SbdScratch {
    /// The table, the natural-order buffer and the finishing buffer for
    /// padded length `n`, (re)built when the scratch last served a
    /// different length.
    fn for_len(&mut self, n: usize) -> (&TwiddleTable, SplitMut<'_>, SplitMut<'_>) {
        if self.buf.len() != 4 * n {
            self.table = None;
            self.buf.resize(4 * n, 0.0);
        }
        let table = self.table.get_or_insert_with(|| twiddle_table(n));
        let (natural, finished) = self.buf.split_at_mut(2 * n);
        (table, natural.split_at_mut(n), finished.split_at_mut(n))
    }
}

/// What one scan of the normalized cross-correlation of `x` and `y` yields:
/// the shape-based distance of the pair and, from the same scan's minimum,
/// the distance of the pair with `x` negated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrientedSbd {
    /// `SBD(x, y)` with its alignment shift, from the sequence's first
    /// maximum.
    pub sbd: SbdResult,
    /// `SBD(−x, y)`, from the sequence's minimum. IEEE add, subtract,
    /// multiply and divide are sign-symmetric, so negating `x` negates
    /// every NCC value exactly and `max_s NCC(−x, y)[s] = −min_s NCC(x, y)[s]`:
    /// this is bit-equal to
    /// `sbd_from_spectra(&SeriesSpectrum::compute(&neg_x)?, y)?.distance`
    /// (asserted by tests) without a second FFT. k-Shape's centroid
    /// orientation check reads it.
    pub flipped_distance: f64,
}

/// The SBD kernel: the spectrum product written in natural order, one
/// transform against the scratch's twiddle table that computes real parts
/// only in its last stage, and a scan in shift order for the first maximum
/// and the minimum of the correlation divided by the norms (`scan_peaks`:
/// two divisions, not one per shift). Nothing is allocated once the scratch
/// has served this padded length.
///
/// # Errors
///
/// * [`TimeSeriesError::LengthMismatch`] when the spectra were padded to
///   different lengths, or when the pair's required FFT length
///   `next_power_of_two(x.len + y.len - 1)` differs from the cached one —
///   both only possible for series of different lengths, which the pipeline
///   never compares.
pub fn sbd_oriented(
    x: &SeriesSpectrum,
    y: &SeriesSpectrum,
    scratch: &mut SbdScratch,
) -> Result<OrientedSbd> {
    let required = next_power_of_two(x.len + y.len - 1);
    if x.padded_len != y.padded_len || x.padded_len != required {
        return Err(TimeSeriesError::LengthMismatch {
            left: x.len,
            right: y.len,
        });
    }
    let denom = x.norm * y.norm;
    // First maximum (strict `>` in index order) and minimum of the NCC
    // sequence. With a constant operand the sequence is defined as all
    // zeros (same convention as `ncc_sequence`), so SBD becomes 1.
    let (mut max, mut argmax, mut min) = (0.0, 0usize, 0.0);
    if denom != 0.0 {
        let n = x.padded_len;
        let (table, (pr, pi), (re, im)) = scratch.for_len(n);
        // The inverse transform as conj → forward FFT → conj·(1/n); only
        // real parts are read below, so the trailing conj disappears and
        // the last stage's imaginary half with it.
        let ((xr, xi), (yr, yi)) = (x.fft(), y.fft());
        let operands = xr.iter().zip(xi).zip(yr.iter().zip(yi));
        for ((pr, pi), ((&ar, &ai), (&br, &bi))) in pr.iter_mut().zip(pi.iter_mut()).zip(operands) {
            let (r, i) = spectrum_product(ar, ai, br, bi);
            (*pr, *pi) = (r, -i);
        }
        fft_gather((pr, pi), (re, im), table, Parts::RealOnly);
        // The circular correlation holds shifts 0..x.len at the head and
        // the negative shifts -(y.len-1)..0 at the tail; scanning tail then
        // head visits them in the linear layout's index order.
        let (tail, head) = (&re[n - (y.len - 1)..], &re[..x.len]);
        (max, argmax, min) = scan_peaks(tail, head, 1.0 / n as f64, denom);
    }
    Ok(OrientedSbd {
        sbd: SbdResult::from_peak(max, argmax, y.len),
        flipped_distance: 1.0 - (-min).clamp(-1.0, 1.0),
    })
}

/// How far below the raw maximum, relatively, a correlation value may lie
/// and still share the maximum's quotient ([`scan_peaks`]). Two values
/// whose quotients by one positive `denom` round to the same *normal*
/// `f64` differ by at most one part in 2⁵² ≈ 2.3e-16 of it; 1e-15 leaves
/// a factor of four. Not a setting: a smaller guard down to that limit
/// finds the same indices, a larger one only inspects more candidates.
const TIE_GUARD: f64 = 1e-15;

/// First maximum (with its index) and minimum of `c · scale / denom` over
/// `tail` then `head`, where `scale` is a power of two — bit for bit what
/// [`scan_peaks_dividing`] returns, with two divisions instead of one per
/// value.
///
/// `c ↦ fl(fl(c · scale) / denom)` is monotone for `denom > 0` (rounding
/// is monotone, and `c · scale` is exact), so the largest and smallest
/// quotients are the quotients of the largest and smallest `c`, which a
/// division-free pass in four independent lanes finds (maximum and minimum
/// are exactly associative; a NaN compares false in every lane as it does
/// in the plain loop). The *first* index holding the maximum may belong to
/// a slightly smaller `c` whose quotient rounds to the same value: it is
/// the first `c` within [`TIE_GUARD`] of the raw maximum whose quotient
/// equals the maximum's — a handful of divisions, normally one.
///
/// That argument needs quotients to keep their full precision and equal
/// quotients to be identical: whenever `denom` is not positive, or the
/// scaled raw maximum or either extreme quotient is not a finite *normal*
/// number (an all-NaN sequence, ±∞, a zero or underflowing correlation,
/// where ±0 compare equal and many `c` collapse onto one subnormal), the
/// plain loop answers instead.
fn scan_peaks(tail: &[f64], head: &[f64], scale: f64, denom: f64) -> (f64, usize, f64) {
    let (mut hi, mut lo) = ([f64::NEG_INFINITY; 4], [f64::INFINITY; 4]);
    // One lane per position in a block of four; a slice's leftover values
    // go to the first lanes. Two loops on purpose: folded into one (a
    // closure over the block, or `chunks(4)`) the block loop is no longer
    // vectorised and the pass takes 2-3x as long.
    let widen = |hi: &mut f64, lo: &mut f64, c: f64| {
        *hi = if c > *hi { c } else { *hi };
        *lo = if c < *lo { c } else { *lo };
    };
    for values in [tail, head] {
        let blocks = values.chunks_exact(4);
        let rest = blocks.remainder();
        for block in blocks {
            for ((hi, lo), &c) in hi.iter_mut().zip(lo.iter_mut()).zip(block) {
                widen(hi, lo, c);
            }
        }
        for ((hi, lo), &c) in hi.iter_mut().zip(lo.iter_mut()).zip(rest) {
            widen(hi, lo, c);
        }
    }
    let cmax = hi.into_iter().fold(f64::NEG_INFINITY, f64::max);
    let cmin = lo.into_iter().fold(f64::INFINITY, f64::min);
    let (vmax, vmin) = (cmax * scale / denom, cmin * scale / denom);
    if !(denom > 0.0 && (cmax * scale).is_normal() && vmax.is_normal() && vmin.is_normal()) {
        return scan_peaks_dividing(tail, head, scale, denom);
    }
    let guard = cmax - cmax.abs() * TIE_GUARD;
    let argmax = (tail.iter().chain(head))
        .position(|&c| c >= guard && c * scale / denom == vmax)
        .expect("the raw maximum is a candidate and its quotient is the maximum");
    (vmax, argmax, vmin)
}

/// The plain scan: every value divided, the first maximum (strict `>` in
/// index order, so a NaN never wins) and the minimum tracked. What
/// [`scan_peaks`] falls back to, and the reference it is tested against.
fn scan_peaks_dividing(tail: &[f64], head: &[f64], scale: f64, denom: f64) -> (f64, usize, f64) {
    let (mut max, mut argmax, mut min) = (f64::NEG_INFINITY, 0usize, f64::INFINITY);
    for (k, &c) in tail.iter().chain(head).enumerate() {
        let v = c * scale / denom;
        if v > max {
            max = v;
            argmax = k;
        }
        if v < min {
            min = v;
        }
    }
    (max, argmax, min)
}

/// A lower bound on the shape-based distance of two series of one length,
/// from their [`SeriesSpectrum::unit_magnitudes`]: `1 − Σ_k u_k v_k`.
///
/// Every cross-correlation value is an inverse-DFT sum
/// `CC(s) = (1/N) Σ_k X_k conj(Y_k) e^{2πi·ks/N}`, so by the triangle
/// inequality `|NCC(s)| = |CC(s)| / (‖x‖‖y‖) ≤ Σ_k |X_k||Y_k| / (N‖x‖‖y‖)`
/// at every shift `s` — the dot product of the two unit vectors, at most 1
/// by Cauchy–Schwarz. Hence `SBD(x, y) = 1 − max_s NCC(s)` and the flipped
/// distance `1 − max_s(−NCC(s))` are both at least the value returned, up to
/// the rounding of either side (≲ 1e-13 at the pipeline's lengths; asserted
/// by a property test with 1e-12 to spare).
///
/// The bound feeds comparisons only, never a result, so its arithmetic is
/// free: the sum is the chunked [`crate::stats::dot`] (one serial chain over
/// 257 products is latency-bound at 0.5 µs; four lanes take ~90 ns).
/// A NaN in either vector — a constant or non-finite series — makes the
/// bound NaN, which compares false against everything: callers that skip a
/// distance only when `bound > threshold` then evaluate it.
///
/// # Panics
///
/// Panics when the vectors' lengths differ (series of different padded
/// lengths): a sum over the shorter one would not be a bound.
pub fn sbd_lower_bound(x_magnitudes: &[f64], y_magnitudes: &[f64]) -> f64 {
    1.0 - dot(x_magnitudes, y_magnitudes)
}

/// Computes the shape-based distance between two cached spectra,
/// bit-identical to `shape_based_distance(x_values, y_values)` on the raw
/// series the spectra were computed from. A thin wrapper over
/// [`sbd_oriented`] with a one-off scratch; loops should hold a
/// [`SbdScratch`] and call the kernel directly.
///
/// # Errors
///
/// Same as [`sbd_oriented`].
pub fn sbd_from_spectra(x: &SeriesSpectrum, y: &SeriesSpectrum) -> Result<SbdResult> {
    Ok(sbd_oriented(x, y, &mut SbdScratch::default())?.sbd)
}

/// Convenience wrapper returning just the distance.
///
/// # Errors
///
/// Same as [`sbd_from_spectra`].
pub fn sbd_distance_from_spectra(x: &SeriesSpectrum, y: &SeriesSpectrum) -> Result<f64> {
    Ok(sbd_from_spectra(x, y)?.distance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sbd::shape_based_distance;

    /// Deterministic splitmix64 generator (matching the repo's property-test
    /// style).
    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        ((z >> 11) as f64) / (1u64 << 53) as f64 - 0.5
    }

    fn random_series(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..len).map(|_| 100.0 * splitmix(&mut s)).collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn cached_path_is_bit_identical_to_direct_path() {
        // Every series length to 300: padded lengths 1, 4 (no head stages),
        // 8 (nothing but head stages) … 1024, through one scratch; and two
        // longer series, up to a padded length of 4096.
        let mut scratch = SbdScratch::default();
        for len in (1..=300usize).chain([512, 2048]) {
            for seed in 0..3u64 {
                let x = random_series(len, seed * 2 + 1);
                let y = random_series(len, seed * 2 + 2);
                let direct = shape_based_distance(&x, &y).unwrap();
                let sx = SeriesSpectrum::compute_with(&x, &mut scratch).unwrap();
                let sy = SeriesSpectrum::compute_with(&y, &mut scratch).unwrap();
                let cached = sbd_oriented(&sx, &sy, &mut scratch).unwrap().sbd;
                // Bitwise equality, not approximate: both paths must run the
                // exact same float operations.
                assert_eq!(
                    direct.distance.to_bits(),
                    cached.distance.to_bits(),
                    "len {len} seed {seed}"
                );
                assert_eq!(direct.shift, cached.shift, "len {len} seed {seed}");
                assert_eq!(
                    direct.ncc.to_bits(),
                    cached.ncc.to_bits(),
                    "len {len} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn cached_path_handles_constant_series_like_the_direct_path() {
        let x = vec![5.0; 32];
        let y = random_series(32, 9);
        let sx = SeriesSpectrum::compute(&x).unwrap();
        let sy = SeriesSpectrum::compute(&y).unwrap();
        assert_eq!(sx.norm(), 0.0);
        let direct = shape_based_distance(&x, &y).unwrap();
        let cached = sbd_from_spectra(&sx, &sy).unwrap();
        assert_eq!(direct.distance.to_bits(), cached.distance.to_bits());
        assert_eq!(direct.shift, cached.shift);
        assert!((cached.distance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flipped_distance_is_bit_equal_to_the_distance_of_the_negated_series() {
        let mut scratch = SbdScratch::default();
        let mut check = |c: &[f64], a: &[f64], ctx: &str| {
            let negated: Vec<f64> = c.iter().map(|v| -v).collect();
            let sc = SeriesSpectrum::compute(c).unwrap();
            let sa = SeriesSpectrum::compute(a).unwrap();
            let oriented = sbd_oriented(&sc, &sa, &mut scratch).unwrap();
            let flipped =
                sbd_from_spectra(&SeriesSpectrum::compute(&negated).unwrap(), &sa).unwrap();
            assert_eq!(
                oriented.flipped_distance.to_bits(),
                flipped.distance.to_bits(),
                "{ctx}"
            );
            // A scratch reused across pairs and lengths yields what a fresh
            // one does.
            assert_eq!(oriented.sbd, sbd_from_spectra(&sc, &sa).unwrap(), "{ctx}");
        };
        for len in [1usize, 2, 5, 33, 100, 240] {
            for seed in 0..12u64 {
                let c = random_series(len, seed * 2 + 1);
                let a = random_series(len, seed * 2 + 2);
                check(&c, &a, &format!("random, len {len} seed {seed}"));
                check(&c, &c, &format!("self, len {len} seed {seed}"));
                check(&vec![3.5; len], &a, &format!("constant c, len {len}"));
                check(&c, &vec![-2.0; len], &format!("constant a, len {len}"));
            }
            check(
                &vec![1.0; len],
                &vec![7.0; len],
                &format!("both constant, len {len}"),
            );
        }
    }

    #[test]
    fn negated_spectrum_answers_the_kernel_like_a_transform_of_the_negated_series() {
        let mut scratch = SbdScratch::default();
        let (mut cases, mut zero_signs_differ) = (0usize, 0usize);
        let mut check = |c: &[f64], y: &[f64], ctx: &str| {
            let negated: Vec<f64> = c.iter().map(|v| -v).collect();
            let fresh = SeriesSpectrum::compute(&negated).unwrap();
            let flipped = SeriesSpectrum::compute(c).unwrap().negated();
            assert_eq!(flipped.norm().to_bits(), fresh.norm().to_bits(), "{ctx}");
            assert_eq!(flipped.padded_len(), fresh.padded_len(), "{ctx}");
            // Equal as numbers, bin for bin; at most a zero's sign differs.
            for (a, b) in flipped.fft.iter().zip(fresh.fft.iter()) {
                assert!(a == b || (a.is_nan() && b.is_nan()), "{ctx}: {a} vs {b}");
            }
            zero_signs_differ += usize::from(bits(&flipped.fft) != bits(&fresh.fft));
            let sy = SeriesSpectrum::compute(y).unwrap();
            let outputs = |r: OrientedSbd| {
                let bits = (r.sbd.distance.to_bits(), r.flipped_distance.to_bits());
                (bits, r.sbd.shift)
            };
            for (by_negation, by_transform) in [
                (
                    sbd_oriented(&flipped, &sy, &mut scratch).unwrap(),
                    sbd_oriented(&fresh, &sy, &mut scratch).unwrap(),
                ),
                (
                    sbd_oriented(&sy, &flipped, &mut scratch).unwrap(),
                    sbd_oriented(&sy, &fresh, &mut scratch).unwrap(),
                ),
            ] {
                assert_eq!(outputs(by_negation), outputs(by_transform), "{ctx}");
            }
            cases += 1;
        };
        for len in [1usize, 2, 3, 5, 33, 100, WINDOW] {
            for seed in 0..50u64 {
                let ctx = format!("len {len} seed {seed}");
                let c = random_series(len, seed * 2 + 1);
                let y = random_series(len, seed * 2 + 2);
                check(&c, &y, &format!("random, {ctx}"));
                let minus_c: Vec<f64> = c.iter().map(|v| -v).collect();
                check(&c, &c, &format!("y = c, {ctx}"));
                check(&c, &minus_c, &format!("y = -c, {ctx}"));
                // Samples equal to the mean: a symmetric series around an
                // exactly representable mean, so those z values are zeros.
                let symmetric: Vec<f64> = (0..len)
                    .map(|i| match i % 4 {
                        0 | 2 => 8.0,
                        1 => 8.0 + c[i].round(),
                        _ => 8.0 - c[i - 2].round(),
                    })
                    .collect();
                check(&symmetric, &y, &format!("samples at the mean, {ctx}"));
                check(&y, &symmetric, &format!("samples at the mean as y, {ctx}"));
                // Runs of exact zeros between a few spikes.
                let spiky: Vec<f64> = (0..len)
                    .map(|i| {
                        if i % 17 == seed as usize % 17 {
                            c[i]
                        } else {
                            0.0
                        }
                    })
                    .collect();
                check(&spiky, &y, &format!("zero runs, {ctx}"));
                check(
                    &spiky,
                    &spiky,
                    &format!("zero runs against themselves, {ctx}"),
                );
                // Subnormal samples: the smallest steps the format has.
                let subnormal: Vec<f64> = (0..len)
                    .map(|i| f64::from_bits((c[i].to_bits() % 1024) * (i as u64 % 3)))
                    .collect();
                check(&subnormal, &y, &format!("subnormals, {ctx}"));
                check(&y, &subnormal, &format!("subnormals as y, {ctx}"));
            }
            check(&vec![2.5; len], &random_series(len, 9), "constant c");
            check(&vec![0.0; len], &vec![0.0; len], "all zeros");
        }
        assert!(cases >= 3000, "{cases}");
        // The negation is not the fresh transform's bits: the two differ in
        // zero signs (bin 0's imaginary part at least) almost everywhere.
        assert!(
            2 * zero_signs_differ > cases,
            "{zero_signs_differ} of {cases}"
        );
    }

    /// The benchmark's window: 240 samples, padded to 512.
    const WINDOW: usize = 240;

    #[test]
    fn kernel_equals_direct_path_bitwise_at_the_benchmark_window() {
        assert_eq!(next_power_of_two(2 * WINDOW - 1), 512);
        let mut scratch = SbdScratch::default();
        let mut check = |x: &[f64], y: &[f64], ctx: &str| {
            let direct = shape_based_distance(x, y).unwrap();
            let sx = SeriesSpectrum::compute(x).unwrap();
            let sy = SeriesSpectrum::compute(y).unwrap();
            let kernel = sbd_oriented(&sx, &sy, &mut scratch).unwrap();
            assert_eq!(
                kernel.sbd.distance.to_bits(),
                direct.distance.to_bits(),
                "{ctx}"
            );
            assert_eq!(kernel.sbd.shift, direct.shift, "{ctx}");
            assert_eq!(kernel.sbd.ncc.to_bits(), direct.ncc.to_bits(), "{ctx}");
            let negated: Vec<f64> = x.iter().map(|v| -v).collect();
            let flipped = shape_based_distance(&negated, y).unwrap();
            assert_eq!(
                kernel.flipped_distance.to_bits(),
                flipped.distance.to_bits(),
                "{ctx}: flipped"
            );
            kernel
        };
        for seed in 0..16u64 {
            let x = random_series(WINDOW, seed * 2 + 1);
            let y = random_series(WINDOW, seed * 2 + 2);
            let r = check(&x, &y, &format!("random, seed {seed}"));
            assert!(r.sbd.distance > 0.0 && r.sbd.distance < 2.0);
            let own = check(&x, &x, &format!("self, seed {seed}"));
            assert_eq!(own.sbd.shift, 0);
        }
        let x = random_series(WINDOW, 77);
        // A constant operand: the NCC sequence is all zeros by convention.
        for (a, b) in [(&vec![4.25; WINDOW], &x), (&x, &vec![-1.0; WINDOW])] {
            let r = check(a, b, "constant operand");
            assert_eq!((r.sbd.distance, r.sbd.shift), (1.0, WINDOW as isize - 1));
            assert_eq!(r.flipped_distance, 1.0);
        }
        // A non-finite sample poisons the operand's mean, hence every z
        // value, its norm and every NCC value: no value beats the scan's
        // starting points, so both orientations report the maximal distance
        // at the first index — a stated result, not a panic and not a NaN.
        for hostile in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut poisoned = x.clone();
            poisoned[WINDOW / 3] = hostile;
            let y = random_series(WINDOW, 78);
            for (a, b) in [(&poisoned, &y), (&y, &poisoned)] {
                let r = check(a, b, &format!("operand containing {hostile}"));
                assert_eq!((r.sbd.distance, r.sbd.shift), (2.0, WINDOW as isize - 1));
                assert_eq!(r.flipped_distance, 2.0);
            }
        }
    }

    /// The neighbours of a positive normal `f64` (`f64::next_down` /
    /// `next_up` are newer than the workspace's minimum toolchain).
    fn float_below(v: f64) -> f64 {
        f64::from_bits(v.to_bits() - 1)
    }

    fn float_above(v: f64) -> f64 {
        f64::from_bits(v.to_bits() + 1)
    }

    /// `scan_peaks` on the sequence, checked bit for bit against the plain
    /// dividing loop.
    fn scanned(tail: &[f64], head: &[f64], scale: f64, denom: f64) -> (f64, usize, f64) {
        let fast = scan_peaks(tail, head, scale, denom);
        let plain = scan_peaks_dividing(tail, head, scale, denom);
        assert_eq!(
            (fast.0.to_bits(), fast.1, fast.2.to_bits()),
            (plain.0.to_bits(), plain.1, plain.2.to_bits()),
            "tail {tail:?} head {head:?} scale {scale} denom {denom}: {fast:?} vs {plain:?}"
        );
        fast
    }

    #[test]
    fn division_free_scan_equals_the_dividing_loop_on_sequences_built_to_break_it() {
        let (scale, denom) = (1.0 / 16.0, 3.7);
        // Exact ties of the raw maximum: within the tail, across tail and
        // head, within the head — the first index wins.
        let (_, at, _) = scanned(&[1.0, 5.0, 2.0, 5.0, -3.0], &[5.0, 0.5], scale, denom);
        assert_eq!(at, 1);
        let (_, at, _) = scanned(&[1.0, 2.0, -3.0], &[0.5, 5.0, 5.0, 1.0, 5.0], scale, denom);
        assert_eq!(at, 4);
        // The maximum at the first and at the last index, the minimum at
        // the other end.
        let (_, at, _) = scanned(&[9.0, 1.0, 2.0], &[3.0, 4.0, -9.5], scale, denom);
        assert_eq!(at, 0);
        let (_, at, _) = scanned(&[-9.5, 1.0, 2.0], &[3.0, 4.0, 9.0], scale, denom);
        assert_eq!(at, 5);
        // An empty tail (series of length 1) and every value equal.
        assert_eq!(scanned(&[], &[2.5], 1.0, denom).1, 0);
        assert_eq!(scanned(&[-2.5; 7], &[-2.5; 8], scale, denom).1, 0);

        // A raw value one float below the raw maximum, *before* it, whose
        // quotient rounds to the maximum's: the earlier index holds the
        // first maximum although its raw value is smaller.
        let near_tie = (0..64u64)
            .map(|k| f64::from_bits(15.92f64.to_bits() + k))
            .find(|&c| float_below(c) * 0.125 / 1.9 == c * 0.125 / 1.9)
            .expect("about half of all neighbours share a quotient here");
        let below = float_below(near_tie);
        let (_, at, _) = scanned(&[1.0, below, 2.0], &[near_tie, 3.0], 0.125, 1.9);
        assert_eq!(at, 1, "tail before head");
        let (_, at, _) = scanned(&[1.0], &[0.0, below, near_tie, below], 0.125, 1.9);
        assert_eq!(at, 2, "within the head");
        // ... and negative, where the guard lies further from zero: here
        // `-below` is the raw maximum.
        let (_, at, _) = scanned(&[-20.0, -near_tie], &[-below, -27.0], 0.125, 1.9);
        assert_eq!(at, 1, "negative, the near tie first");
        let (_, at, _) = scanned(&[-20.0, -27.0], &[-below, -near_tie], 0.125, 1.9);
        assert_eq!(at, 2, "negative, the raw maximum first");

        // NaN: everywhere (nothing beats the starting points), and
        // interleaved with finite values in every lane position.
        let (max, at, min) = scanned(&[f64::NAN; 5], &[f64::NAN; 6], scale, denom);
        assert_eq!((max, at, min), (f64::NEG_INFINITY, 0, f64::INFINITY));
        for nan_at in 0..9 {
            let mut values = [3.0, -1.0, 4.0, 1.5, -5.0, 9.0, 2.0, 6.0, 5.0];
            values[nan_at] = f64::NAN;
            values[(nan_at + 4) % 9] = f64::NAN;
            let (max, _, min) = scanned(&values[..4], &values[4..], scale, denom);
            assert!(max.is_finite() && min.is_finite());
        }
        // Infinities in the sequence.
        for infinite in [f64::INFINITY, f64::NEG_INFINITY] {
            scanned(&[1.0, infinite, 2.0], &[-3.0, 0.5], scale, denom);
            scanned(&[1.0, 2.0], &[infinite, -infinite, infinite], scale, denom);
            scanned(&[infinite; 3], &[infinite; 2], scale, denom);
        }
        // Zeros: equal as numbers, distinct as bits — the first one seen is
        // the one reported, whatever its sign, as extreme of either kind.
        for values in [
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [-0.0, 0.0, -0.0, 0.0, 0.0, -0.0],
            [0.0, -0.0, 0.0, -0.0, -0.0, 0.0],
            [-1.0, -1.0, 0.0, -1.0, -1.0, -0.0],
            [-1.0, 0.0, -0.0, -1.0, -1.0, -1.0],
            [-1.0, -0.0, 0.0, -1.0, -0.0, 0.0],
            [1.0, -0.0, 0.0, 1.0, 0.0, -0.0],
            [1.0, 0.0, -0.0, 1.0, 1.0, 1.0],
        ] {
            scanned(&values[..2], &values[2..], scale, denom);
            scanned(&values[..5], &values[5..], scale, denom);
        }
        // Quotients that underflow: raw values far more than the guard
        // apart collapse onto one subnormal, or onto zero.
        let (max, at, _) = scanned(&[-1e-10], &[1e-10, 1e-10 * (1.0 + 1e-12), 0.0], 1.0, 1e305);
        assert!(max > 0.0 && !max.is_normal());
        assert_eq!(at, 1);
        scanned(&[-3e-320, 2e-320], &[2.5e-320, 1e-320], 0.25, 2.0);
        scanned(&[-1e-200, 1e-200], &[2e-200, 1.5e-200], scale, 1e200);
        // A normal quotient of a scaled value that is not: the scaling
        // already merged the two raw values.
        let (tiny, scale_40) = (1e-300, 1.0 / (1u64 << 40) as f64);
        let merged = tiny * (1.0 + 1e-13);
        assert!(merged > tiny && merged * scale_40 == tiny * scale_40);
        let (max, at, _) = scanned(&[0.0, tiny], &[merged, -tiny], scale_40, 1e-305);
        assert!(max.is_normal());
        assert_eq!(at, 1);
        // The scaled maximum at the edge of the normal range.
        let edge = f64::MIN_POSITIVE * 16.0;
        scanned(&[float_below(edge), edge], &[edge, -edge], scale, 0.75);
        scanned(
            &[float_above(edge), edge],
            &[float_above(edge), -edge],
            scale,
            1.0,
        );
        // Quotients that overflow.
        scanned(&[1e300, -1e300], &[2e300, 3e300], 1.0, 1e-10);
        // Denominators no norm product should be, answered like the loop.
        let unusual = [
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE / 8.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            0.0,
            -0.0,
            -3.7,
            f64::NEG_INFINITY,
        ];
        for denom in unusual {
            scanned(&[1.0, 5.0, 2.0], &[5.0, -3.0, 0.5], scale, denom);
            scanned(
                &[1.0, f64::INFINITY],
                &[f64::NEG_INFINITY, 0.0],
                scale,
                denom,
            );
        }
    }

    #[test]
    fn division_free_scan_equals_the_dividing_loop_on_seeded_sequences() {
        // Noise at the kernel's own shape (239 + 240 values) and at every
        // short length, quantised so that exact ties of the extremes occur.
        let mut state = 0x5EED_u64;
        for round in 0..400usize {
            let (tail_len, head_len) = match round % 4 {
                0 => (WINDOW - 1, WINDOW),
                _ => (round % 23, 1 + round % 17),
            };
            let levels = [1e9, 64.0, 8.0][round % 3];
            let mut draw = |len: usize| -> Vec<f64> {
                let quantised = |v: f64| (v * levels).round() / levels;
                (0..len).map(|_| quantised(splitmix(&mut state))).collect()
            };
            let (tail, head) = (draw(tail_len), draw(head_len));
            let denom = 0.01 + 300.0 * (0.5 + splitmix(&mut state));
            scanned(&tail, &head, 1.0 / 512.0, denom);
        }
    }

    /// `1 − dot(unit magnitudes)` of the pair, and the kernel's verdict on it.
    fn bound_and_kernel(x: &[f64], y: &[f64], scratch: &mut SbdScratch) -> (f64, OrientedSbd) {
        let sx = SeriesSpectrum::compute(x).unwrap();
        let sy = SeriesSpectrum::compute(y).unwrap();
        let (ux, uy) = (sx.unit_magnitudes(), sy.unit_magnitudes());
        assert_eq!(ux.len(), sx.padded_len() / 2 + 1);
        let bound = sbd_lower_bound(&ux, &uy);
        assert_eq!(bound.to_bits(), sbd_lower_bound(&uy, &ux).to_bits());
        (bound, sbd_oriented(&sx, &sy, scratch).unwrap())
    }

    #[test]
    fn spectral_bound_never_exceeds_either_orientations_distance() {
        let mut scratch = SbdScratch::default();
        let mut pairs = 0usize;
        let mut check = |x: &[f64], y: &[f64], ctx: &str| {
            let (bound, kernel) = bound_and_kernel(x, y, &mut scratch);
            assert!(bound <= kernel.sbd.distance + 1e-12, "{ctx}: {bound}");
            assert!(bound <= kernel.flipped_distance + 1e-12, "{ctx}: {bound}");
            // Cauchy–Schwarz over two unit vectors.
            assert!(bound >= -1e-12, "{ctx}: {bound}");
            pairs += 1;
            (bound, kernel)
        };
        for len in [16usize, 60, 240] {
            for seed in 0..140u64 {
                let ctx = format!("len {len} seed {seed}");
                let x = random_series(len, seed * 2 + 1);
                let y = random_series(len, seed * 2 + 2);
                check(&x, &y, &format!("independent noise, {ctx}"));

                let mut rotated = x.clone();
                rotated.rotate_left(1 + seed as usize % (len - 1));
                check(&x, &rotated, &format!("circular shift, {ctx}"));

                // z-normalized, a positive multiple is the series again:
                // bound and distance meet at zero.
                let multiple: Vec<f64> = x.iter().map(|v| (seed + 2) as f64 * v + 7.0).collect();
                let (bound, kernel) = check(&x, &multiple, &format!("multiple, {ctx}"));
                assert!(bound.abs() < 1e-12 && kernel.sbd.distance.abs() < 1e-12);

                let negated: Vec<f64> = x.iter().map(|v| -v).collect();
                let (bound, kernel) = check(&x, &negated, &format!("negation, {ctx}"));
                assert!(bound.abs() < 1e-12 && kernel.flipped_distance.abs() < 1e-12);
                // ... while the upright distance is far from its bound: the
                // magnitudes cannot see a sign.
                assert!(kernel.sbd.distance > 0.3, "{ctx}");

                // Whole periods of two different frequencies share no bin
                // but what zero padding leaks: the bound alone tells them
                // apart.
                let tone = |cycles: usize| -> Vec<f64> {
                    let step = std::f64::consts::TAU * cycles as f64 / len as f64;
                    (0..len).map(|i| (i as f64 * step).sin()).collect()
                };
                let cycles = 1 + seed as usize % (len / 8);
                let (bound, _) = check(
                    &tone(cycles),
                    &tone(cycles + len / 4),
                    &format!("tones, {ctx}"),
                );
                assert!(bound > 0.85, "tones, {ctx}: {bound}");
            }
        }
        assert!(pairs >= 2000, "{pairs}");

        // Operands the kernel answers by convention: the bound must be NaN
        // (the caller evaluates) or below the kernel's answer — never a
        // finite value above it.
        let y = random_series(WINDOW, 78);
        let mut hostile = vec![vec![4.25; WINDOW]];
        for sample in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut poisoned = random_series(WINDOW, 77);
            poisoned[WINDOW / 3] = sample;
            hostile.push(poisoned);
        }
        for x in &hostile {
            for (a, b) in [(x, &y), (&y, x), (x, x)] {
                let (bound, kernel) = bound_and_kernel(a, b, &mut scratch);
                let below = bound <= kernel.sbd.distance && bound <= kernel.flipped_distance;
                // Either way `bound > best + margin` is false: not skipped.
                assert!(bound.is_nan() || below, "{bound} vs {kernel:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn bound_rejects_magnitudes_of_different_padded_lengths() {
        let a = SeriesSpectrum::compute(&random_series(5, 1)).unwrap();
        let b = SeriesSpectrum::compute(&random_series(20, 2)).unwrap();
        sbd_lower_bound(&a.unit_magnitudes(), &b.unit_magnitudes());
    }

    #[test]
    fn scratch_reused_across_padded_lengths_yields_what_fresh_scratches_do() {
        // 16 → 512 → 16: the scratch grows, shrinks, and must neither keep a
        // stale table nor read the longer run's leftovers.
        let mut reused = SbdScratch::default();
        for (round, len) in [8usize, WINDOW, 8, WINDOW, 5].into_iter().enumerate() {
            let x = SeriesSpectrum::compute(&random_series(len, round as u64 + 40)).unwrap();
            let y = SeriesSpectrum::compute(&random_series(len, round as u64 + 50)).unwrap();
            let fresh = sbd_oriented(&x, &y, &mut SbdScratch::default()).unwrap();
            let again = sbd_oriented(&x, &y, &mut reused).unwrap();
            assert_eq!(again.sbd.distance.to_bits(), fresh.sbd.distance.to_bits());
            assert_eq!(again.sbd.shift, fresh.sbd.shift, "round {round}");
            assert_eq!(
                again.flipped_distance.to_bits(),
                fresh.flipped_distance.to_bits(),
                "round {round}"
            );
            assert_eq!(reused.buf.len(), 4 * x.padded_len(), "round {round}");
            assert_eq!(reused.table.as_ref().unwrap().len(), x.padded_len());
        }
    }

    #[test]
    fn batch_is_bitwise_equal_to_per_series_spectra() {
        // The documented contract is "within epsilon"; the implementation is
        // in fact bitwise because only layout and table reuse change, never
        // the float operations — assert the stronger property.
        for count in [1usize, 2, 5, 9] {
            for len in [1usize, 3, 16, 100] {
                let series: Vec<Vec<f64>> = (0..count)
                    .map(|i| random_series(len, i as u64 * 17 + 3))
                    .collect();
                let batch = SpectrumBatch::compute(&series).unwrap();
                assert_eq!(batch.len(), count);
                assert!(!batch.is_empty());
                for (i, (b, s)) in batch
                    .spectra()
                    .iter()
                    .zip(series.iter().map(|s| SeriesSpectrum::compute(s).unwrap()))
                    .enumerate()
                {
                    let ctx = format!("count={count} len={len} series={i}");
                    assert_eq!(b.len(), s.len(), "{ctx}");
                    assert_eq!(b.padded_len(), s.padded_len(), "{ctx}");
                    assert_eq!(b.norm().to_bits(), s.norm().to_bits(), "{ctx}");
                    let ((br, bi), (sr, si)) = (b.fft(), s.fft());
                    assert_eq!(br.len(), b.padded_len(), "{ctx}");
                    assert_eq!(bits(br), bits(sr), "{ctx}: fft re");
                    assert_eq!(bits(bi), bits(si), "{ctx}: fft im");
                }
            }
        }
    }

    #[test]
    fn batch_distances_match_direct_path_bitwise() {
        let series: Vec<Vec<f64>> = (0..6).map(|i| random_series(48, i + 100)).collect();
        let batch = SpectrumBatch::compute(&series).unwrap();
        for i in 0..series.len() {
            for j in 0..series.len() {
                let direct = shape_based_distance(&series[i], &series[j]).unwrap();
                let cached = sbd_from_spectra(&batch.spectra()[i], &batch.spectra()[j]).unwrap();
                assert_eq!(direct.distance.to_bits(), cached.distance.to_bits());
                assert_eq!(direct.shift, cached.shift);
            }
        }
    }

    #[test]
    fn batch_rejects_mixed_lengths_and_empty_series() {
        assert!(matches!(
            SpectrumBatch::compute(&[vec![1.0, 2.0], vec![1.0, 2.0, 3.0]]),
            Err(TimeSeriesError::LengthMismatch { .. })
        ));
        assert!(matches!(
            SpectrumBatch::compute(&[Vec::<f64>::new()]),
            Err(TimeSeriesError::Empty)
        ));
        let empty: Vec<Vec<f64>> = Vec::new();
        assert!(SpectrumBatch::compute(&empty).unwrap().is_empty());
    }

    #[test]
    fn spectrum_rejects_empty_input() {
        assert!(matches!(
            SeriesSpectrum::compute(&[]),
            Err(TimeSeriesError::Empty)
        ));
    }

    #[test]
    fn mismatched_lengths_are_rejected() {
        // 5-point series pads to 16, 20-point series pads to 64: the pair
        // cannot be combined from these caches.
        let a = SeriesSpectrum::compute(&random_series(5, 1)).unwrap();
        let b = SeriesSpectrum::compute(&random_series(20, 2)).unwrap();
        assert!(matches!(
            sbd_from_spectra(&a, &b),
            Err(TimeSeriesError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn accessors_expose_the_cached_state() {
        let x = random_series(10, 3);
        let s = SeriesSpectrum::compute(&x).unwrap();
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
        assert_eq!(s.padded_len(), 32);
        // Ten z-normalized values: population variance 1, so ‖z‖² = 10.
        assert!((s.norm() * s.norm() - 10.0).abs() < 1e-9);
        // Clone shares the buffer.
        let c = s.clone();
        assert!(std::sync::Arc::ptr_eq(&c.fft, &s.fft));
        // The split spectrum is one allocation of the interleaved one's
        // size — two `f64` per padded sample — and nothing else is kept.
        assert_eq!(s.fft.len(), 2 * s.padded_len());
        assert_eq!(std::sync::Arc::strong_count(&s.fft), 2);
        let (re, im) = s.fft();
        assert_eq!((re.len(), im.len()), (32, 32));
        // ... holding the transform the direct path runs on the same values.
        let (direct_re, direct_im) = crate::fft::fft_real(&crate::normalize::z_normalize(&x), 32);
        assert_eq!((bits(re), bits(im)), (bits(&direct_re), bits(&direct_im)));
    }

    #[test]
    fn pairwise_distance_wrapper_matches_full_result() {
        let x = random_series(40, 5);
        let y = random_series(40, 6);
        let sx = SeriesSpectrum::compute(&x).unwrap();
        let sy = SeriesSpectrum::compute(&y).unwrap();
        let d = sbd_distance_from_spectra(&sx, &sy).unwrap();
        assert_eq!(
            d.to_bits(),
            sbd_from_spectra(&sx, &sy).unwrap().distance.to_bits()
        );
    }
}
