//! Cached series spectra: the shared SBD computation engine.
//!
//! Every shape-based distance evaluation needs the same three ingredients
//! per series — its z-normalized values, their L2 norm, and the forward FFT
//! of the z-normalized signal at the padded power-of-two length. The naive
//! [`crate::sbd::shape_based_distance`] recomputes all three for *both*
//! operands on every call; k-Shape fit, centroid refinement and
//! silhouette-based k selection together issue O(n²·k·iterations) such
//! calls per component. A [`SeriesSpectrum`] computes the ingredients once
//! per series, after which each pairwise distance costs one spectrum
//! product and one inverse FFT instead of two z-normalizations and three
//! FFTs.
//!
//! The cached path is **bit-identical** to the naive one: the kernel
//! ([`sbd_oriented`]) performs, per output value, the float operations of
//! [`crate::fft::cross_correlation_from_ffts`] followed by the division and
//! first-maximum scan of [`crate::sbd::shape_based_distance`] — it only
//! stops materialising the intermediate vectors — and the cached forward
//! FFT is produced by the same [`crate::fft::fft_real`] call the direct path
//! performs internally. The pipeline's cached/naive model equality tests
//! rely on this.

use crate::fft::{
    butterflies, fft_in_place_with, fft_real, next_power_of_two, twiddle_table, Complex,
    TwiddleTable,
};
use crate::normalize::z_normalize;
use crate::sbd::SbdResult;
use crate::stats::sum_of_squares;
use crate::{Result, TimeSeriesError};
use std::sync::Arc;

/// The per-series state of the SBD engine: z-normalized values, their L2
/// norm and the forward FFT at the padded power-of-two length.
///
/// The buffers live behind `Arc`s, so cloning a spectrum (e.g. to share it
/// between a distance matrix and a k-Shape run) is a refcount bump.
#[derive(Debug, Clone)]
pub struct SeriesSpectrum {
    /// Original series length.
    len: usize,
    /// z-normalized copy of the input series.
    z: Arc<[f64]>,
    /// L2 norm of the z-normalized values.
    norm: f64,
    /// Forward FFT of the z-normalized values, zero-padded to `padded_len`.
    fft: Arc<[Complex]>,
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
        if values.is_empty() {
            return Err(TimeSeriesError::Empty);
        }
        let len = values.len();
        let z = z_normalize(values);
        // Same chunked kernel as the direct SBD path and the batched path, so
        // all three stay bitwise interchangeable.
        let norm = sum_of_squares(&z).sqrt();
        let padded_len = next_power_of_two(2 * len - 1);
        let fft = fft_real(&z, padded_len);
        Ok(Self {
            len,
            z: z.into(),
            norm,
            fft: fft.into(),
            padded_len,
        })
    }

    /// Original series length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying series is empty (never true for a constructed
    /// spectrum; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The z-normalized values the spectrum was computed from.
    pub fn z_values(&self) -> &[f64] {
        &self.z
    }

    /// L2 norm of the z-normalized values (0 for a constant series).
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// The padded FFT length.
    pub fn padded_len(&self) -> usize {
        self.padded_len
    }
}

/// All spectra of one component, computed in a single pass over one
/// contiguous FFT arena.
///
/// The pipeline's prepared series are truncated to a common length per
/// component, so every spectrum of a component shares one padded FFT
/// length. The batch exploits that: it fetches the twiddle table once,
/// packs every z-normalized series into one contiguous `Complex` buffer and
/// transforms the chunks back to back — one allocation and one table fetch
/// for the whole component instead of one of each per series.
///
/// The result is **bitwise identical** to calling
/// [`SeriesSpectrum::compute`] per series (asserted by property tests): the
/// batch changes memory layout and table reuse, never the float operations.
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
            if other == 0 {
                return Err(TimeSeriesError::Empty);
            }
        }
        let padded_len = next_power_of_two(2 * len - 1);
        let table = twiddle_table(padded_len);
        // One contiguous arena for every transform of the component.
        let mut arena = vec![Complex::default(); series.len() * padded_len];
        let mut zs: Vec<Vec<f64>> = Vec::with_capacity(series.len());
        for (chunk, s) in arena.chunks_exact_mut(padded_len).zip(series.iter()) {
            let z = z_normalize(s.as_ref());
            for (slot, &v) in chunk.iter_mut().zip(z.iter()) {
                *slot = Complex::from_real(v);
            }
            zs.push(z);
        }
        for chunk in arena.chunks_exact_mut(padded_len) {
            fft_in_place_with(chunk, &table);
        }
        let spectra = zs
            .into_iter()
            .zip(arena.chunks_exact(padded_len))
            .map(|(z, fft)| {
                let norm = sum_of_squares(&z).sqrt();
                SeriesSpectrum {
                    len,
                    z: z.into(),
                    norm,
                    fft: fft.into(),
                    padded_len,
                }
            })
            .collect();
        Ok(Self { spectra })
    }

    /// The computed spectra, in input order.
    pub fn spectra(&self) -> &[SeriesSpectrum] {
        &self.spectra
    }

    /// Number of spectra in the batch.
    pub fn len(&self) -> usize {
        self.spectra.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.spectra.is_empty()
    }

    /// Consumes the batch, yielding the spectra in input order.
    pub fn into_spectra(self) -> Vec<SeriesSpectrum> {
        self.spectra
    }
}

/// Caller-held working memory of the SBD kernel: the twiddle table of one
/// padded length and one FFT buffer of that length.
///
/// A loop that evaluates many distances at one series length (a k-Shape
/// fit, a distance-matrix row) creates one scratch and passes it to every
/// [`sbd_oriented`] call; after the first call no evaluation allocates or
/// looks a table up. A scratch adapts when handed spectra of another
/// padded length, so any scratch works with any pair.
#[derive(Debug, Default)]
pub struct SbdScratch {
    table: Option<Arc<TwiddleTable>>,
    buf: Vec<Complex>,
}

impl SbdScratch {
    /// The table and buffer for padded length `n`, (re)built when the
    /// scratch last served a different length.
    fn for_len(&mut self, n: usize) -> (&TwiddleTable, &mut [Complex]) {
        if self.buf.len() != n {
            self.table = None;
            self.buf.resize(n, Complex::default());
        }
        let table = self.table.get_or_insert_with(|| twiddle_table(n));
        (table, &mut self.buf)
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

/// The SBD kernel: spectrum product scattered into bit-reversed order, the
/// butterfly passes against the scratch's twiddle table, and a single scan
/// in shift order that divides by the norms and tracks the first maximum
/// and the minimum. Nothing is allocated once the
/// scratch has served this padded length.
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
        let (table, buf) = scratch.for_len(n);
        // The inverse transform as conj → forward FFT → conj·(1/n); only
        // real parts are read below, so the trailing conj disappears. Each
        // product goes straight to its bit-reversed slot, so the transform
        // is the butterfly passes alone.
        let products = x.fft.iter().zip(y.fft.iter());
        for ((a, b), &slot) in products.zip(table.bit_reversal()) {
            buf[slot as usize] = (*a * b.conj()).conj();
        }
        butterflies(buf, table);
        let scale = 1.0 / n as f64;
        // The circular correlation holds shifts 0..x.len at the head and
        // the negative shifts -(y.len-1)..0 at the tail; scanning tail then
        // head visits them in the linear layout's index order.
        let lags = buf[n - (y.len - 1)..].iter().chain(buf[..x.len].iter());
        (max, min) = (f64::NEG_INFINITY, f64::INFINITY);
        for (k, c) in lags.enumerate() {
            let v = c.re * scale / denom;
            if v > max {
                max = v;
                argmax = k;
            }
            if v < min {
                min = v;
            }
        }
    }
    Ok(OrientedSbd {
        sbd: SbdResult::from_peak(max, argmax, y.len),
        flipped_distance: 1.0 - (-min).clamp(-1.0, 1.0),
    })
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

    #[test]
    fn cached_path_is_bit_identical_to_direct_path() {
        for len in [1usize, 2, 3, 7, 16, 33, 100, 256] {
            for seed in 0..8u64 {
                let x = random_series(len, seed * 2 + 1);
                let y = random_series(len, seed * 2 + 2);
                let direct = shape_based_distance(&x, &y).unwrap();
                let sx = SeriesSpectrum::compute(&x).unwrap();
                let sy = SeriesSpectrum::compute(&y).unwrap();
                let cached = sbd_from_spectra(&sx, &sy).unwrap();
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
                    for (a, c) in b.z_values().iter().zip(s.z_values().iter()) {
                        assert_eq!(a.to_bits(), c.to_bits(), "{ctx}: z");
                    }
                    for (a, c) in b.fft.iter().zip(s.fft.iter()) {
                        assert_eq!(a.re.to_bits(), c.re.to_bits(), "{ctx}: fft re");
                        assert_eq!(a.im.to_bits(), c.im.to_bits(), "{ctx}: fft im");
                    }
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
        assert_eq!(s.z_values().len(), 10);
        assert!(s.norm() > 0.0);
        // Clone shares the buffers.
        let c = s.clone();
        assert!(std::sync::Arc::ptr_eq(&c.z, &s.z));
        assert!(std::sync::Arc::ptr_eq(&c.fft, &s.fft));
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
