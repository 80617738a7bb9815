//! A small radix-2 Cooley–Tukey FFT.
//!
//! Sieve's shape-based distance is defined via the normalized
//! cross-correlation, which k-Shape computes with the Fast Fourier Transform
//! (§3.2: "Cross correlation is calculated using Fast Fourier
//! Transformation"). We implement the transform from scratch so that the
//! reproduction does not depend on external numerics crates.
//!
//! There is one production transform and one oracle. The production one
//! ([`fft_in_place`] and the functions built on it) reads its twiddles and
//! its bit-reversal from a cached [`TwiddleTable`] and works on
//! *split-complex* data: real parts in one `f64` slice, imaginary parts in
//! another. The oracle (`fft_in_place_naive`, test code) is the seed's, on
//! interleaved [`Complex`] values. Both perform the same IEEE operations on
//! every value in the same order, so they agree bit for bit.
//!
//! What differs is *where in memory* a stage finds its operands. The oracle
//! permutes first and then runs every stage on bit-reversed data, where the
//! stages of span 2, 4 and 8 are butterflies one, two and four values long.
//! The production transform runs those three stages *before* the
//! permutation, on natural-order data, where each is a few long contiguous
//! runs against one twiddle (`head_stages`); then it permutes — in place,
//! or as a gather into a second buffer (`fft_gather`) — and runs spans
//! 16…n where the oracle does. Same butterflies, same operands, same order
//! within each multiply and add.

use std::ops::{Add, Mul, Sub};
use std::sync::{Arc, OnceLock};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    pub(crate) fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The purely real complex number `re + 0i`.
    pub(crate) fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
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

/// `(cos θ, sin θ)` at `θ = fl(−2π / len)` for `len = 2^1 … 2^62`, at
/// index `log2(len) − 1`: the root of unity each butterfly stage of length
/// `len` steps its twiddles by, correctly rounded, so no transform calls
/// libm. The angle is exact (`fl(−2π)` over a power of two); mpmath
/// evaluates it at 320 bits and each value is rounded once:
///
/// ```text
/// from fractions import Fraction
/// from math import pi
/// from mpmath import mp, mpf, cos, sin
/// mp.prec = 320
/// def f64(x):
///     sign, man, exp, _ = x._mpf_
///     return float((-1) ** sign * Fraction(man) * Fraction(2) ** exp)
/// for s in range(1, 63):
///     theta = -2 * mpf(pi) / 2**s
///     print(f"    ({f64(cos(theta))!r}, {f64(sin(theta))!r}),")
/// ```
///
/// The entries are the generator's output verbatim: roots at `fl(θ)`,
/// which need not equal `std`'s constants (clippy's `approx_constant`).
#[rustfmt::skip]
#[allow(clippy::approx_constant)]
const STAGE_ROOTS: [(f64, f64); 62] = [
    (-1.0, -1.2246467991473532e-16),
    (6.123233995736766e-17, -1.0),
    (0.7071067811865476, -0.7071067811865475),
    (0.9238795325112867, -0.3826834323650898),
    (0.9807852804032304, -0.19509032201612825),
    (0.9951847266721969, -0.0980171403295606),
    (0.9987954562051724, -0.049067674327418015),
    (0.9996988186962042, -0.024541228522912288),
    (0.9999247018391445, -0.012271538285719925),
    (0.9999811752826011, -0.006135884649154475),
    (0.9999952938095762, -0.003067956762965976),
    (0.9999988234517019, -0.0015339801862847655),
    (0.9999997058628822, -0.0007669903187427045),
    (0.9999999264657179, -0.00038349518757139556),
    (0.9999999816164293, -0.0001917475973107033),
    (0.9999999954041073, -9.587379909597734e-05),
    (0.9999999988510269, -4.793689960306688e-05),
    (0.9999999997127567, -2.396844980841822e-05),
    (0.9999999999281892, -1.1984224905069705e-05),
    (0.9999999999820472, -5.9921124526424275e-06),
    (0.9999999999955118, -2.996056226334661e-06),
    (0.999999999998878, -1.4980281131690111e-06),
    (0.9999999999997194, -7.490140565847157e-07),
    (0.9999999999999298, -3.7450702829238413e-07),
    (0.9999999999999825, -1.8725351414619535e-07),
    (0.9999999999999957, -9.362675707309808e-08),
    (0.9999999999999989, -4.681337853654909e-08),
    (0.9999999999999998, -2.340668926827455e-08),
    (0.9999999999999999, -1.1703344634137277e-08),
    (1.0, -5.8516723170686385e-09),
    (1.0, -2.9258361585343192e-09),
    (1.0, -1.4629180792671596e-09),
    (1.0, -7.314590396335798e-10),
    (1.0, -3.657295198167899e-10),
    (1.0, -1.8286475990839495e-10),
    (1.0, -9.143237995419748e-11),
    (1.0, -4.571618997709874e-11),
    (1.0, -2.285809498854937e-11),
    (1.0, -1.1429047494274685e-11),
    (1.0, -5.714523747137342e-12),
    (1.0, -2.857261873568671e-12),
    (1.0, -1.4286309367843356e-12),
    (1.0, -7.143154683921678e-13),
    (1.0, -3.571577341960839e-13),
    (1.0, -1.7857886709804195e-13),
    (1.0, -8.928943354902097e-14),
    (1.0, -4.4644716774510487e-14),
    (1.0, -2.2322358387255243e-14),
    (1.0, -1.1161179193627622e-14),
    (1.0, -5.580589596813811e-15),
    (1.0, -2.7902947984069054e-15),
    (1.0, -1.3951473992034527e-15),
    (1.0, -6.975736996017264e-16),
    (1.0, -3.487868498008632e-16),
    (1.0, -1.743934249004316e-16),
    (1.0, -8.71967124502158e-17),
    (1.0, -4.35983562251079e-17),
    (1.0, -2.179917811255395e-17),
    (1.0, -1.0899589056276974e-17),
    (1.0, -5.449794528138487e-18),
    (1.0, -2.7248972640692436e-18),
    (1.0, -1.3624486320346218e-18),
];

/// `e^{−2πi/len}` for a butterfly stage of power-of-two length `len ≥ 2`,
/// from [`STAGE_ROOTS`].
fn stage_root(len: usize) -> Complex {
    let (re, im) = STAGE_ROOTS[len.trailing_zeros() as usize - 1];
    Complex::new(re, im)
}

/// Smallest power of two that is `>= n` (returns 1 for `n == 0`).
pub(crate) fn next_power_of_two(n: usize) -> usize {
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
/// the recomputing oracle `fft_in_place_naive` — which is what keeps every
/// cached==naive model-equality assert in the workspace bitwise.
///
/// All stages are flattened into one buffer per part — the factors are
/// stored split, real parts in `re[]` and imaginary parts in `im[]`, like
/// the data they multiply; stage `len` starts at offset `len/2 - 1` (the
/// stage sizes `1 + 2 + … + len/4` telescope), for `n - 1` factors in total.
///
/// Beside the twiddles the table holds the other thing that depends on `n`
/// alone: the bit-reversal permutation of `0..n` the transform opens with,
/// built by the very carry-chain loop `fft_in_place_naive` runs per
/// transform, so the two cannot disagree.
#[derive(Debug)]
pub(crate) struct TwiddleTable {
    n: usize,
    re: Vec<f64>,
    im: Vec<f64>,
    /// `bit_reversal[i]` is `i` with its `log2(n)` bits reversed.
    bit_reversal: Vec<u32>,
}

impl TwiddleTable {
    /// Builds the table for FFT length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        let mut re = Vec::with_capacity(n.saturating_sub(1));
        let mut im = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            // Same per-stage recurrence as the seed FFT's inner loop.
            let wlen = stage_root(len);
            let mut w = Complex::from_real(1.0);
            for _ in 0..len / 2 {
                re.push(w.re);
                im.push(w.im);
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
            re,
            im,
            bit_reversal,
        }
    }

    /// The FFT length this table serves.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// The twiddles of the stage with butterfly span `len` (a power of two
    /// in `2..=self.len()`): `len / 2` real parts and as many imaginary parts.
    #[inline]
    fn stage(&self, len: usize) -> (&[f64], &[f64]) {
        let stage = len / 2 - 1..len - 1;
        (&self.re[stage.clone()], &self.im[stage])
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
pub(crate) fn twiddle_table(n: usize) -> Arc<TwiddleTable> {
    const SLOTS: usize = usize::BITS as usize;
    static TABLES: [OnceLock<Arc<TwiddleTable>>; SLOTS] = [const { OnceLock::new() }; SLOTS];
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    Arc::clone(TABLES[n.trailing_zeros() as usize].get_or_init(|| Arc::new(TwiddleTable::new(n))))
}

/// In-place iterative radix-2 FFT of the split-complex signal `re[] + i·im[]`,
/// driven by the process-wide twiddle cache.
///
/// Bit-identical to the recomputing oracle `fft_in_place_naive` on the same
/// values interleaved: the cached table is produced by the same recurrence
/// the oracle evaluates inline, and a butterfly performs the oracle's float
/// operations in the oracle's order. The layout is the only difference — with
/// real and imaginary parts in separate slices a complex multiply needs no
/// shuffle, so the butterfly loop vectorises at whatever width the target
/// has, and no vector width changes what one lane computes.
///
/// # Panics
///
/// Panics if the slices differ in length or the length is not a power of
/// two (use [`next_power_of_two`] and zero-padding to prepare inputs).
pub(crate) fn fft_in_place(re: &mut [f64], im: &mut [f64]) {
    let n = re.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    fft_in_place_with(re, im, &twiddle_table(n));
}

/// In-place FFT against a caller-held twiddle table (one lock-free lookup
/// per transform — the batched path fetches the table once per component).
///
/// # Panics
///
/// Panics if `re.len()` or `im.len()` differs from the table's length.
pub(crate) fn fft_in_place_with(re: &mut [f64], im: &mut [f64], table: &TwiddleTable) {
    let first_len = head_stages(re, im, table);
    // Bit-reversal permutation, read off the table.
    for (i, &j) in table.bit_reversal().iter().enumerate() {
        let j = j as usize;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    butterflies_from(re, im, table, first_len, Parts::Both);
}

/// A split-complex buffer: real parts, imaginary parts.
pub(crate) type SplitMut<'a> = (&'a mut [f64], &'a mut [f64]);

/// The transform of the natural-order `src`, left in `dst`: the same
/// stages as [`fft_in_place_with`] with the permutation done as a gather
/// (indexed loads into sequential stores, cheaper than swapping in place). `src` is working memory — it holds the head stages'
/// output afterwards. With [`Parts::RealOnly`] only `dst_re` is meaningful
/// on return.
///
/// # Panics
///
/// Panics if any slice's length differs from the table's.
pub(crate) fn fft_gather(
    (src_re, src_im): SplitMut<'_>,
    (dst_re, dst_im): SplitMut<'_>,
    table: &TwiddleTable,
    parts: Parts,
) {
    let first_len = head_stages(src_re, src_im, table);
    let n = table.len();
    assert_eq!(dst_re.len(), n, "FFT length must match the twiddle table");
    assert_eq!(dst_im.len(), n, "FFT length must match the twiddle table");
    if n == 1 {
        (dst_re[0], dst_im[0]) = (src_re[0], src_im[0]);
        return;
    }
    // The source's top index bit is the destination's bottom one: slots
    // `2i` and `2i + 1` take `src[j]` and `src[j + n/2]`, so each pair of
    // loads fills one two-value store (stores are what this pass is bound
    // by) and only the even half of the permutation is read.
    let ((lo_re, hi_re), (lo_im, hi_im)) = (src_re.split_at(n / 2), src_im.split_at(n / 2));
    let slots = dst_re.chunks_exact_mut(2).zip(dst_im.chunks_exact_mut(2));
    for ((re, im), pair) in slots.zip(table.bit_reversal().chunks_exact(2)) {
        let j = pair[0] as usize;
        (re[0], re[1]) = (lo_re[j], hi_re[j]);
        (im[0], im[1]) = (lo_im[j], hi_im[j]);
    }
    butterflies_from(dst_re, dst_im, table, first_len, parts);
}

/// Which parts of the transform's output the caller reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Parts {
    /// Real and imaginary parts.
    Both,
    /// Real parts only (the correlation kernel's inverse transform): the
    /// last stage's imaginary outputs are neither computed nor stored.
    RealOnly,
}

/// The stages of span 2, 4 and 8, over data still in *natural* order;
/// returns the span of the first stage left to run once the data is
/// bit-reversed (2 when the transform is shorter than 8 and has no head).
///
/// Bit reversal sends position `8g + s` to `rev(8g) + rev(s)`, and
/// `rev(s)` for `s < 8` is a multiple of `n/8` while `rev(8g) < n/8`: the
/// eight values of a bit-reversed group sit at one offset in each of eight
/// contiguous runs of `n/8`. So the stage of span `2^t`, which in
/// bit-reversed order pairs positions `2^(t-1)` apart under twiddle `k =
/// s mod 2^(t-1)`, here splits the data into `2^(t-1)` chunks and pairs
/// each chunk's two halves, value by value, under *one* twiddle —
/// `k` being the chunk's index bit-reversed. The same butterflies as
/// `fft_in_place_naive` runs after its permutation, each on the same two
/// operands; only the loop over them is long and contiguous instead of
/// one, two or four values at a time.
fn head_stages(re: &mut [f64], im: &mut [f64], table: &TwiddleTable) -> usize {
    let n = table.len();
    assert_eq!(re.len(), n, "FFT length must match the twiddle table");
    assert_eq!(im.len(), n, "FFT length must match the twiddle table");
    if n < 8 {
        return 2;
    }
    // Span, and the twiddle of each chunk in memory order.
    const STAGES: [(usize, &[usize]); 3] = [(2, &[0]), (4, &[0, 1]), (8, &[0, 2, 1, 3])];
    for (len, twiddles) in STAGES {
        let (wr, wi) = table.stage(len);
        let chunk = 2 * n / len;
        let chunks = re.chunks_exact_mut(chunk).zip(im.chunks_exact_mut(chunk));
        for ((re, im), &k) in chunks.zip(twiddles) {
            let ((ar, br), (ai, bi)) = (re.split_at_mut(chunk / 2), im.split_at_mut(chunk / 2));
            butterfly_run(ar, ai, br, bi, wr[k], wi[k]);
        }
    }
    16
}

/// The stages of span `first_len`, `2·first_len`, …, `n` over bit-reversed
/// data that has been through every shorter stage: identical float
/// operations to the seed FFT, with the per-butterfly `w = w * wlen`
/// recurrence replaced by a table load.
fn butterflies_from(
    re: &mut [f64],
    im: &mut [f64],
    table: &TwiddleTable,
    first_len: usize,
    parts: Parts,
) {
    let n = table.len();
    let mut len = first_len;
    while len <= n {
        let half = len / 2;
        let (wr, wi) = table.stage(len);
        if len == n && parts == Parts::RealOnly {
            let (ar, br) = re.split_at_mut(half);
            butterfly_span_real(ar, br, &im[half..], wr, wi);
            return;
        }
        for (re, im) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
            let ((ar, br), (ai, bi)) = (re.split_at_mut(half), im.split_at_mut(half));
            butterfly_span(ar, ai, br, bi, wr, wi);
        }
        len <<= 1;
    }
}

/// One span of butterflies, `(a, b) ← (a + b·w, a − b·w)` value by value.
/// Six slices cut to one length up front, so the loop carries no bounds
/// check, and taken as parameters, so it knows they do not overlap: the two
/// things that let it vectorise.
#[inline]
fn butterfly_span(
    ar: &mut [f64],
    ai: &mut [f64],
    br: &mut [f64],
    bi: &mut [f64],
    wr: &[f64],
    wi: &[f64],
) {
    let half = ar.len();
    let (ai, br, bi) = (&mut ai[..half], &mut br[..half], &mut bi[..half]);
    let (wr, wi) = (&wr[..half], &wi[..half]);
    for k in 0..half {
        let vr = br[k] * wr[k] - bi[k] * wi[k];
        let vi = br[k] * wi[k] + bi[k] * wr[k];
        (ar[k], br[k]) = (ar[k] + vr, ar[k] - vr);
        (ai[k], bi[k]) = (ai[k] + vi, ai[k] - vi);
    }
}

/// [`butterfly_span`] for a head stage: every butterfly of the run shares
/// the twiddle `wr + i·wi`.
#[inline]
fn butterfly_run(ar: &mut [f64], ai: &mut [f64], br: &mut [f64], bi: &mut [f64], wr: f64, wi: f64) {
    let half = ar.len();
    let (ai, br, bi) = (&mut ai[..half], &mut br[..half], &mut bi[..half]);
    for k in 0..half {
        let vr = br[k] * wr - bi[k] * wi;
        let vi = br[k] * wi + bi[k] * wr;
        (ar[k], br[k]) = (ar[k] + vr, ar[k] - vr);
        (ai[k], bi[k]) = (ai[k] + vi, ai[k] - vi);
    }
}

/// The real half of [`butterfly_span`]: `vr` and the two real outputs,
/// computed exactly as there; `vi` and the imaginary outputs dropped.
#[inline]
fn butterfly_span_real(ar: &mut [f64], br: &mut [f64], bi: &[f64], wr: &[f64], wi: &[f64]) {
    let half = ar.len();
    let (br, bi) = (&mut br[..half], &bi[..half]);
    let (wr, wi) = (&wr[..half], &wi[..half]);
    for k in 0..half {
        let vr = br[k] * wr[k] - bi[k] * wi[k];
        (ar[k], br[k]) = (ar[k] + vr, ar[k] - vr);
    }
}

/// The seed in-place radix-2 FFT, recomputing twiddles on the fly via the
/// per-stage recurrence, on interleaved [`Complex`] values — the layout and
/// the arithmetic the reproduction started from, deliberately left as it was
/// so that the split transform is checked against code it shares nothing
/// with. Kept as the reference oracle: property tests assert
/// [`fft_in_place`] is **bitwise** equal to this across every length and on
/// hostile input.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
#[cfg(test)]
pub(crate) fn fft_in_place_naive(data: &mut [Complex]) {
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
        let wlen = stage_root(len);
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

/// In-place inverse FFT (including the `1/n` scaling), as conjugate →
/// forward transform → conjugate.
///
/// # Panics
///
/// Same as [`fft_in_place`].
pub(crate) fn ifft_in_place(re: &mut [f64], im: &mut [f64]) {
    for v in im.iter_mut() {
        *v = -*v;
    }
    fft_in_place(re, im);
    let scale = 1.0 / re.len() as f64;
    for (r, i) in re.iter_mut().zip(im.iter_mut()) {
        (*r, *i) = (*r * scale, -*i * scale);
    }
}

/// Forward FFT of a real signal, zero-padded to `padded_len` (which must be a
/// power of two at least as large as the signal): the spectrum's real and
/// imaginary parts.
///
/// # Panics
///
/// Panics if `padded_len` is smaller than `signal.len()` or not a power of
/// two.
pub(crate) fn fft_real(signal: &[f64], padded_len: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(padded_len >= signal.len(), "padded length too small");
    let mut re = signal.to_vec();
    re.resize(padded_len, 0.0);
    let mut im = vec![0.0; padded_len];
    fft_in_place(&mut re, &mut im);
    (re, im)
}

/// Full (linear) cross-correlation of `x` and `y` computed via FFT: the
/// product of `x`'s spectrum with the conjugate of `y`'s, inverted, and the
/// circular result rearranged into the linear shift layout.
///
/// The result has length `x.len() + y.len() - 1`. Index `k` corresponds to a
/// shift of `k - (y.len() - 1)` of `x` relative to `y`, i.e. the centre of
/// the output is the zero-shift correlation — the same layout as the CC
/// sequence in the k-Shape paper. The cached-spectrum kernel
/// ([`crate::spectrum::sbd_oriented`]) performs the same float operations
/// per output value without materialising the sequence, which is what keeps
/// it bit-identical to this direct path.
pub fn cross_correlation(x: &[f64], y: &[f64]) -> Vec<f64> {
    if x.is_empty() || y.is_empty() {
        return Vec::new();
    }
    let (n, m) = (x.len(), y.len());
    let fft_len = next_power_of_two(n + m - 1);
    let (xr, xi) = fft_real(x, fft_len);
    let (yr, yi) = fft_real(y, fft_len);
    let (mut re, mut im): (Vec<f64>, Vec<f64>) = (0..fft_len)
        .map(|k| spectrum_product(xr[k], xi[k], yr[k], yi[k]))
        .unzip();
    ifft_in_place(&mut re, &mut im);
    // The circular correlation places non-negative shifts at the head and
    // negative shifts at the tail; rearrange so the output runs from shift
    // -(m-1) .. (n-1) like a linear correlation.
    let mut out = re[fft_len - (m - 1)..].to_vec();
    out.extend_from_slice(&re[..n]);
    out
}

/// One value of a cross-correlation's spectrum: `a · conj(b)`, written out
/// as the interleaved seed's `Complex` multiply evaluated it.
#[inline]
pub(crate) fn spectrum_product(ar: f64, ai: f64, br: f64, bi: f64) -> (f64, f64) {
    let bi = -bi;
    (ar * br - ai * bi, ar * bi + ai * br)
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

    /// Splits interleaved values into the transform's `re[]` / `im[]` layout.
    fn split(data: &[Complex]) -> (Vec<f64>, Vec<f64>) {
        data.iter().map(|c| (c.re, c.im)).unzip()
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let (mut re, mut im) = (vec![0.0; 8], vec![0.0; 8]);
        re[0] = 1.0;
        fft_in_place(&mut re, &mut im);
        for (r, i) in re.iter().zip(im.iter()) {
            assert!((r - 1.0).abs() < 1e-12);
            assert!(i.abs() < 1e-12);
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let original: Vec<Complex> = (0..16)
            .map(|i| Complex::new(i as f64, (i * i) as f64 * 0.1))
            .collect();
        let (mut re, mut im) = split(&original);
        fft_in_place(&mut re, &mut im);
        ifft_in_place(&mut re, &mut im);
        for ((r, i), b) in re.iter().zip(im.iter()).zip(original.iter()) {
            assert!((r - b.re).abs() < 1e-9);
            assert!((i - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_parseval_energy_is_preserved() {
        let signal: Vec<f64> = (0..32).map(|i| ((i as f64) * 0.7).sin()).collect();
        let (re, im) = fft_real(&signal, 32);
        let time_energy: f64 = signal.iter().map(|v| v * v).sum();
        let freq_energy: f64 = (re.iter().zip(im.iter()))
            .map(|(&r, &i)| r * r + i * i)
            .sum::<f64>()
            / 32.0;
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

    /// Transforms `original` through the split production path — in place,
    /// gathered into a second buffer, and gathered with a real-only last
    /// stage — and through the interleaved oracle, and demands the same bits
    /// in every part the production form promises. A NaN must meet a NaN:
    /// IEEE 754 does not say which operand's sign and payload an operation
    /// on two NaNs keeps, so those bits belong to the instruction selection,
    /// not to the algorithm.
    fn assert_split_equals_oracle(original: Vec<Complex>, ctx: &str) {
        let n = original.len();
        let (mut re, mut im) = split(&original);
        let mut naive = original.clone();
        fft_in_place(&mut re, &mut im);
        fft_in_place_naive(&mut naive);
        let table = twiddle_table(n);
        let gathered = |parts: Parts| {
            let (mut src_re, mut src_im) = split(&original);
            // Stale values the gather must overwrite, every one.
            let (mut dst_re, mut dst_im) = (vec![f64::NAN; n], vec![7.0; n]);
            let (src, dst) = (
                (&mut src_re[..], &mut src_im[..]),
                (&mut dst_re[..], &mut dst_im[..]),
            );
            fft_gather(src, dst, &table, parts);
            (dst_re, dst_im)
        };
        let ((both_re, both_im), (real_re, _)) = (gathered(Parts::Both), gathered(Parts::RealOnly));
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        for (i, c) in naive.iter().enumerate() {
            assert!(same(re[i], c.re), "{ctx}: re[{i}] {} vs {}", re[i], c.re);
            assert!(same(im[i], c.im), "{ctx}: im[{i}] {} vs {}", im[i], c.im);
            assert!(same(both_re[i], c.re), "{ctx}: gathered re[{i}]");
            assert!(same(both_im[i], c.im), "{ctx}: gathered im[{i}]");
            assert!(same(real_re[i], c.re), "{ctx}: real-only re[{i}]");
        }
    }

    #[test]
    fn twiddle_cached_fft_is_bitwise_equal_to_seed_fft() {
        // Property: at every power-of-two length — 1, 2 and 4 have no head
        // stages, at 8 the head is the whole transform — and on random
        // inputs, the table-driven split FFT performs the exact float
        // operations of the seed's recomputing interleaved FFT — bitwise,
        // not approximately.
        for exp in 0..=12usize {
            let n = 1usize << exp;
            for seed in 0..4u64 {
                let original = random_complex(n, seed.wrapping_mul(0x9E37) + exp as u64 + 1);
                // The forward transform's shape too: a real signal over the
                // head, zeros behind it and in every imaginary part.
                let padded_real = (original.iter().enumerate())
                    .map(|(i, c)| Complex::from_real(if i <= n / 2 { c.re } else { 0.0 }))
                    .collect();
                assert_split_equals_oracle(original, &format!("n={n} seed={seed}"));
                assert_split_equals_oracle(padded_real, &format!("n={n} seed={seed}, real"));
            }
        }
    }

    #[test]
    fn split_fft_equals_seed_fft_on_hostile_input() {
        // Values a scrape can deliver or an upstream division can produce;
        // every length sees each of them in a real and an imaginary part.
        let hostile = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 1024.0,
            f64::MAX,
        ];
        for exp in 0..=12usize {
            let n = 1usize << exp;
            for (h, &value) in hostile.iter().enumerate() {
                let mut planted = random_complex(n, (exp * 16 + h) as u64 + 99);
                planted[h % n].re = value;
                planted[(3 * h + 1) % n].im = value;
                assert_split_equals_oracle(planted, &format!("n={n} planted {value:e}"));
                // The tiny and the signed-zero ends of the range, everywhere.
                let mut faint = random_complex(n, (exp * 16 + h) as u64 + 7);
                for (i, c) in faint.iter_mut().enumerate() {
                    let tiny = f64::MIN_POSITIVE * c.re / 64.0;
                    *c = Complex::new(tiny, if i % 3 == 0 { -0.0 } else { value * 0.0 });
                }
                assert_split_equals_oracle(faint, &format!("n={n} faint around {value:e}"));
            }
        }
    }

    #[test]
    fn stage_roots_are_within_one_ulp_of_libm() {
        for (index, &(re, im)) in STAGE_ROOTS.iter().enumerate() {
            let len = 1u64 << (index + 1);
            let theta = -2.0 * std::f64::consts::PI / len as f64;
            for (tabled, libm) in [(re, theta.cos()), (im, theta.sin())] {
                assert_eq!(tabled.signum(), libm.signum(), "len=2^{}", index + 1);
                let ulps = tabled.to_bits().abs_diff(libm.to_bits());
                assert!(ulps <= 1, "len=2^{}: {tabled:e} vs {libm:e}", index + 1);
            }
            assert_eq!(stage_root(len as usize), Complex::new(re, im));
        }
    }

    #[test]
    fn twiddle_table_matches_seed_recurrence() {
        let n = 64;
        let table = TwiddleTable::new(n);
        assert_eq!(table.len(), n);
        let mut len = 2;
        while len <= n {
            let wlen = stage_root(len);
            let mut w = Complex::from_real(1.0);
            let (re, im) = table.stage(len);
            assert_eq!((re.len(), im.len()), (len / 2, len / 2));
            for (k, (tr, ti)) in re.iter().zip(im.iter()).enumerate() {
                assert_eq!(tr.to_bits(), w.re.to_bits(), "len={len} k={k}");
                assert_eq!(ti.to_bits(), w.im.to_bits(), "len={len} k={k}");
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
    fn complex_arithmetic_identities() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a + b, Complex::new(-2.0, 2.5));
        assert_eq!(a - b, Complex::new(4.0, 1.5));
        let prod = a * b;
        assert!((prod.re - (-4.0)).abs() < 1e-12);
        assert!((prod.im - (-5.5)).abs() < 1e-12);
    }
}
