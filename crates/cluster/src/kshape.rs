//! The k-Shape clustering algorithm (Paparrizos & Gravano, SIGMOD 2015/2016),
//! as used by Sieve to group similar-behaving metrics of a component.
//!
//! k-Shape alternates between
//!
//! * an **assignment step** that places each (z-normalized) time series into
//!   the cluster whose centroid has the smallest shape-based distance
//!   ([`sieve_timeseries::sbd`]), and
//! * a **refinement step** ("shape extraction") that recomputes each cluster
//!   centroid as the series maximising the squared normalized
//!   cross-correlation to all members — the dominant eigenvector of
//!   `Q^T S Q`, where `S` is the sum of outer products of the aligned members
//!   and `Q` the centering projection. We find that eigenvector with power
//!   iteration using implicit matrix-vector products, so no `m × m` matrix is
//!   ever materialised.
//!
//! The algorithm stops when the assignment no longer changes or after
//! `max_iterations`.

use crate::distance::compute_spectra;
use crate::{ClusterError, Result};
use sieve_timeseries::normalize::{z_normalize, z_normalize_into};
use sieve_timeseries::sbd::{align_to, apply_shift, shape_based_distance};
use sieve_timeseries::spectrum::{
    sbd_lower_bound, sbd_oriented, OrientedSbd, SbdScratch, SeriesSpectrum,
};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Configuration of a k-Shape run.
#[derive(Debug, Clone, PartialEq)]
pub struct KShapeConfig {
    /// Number of clusters `k`.
    pub k: usize,
    /// Maximum number of assignment/refinement iterations.
    pub max_iterations: usize,
    /// Number of power-iteration steps used during shape extraction.
    pub power_iterations: usize,
    /// Optional initial assignment (e.g. from name-similarity pre-clustering,
    /// see [`crate::jaro::pre_cluster_names`]). When `None`, a deterministic
    /// round-robin assignment is used.
    pub initial_assignment: Option<Vec<usize>>,
}

impl KShapeConfig {
    /// Creates a configuration with `k` clusters and default iteration limits
    /// (100 k-Shape iterations, 50 power iterations).
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iterations: 100,
            power_iterations: 50,
            initial_assignment: None,
        }
    }

    /// Sets the initial assignment (builder style).
    pub fn with_initial_assignment(mut self, assignment: Vec<usize>) -> Self {
        self.initial_assignment = Some(assignment);
        self
    }

    /// Sets the maximum number of iterations (builder style).
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Validates the configured initial assignment against `n` series (and
    /// `self.k` clusters), or produces the deterministic round-robin
    /// default. Shared by [`KShape::fit`] and [`KShape::fit_cached`].
    fn initial_labels(&self, n: usize) -> Result<Vec<usize>> {
        let k = self.k;
        match &self.initial_assignment {
            Some(init) => {
                if init.len() != n {
                    return Err(ClusterError::InvalidInitialAssignment {
                        reason: format!("expected {} labels, got {}", n, init.len()),
                    });
                }
                if let Some(&bad) = init.iter().find(|&&c| c >= k) {
                    return Err(ClusterError::InvalidInitialAssignment {
                        reason: format!("cluster index {bad} out of range for k={k}"),
                    });
                }
                Ok(init.clone())
            }
            None => Ok((0..n).map(|i| i % k).collect()),
        }
    }
}

/// Outcome of a k-Shape run.
#[derive(Debug, Clone, PartialEq)]
pub struct KShapeResult {
    /// Cluster index (in `0..k`) for every input series.
    pub assignments: Vec<usize>,
    /// The k cluster centroids (z-normalized shapes of the input length).
    pub centroids: Vec<Vec<f64>>,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Whether the assignment converged before hitting `max_iterations`.
    pub converged: bool,
}

impl KShapeResult {
    /// Returns the member indices of cluster `c`.
    pub fn members_of(&self, c: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == c)
            .map(|(i, _)| i)
            .collect()
    }
}

/// State shared across k-Shape runs over the same series: the z-normalized
/// copy of every input series, the cached FFT spectrum of each copy, and
/// three memos of what fits over the cache have computed so far — every
/// cluster refinement, every first-member alignment shift, and every
/// aligned member with its spectrum.
///
/// k selection fits the same series for every candidate `k`; building one
/// cache and passing it to [`KShape::fit_cached`] for each `k` computes the
/// n z-normalizations and n forward FFTs once instead of once per `k`, and
/// refines each distinct `(members, shifts)` cluster once per sweep — a fit
/// that cycles, or that meets a cluster an earlier `k` already refined, pays
/// a map lookup. The refinements that *are* performed share their pieces:
/// a fit's first iteration aligns each cluster to its first member, and the
/// pair `(first member, member)` recurs across `k` and across clusters; a
/// member shifted by `s` and z-normalized is the same vector, with the same
/// spectrum, in every cluster and iteration that aligns it so. The memos
/// hold one centroid and one n-cell column per refinement performed, one
/// `n × n` table of shifts, and one series-length copy plus spectrum per
/// distinct `(series, shift)`; all are dropped with the cache.
///
/// A refinement's column is *lazy*: each cell starts as a spectral lower
/// bound on its distance and becomes the kernel's `(distance, shift)` only
/// when an assignment step cannot rule it out (see [`KShape::fit_cached`]).
#[derive(Debug, Clone)]
pub struct KShapeSeriesCache {
    /// z-normalized copies of the input series, packed end to end in one
    /// contiguous columnar arena of `count × series_len` values. Series `i`
    /// occupies `z_buffer[i * series_len..(i + 1) * series_len]`; the packing
    /// keeps the refinement loops walking sequential memory instead of
    /// chasing one heap allocation per series.
    z_buffer: Vec<f64>,
    /// Length of each (rectangular) series.
    series_len: usize,
    /// Number of cached series.
    count: usize,
    /// Spectra of the z-normalized copies.
    spectra: Vec<SeriesSpectrum>,
    /// [`SeriesSpectrum::unit_magnitudes`] of every entry of `spectra`,
    /// packed end to end like `z_buffer`: what a new refinement bounds its
    /// column from.
    magnitudes: Vec<f64>,
    /// Every refinement fits over this cache have performed, in the order
    /// they were; a running fit names its current centroids by index.
    refinements: Vec<Refinement>,
    /// The index in `refinements` of each one's whole input
    /// `(power_iterations, members, shifts)`.
    refined: HashMap<RefinementInput, usize>,
    /// Refinements answered from `refined`; see
    /// [`KShapeSeriesCache::refinements_reused`].
    refinements_reused: u64,
    /// SBD evaluations (one inverse FFT each) issued by fits over this
    /// cache; see [`KShapeSeriesCache::sbd_evaluations`].
    sbd_evaluations: u64,
    /// Spectral lower bounds computed for new columns; see
    /// [`KShapeSeriesCache::bounds_computed`].
    bounds_computed: u64,
    /// `first_shifts[r * count + i]` is the shift aligning series `i` to
    /// series `r`, once a fit's first iteration has evaluated it.
    first_shifts: Vec<Option<isize>>,
    /// First-member alignments answered from `first_shifts`.
    alignments_reused: u64,
    /// Every aligned member refinements have built, in the order they did.
    aligned: Vec<AlignedMember>,
    /// The index in `aligned` of each `(series, shift)`.
    aligned_index: HashMap<(usize, isize), usize>,
    /// Aligned members answered from `aligned`.
    aligned_spectra_reused: u64,
    /// Power-iteration steps refinements over this cache have taken; see
    /// [`KShapeSeriesCache::power_steps`].
    power_steps: u64,
    /// Forward transforms fits over this cache have issued; see
    /// [`KShapeSeriesCache::spectra_computed`].
    spectra_computed: u64,
    /// Of those, the centroid spectra rebuilt: a fit that takes a centroid
    /// from the memo holds no spectrum for it, and transforms it again the
    /// first time one of its cells needs the kernel.
    spectra_rebuilt: u64,
    /// The power iteration's deterministic start vector at this series
    /// length, built once for every refinement over the cache.
    start: Vec<f64>,
}

/// The whole input of one cluster refinement: the power-iteration count,
/// the members, and each member's shift aligning it to the previous
/// centroid.
type RefinementInput = (usize, Vec<usize>, Vec<isize>);

/// What refining one cluster produces.
#[derive(Debug, Clone)]
struct Refinement {
    centroid: Vec<f64>,
    /// What is known of every cached series' distance to `centroid`. `None`
    /// when the centroid is the zero vector: every distance to it is the
    /// constant 2.0 — the maximal one — and no shift is ever read from it.
    column: Option<Vec<Cell>>,
}

/// One cell of a refinement's distance column: the shape-based distance of
/// one cached series to the refinement's centroid, as far as a fit has
/// needed to know it. A cell only ever moves from `AtLeast` to `Exact`, both
/// are pure functions of the pair, and the memo keeps them for every later
/// iteration and every other `k`.
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// Not evaluated: the distance is at least this
    /// ([`sbd_lower_bound`], up to rounding — see [`BOUND_MARGIN`]). Every
    /// assignment step so far has ruled the cell out on that alone.
    AtLeast(f64),
    /// The kernel's `(distance, shift)`.
    Exact(f64, isize),
}

/// How far above a row's best distance a cell's lower bound must lie for
/// the assignment step to skip the cell. The bound and the kernel's
/// distance are each within ~1e-13 of the real numbers they stand for (a
/// 257-term dot product on one side, a 512-point transform on the other;
/// the bound is seen above the distance only where both are ≈ 0 — a series
/// against its own multiple — and then by ~1e-15), so a skipped cell's
/// distance is strictly greater than the best and could neither win the
/// `argmin` nor tie it. A constant, not a setting: no input needs another
/// value.
const BOUND_MARGIN: f64 = 1e-9;

/// A running fit's hold on one cluster's current centroid.
struct CurrentCentroid {
    /// Index into [`KShapeSeriesCache::refinements`].
    refinement: usize,
    /// The centroid's spectrum, for the cells the fit still evaluates: the
    /// refinement that computed it hands it over, a memo hit rebuilds it
    /// (same input, same bits) if and when a cell needs the kernel. Held
    /// per running fit, not per memoised refinement — `k` spectra, not one
    /// for each of a sweep's thousand refinements.
    spectrum: Option<SeriesSpectrum>,
}

/// One cached series shifted and z-normalized again — a row of a
/// refinement's aligned-member matrix — with the spectrum the orientation
/// check compares the candidate centroid against.
#[derive(Debug, Clone)]
struct AlignedMember {
    values: Vec<f64>,
    spectrum: SeriesSpectrum,
}

impl KShapeSeriesCache {
    /// Builds the cache: z-normalizes every series and computes its
    /// spectrum.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::NoData`] when `series` is empty or the series
    ///   length is zero.
    /// * [`ClusterError::InconsistentLengths`] when the series lengths
    ///   differ.
    pub fn new<S: AsRef<[f64]>>(series: &[S]) -> Result<Self> {
        Self::new_parallel(series, 1)
    }

    /// Like [`KShapeSeriesCache::new`], but distributes the z-normalizations
    /// and forward FFTs over up to `workers` threads (the cache is identical
    /// for every worker count).
    ///
    /// # Errors
    ///
    /// Same as [`KShapeSeriesCache::new`].
    pub fn new_parallel<S: AsRef<[f64]>>(series: &[S], workers: usize) -> Result<Self> {
        if series.is_empty() || series[0].as_ref().is_empty() {
            return Err(ClusterError::NoData);
        }
        let m = series[0].as_ref().len();
        for (i, s) in series.iter().enumerate() {
            if s.as_ref().len() != m {
                return Err(ClusterError::InconsistentLengths {
                    expected: m,
                    index: i,
                    actual: s.as_ref().len(),
                });
            }
        }
        let refs: Vec<&[f64]> = series.iter().map(|s| s.as_ref()).collect();
        // Each worker z-normalizes a contiguous group of series straight
        // into a packed sub-buffer; the group buffers concatenate into one
        // columnar arena. `z_normalize_into` is bit-identical to
        // `z_normalize`, so the cache contents do not depend on the worker
        // count or the grouping.
        let chunk = refs.len().div_ceil(workers.max(1)).max(1);
        let groups: Vec<&[&[f64]]> = refs.chunks(chunk).collect();
        let packed: Vec<Vec<f64>> = sieve_exec::par_map_chunks(workers, &groups, |group| {
            let mut buf = vec![0.0; group.len() * m];
            for (s, out) in group.iter().zip(buf.chunks_exact_mut(m)) {
                z_normalize_into(s, out);
            }
            buf
        });
        let z_buffer = packed.concat();
        let views: Vec<&[f64]> = z_buffer.chunks_exact(m).collect();
        let spectra = compute_spectra(&views, workers)?;
        let magnitudes = spectra.iter().flat_map(|s| s.unit_magnitudes()).collect();
        Ok(Self {
            z_buffer,
            series_len: m,
            count: refs.len(),
            spectra,
            magnitudes,
            refinements: Vec::new(),
            refined: HashMap::new(),
            refinements_reused: 0,
            sbd_evaluations: 0,
            bounds_computed: 0,
            first_shifts: vec![None; refs.len() * refs.len()],
            alignments_reused: 0,
            aligned: Vec::new(),
            aligned_index: HashMap::new(),
            aligned_spectra_reused: 0,
            power_steps: 0,
            spectra_computed: 0,
            spectra_rebuilt: 0,
            start: start_vector(m),
        })
    }

    /// Number of cached series.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the cache holds zero series.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Length of each (rectangular) series.
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// The z-normalized copy of series `i` — a view into the contiguous
    /// columnar arena.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn series(&self, i: usize) -> &[f64] {
        let start = i * self.series_len;
        &self.z_buffer[start..start + self.series_len]
    }

    /// Total number of shape-based distance evaluations — one inverse FFT
    /// each — that completed [`KShape::fit_cached`] runs over this cache
    /// have issued. A deterministic measure of the work the fits did: an
    /// iteration that recomputed every alignment, orientation and distance
    /// column would cost `n·k + 3n` of them; a refinement actually performed
    /// costs its cluster's size plus the cells of its `n`-cell column the
    /// spectral bound could not rule out
    /// (`n −` its share of [`KShapeSeriesCache::cells_ruled_out`]), a reused
    /// one none, and a first-member alignment one the first time its pair
    /// is met.
    pub fn sbd_evaluations(&self) -> u64 {
        self.sbd_evaluations
    }

    /// Number of spectral lower bounds ([`sbd_lower_bound`], ~90 ns against
    /// an evaluation's microseconds) computed: one per cell of every
    /// non-zero centroid's column, when its refinement is performed — never
    /// again for that `(refinement, series)`, whatever the iteration or `k`.
    pub fn bounds_computed(&self) -> u64 {
        self.bounds_computed
    }

    /// Number of column cells, over all refinements performed, that still
    /// hold only their bound: every assignment step that met one ruled it
    /// out without the kernel. Evaluating every cell, as [`KShape::fit`]
    /// does, would have cost exactly this many more
    /// [`KShapeSeriesCache::sbd_evaluations`].
    pub fn cells_ruled_out(&self) -> u64 {
        let columns = self.refinements.iter().filter_map(|r| r.column.as_ref());
        columns
            .flatten()
            .filter(|cell| matches!(cell, Cell::AtLeast(_)))
            .count() as u64
    }

    /// Number of cluster refinements (alignment, power iteration,
    /// orientation check and distance column) performed over this cache —
    /// one per distinct `(power_iterations, members, shifts)` input, which
    /// is also the number of entries the memo holds.
    pub fn refinements(&self) -> u64 {
        self.refined.len() as u64
    }

    /// Number of refinements answered from the memo instead: the input had
    /// already been refined by an earlier iteration of the same fit or by a
    /// fit for another `k`.
    pub fn refinements_reused(&self) -> u64 {
        self.refinements_reused
    }

    /// Number of distinct first-member alignments `(first member, member)`
    /// evaluated — what a fit's first iteration needs to form the memo key
    /// of each cluster that has no centroid yet.
    pub fn alignments(&self) -> u64 {
        self.first_shifts.iter().flatten().count() as u64
    }

    /// Number of first-member alignments read back instead: the pair had
    /// been aligned for another cluster or another `k`.
    pub fn alignments_reused(&self) -> u64 {
        self.alignments_reused
    }

    /// Number of distinct `(series, shift)` aligned members — one shifted,
    /// z-normalized copy and one forward FFT each — refinements over this
    /// cache have built.
    pub fn aligned_spectra(&self) -> u64 {
        self.aligned.len() as u64
    }

    /// Number of aligned members a refinement read back instead of
    /// building.
    pub fn aligned_spectra_reused(&self) -> u64 {
        self.aligned_spectra_reused
    }

    /// Total power-iteration steps the refinements performed over this
    /// cache have taken. A refinement may take `power_iterations` of them;
    /// it takes fewer when its iterate recurs (see [`KShape::fit_cached`]).
    pub fn power_steps(&self) -> u64 {
        self.power_steps
    }

    /// Number of forward transforms completed fits over this cache have
    /// issued: one per aligned member built
    /// ([`KShapeSeriesCache::aligned_spectra`]), one per refinement
    /// performed for its centroid — a centroid the orientation check flips
    /// takes the upright spectrum negated ([`SeriesSpectrum::negated`]),
    /// not a second transform — and one per centroid spectrum a memo hit
    /// rebuilt: a fit that takes a centroid from the memo holds no spectrum
    /// for it, and transforms it again the first time one of its cells needs
    /// the kernel.
    pub fn spectra_computed(&self) -> u64 {
        self.spectra_computed
    }

    /// The distance of series `i` to a cluster's `current` centroid — or
    /// `None` when the cell's lower bound lies more than [`BOUND_MARGIN`]
    /// above `best`, so the distance cannot be the row's minimum and is not
    /// evaluated. A cell evaluated here is exact from now on. A NaN bound
    /// (a constant or non-finite operand) compares false and is evaluated.
    fn distance_unless_ruled_out(
        &mut self,
        current: &mut Option<CurrentCentroid>,
        i: usize,
        best: f64,
        sbd: &mut CountedSbd,
    ) -> Result<Option<f64>> {
        // The zero vector, as initialised or as refined: maximal distance,
        // so the cluster only attracts members when every other option is
        // worse.
        let Some(current) = current else {
            return Ok(Some(2.0));
        };
        let Refinement { centroid, column } = &mut self.refinements[current.refinement];
        let Some(column) = column else {
            return Ok(Some(2.0));
        };
        match column[i] {
            Cell::Exact(distance, _) => Ok(Some(distance)),
            Cell::AtLeast(bound) if bound > best + BOUND_MARGIN => Ok(None),
            Cell::AtLeast(_) => {
                let spectrum = match &mut current.spectrum {
                    Some(held) => held,
                    vacant => {
                        sbd.rebuilds += 1;
                        vacant.insert(sbd.spectrum(centroid)?)
                    }
                };
                let evaluated = sbd.eval(spectrum, &self.spectra[i])?.sbd;
                column[i] = Cell::Exact(evaluated.distance, evaluated.shift);
                Ok(Some(evaluated.distance))
            }
        }
    }
}

/// The SBD kernel's scratch and counts of the evaluations and forward
/// transforms run through it.
#[derive(Default)]
struct CountedSbd {
    scratch: SbdScratch,
    evaluations: u64,
    spectra: u64,
    /// Of `spectra`, the centroid spectra rebuilt for memo hits.
    rebuilds: u64,
}

impl CountedSbd {
    /// The spectrum of `values`, built in the kernel's scratch: one counted
    /// forward transform.
    fn spectrum(&mut self, values: &[f64]) -> Result<SeriesSpectrum> {
        self.spectra += 1;
        Ok(SeriesSpectrum::compute_with(values, &mut self.scratch)?)
    }

    /// One counted SBD evaluation of `x` against `y`.
    fn eval(&mut self, x: &SeriesSpectrum, y: &SeriesSpectrum) -> Result<OrientedSbd> {
        self.evaluations += 1;
        Ok(sbd_oriented(x, y, &mut self.scratch)?)
    }
}

/// The k-Shape clustering algorithm.
#[derive(Debug, Clone)]
pub struct KShape {
    config: KShapeConfig,
}

impl KShape {
    /// Creates a new k-Shape instance with the given configuration.
    pub fn new(config: KShapeConfig) -> Self {
        Self { config }
    }

    /// The configuration this instance runs with.
    pub fn config(&self) -> &KShapeConfig {
        &self.config
    }

    /// Clusters `series` into `k` groups.
    ///
    /// All series must have the same, non-zero length. Inputs are
    /// z-normalized internally, so amplitude differences between metrics do
    /// not matter. The input is generic over anything slice-like
    /// (`Vec<f64>`, `&[f64]`, `Arc<[f64]>`, …) so callers holding shared
    /// buffers never have to copy them to cluster.
    ///
    /// This is the direct-SBD reference implementation: every distance
    /// re-z-normalizes both operands and runs three fresh FFTs. Callers that
    /// fit the same series repeatedly (the silhouette k sweep) should build
    /// a [`KShapeSeriesCache`] once and call [`KShape::fit_cached`], which
    /// produces bit-identical results from cached spectra.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::NoData`] when `series` is empty or the series length is zero.
    /// * [`ClusterError::InvalidClusterCount`] when `k` is zero or exceeds the number of series.
    /// * [`ClusterError::InconsistentLengths`] when the series lengths differ.
    /// * [`ClusterError::InvalidInitialAssignment`] when a provided initial
    ///   assignment has the wrong length or out-of-range cluster indices.
    pub fn fit<S: AsRef<[f64]>>(&self, series: &[S]) -> Result<KShapeResult> {
        let n = series.len();
        if n == 0 {
            return Err(ClusterError::NoData);
        }
        let k = self.config.k;
        if k == 0 || k > n {
            return Err(ClusterError::InvalidClusterCount {
                requested: k,
                available: n,
            });
        }
        let m = series[0].as_ref().len();
        if m == 0 {
            return Err(ClusterError::NoData);
        }
        for (i, s) in series.iter().enumerate() {
            if s.as_ref().len() != m {
                return Err(ClusterError::InconsistentLengths {
                    expected: m,
                    index: i,
                    actual: s.as_ref().len(),
                });
            }
        }

        // z-normalize all inputs once.
        let data: Vec<Vec<f64>> = series.iter().map(|s| z_normalize(s.as_ref())).collect();

        let mut assignments = self.config.initial_labels(n)?;

        let mut centroids: Vec<Vec<f64>> = vec![vec![0.0; m]; k];
        let mut iterations = 0usize;
        let mut converged = false;

        for iter in 0..self.config.max_iterations {
            iterations = iter + 1;

            // Refinement: extract the shape of every cluster.
            for (c, centroid) in centroids.iter_mut().enumerate() {
                let members: Vec<&Vec<f64>> = data
                    .iter()
                    .zip(assignments.iter())
                    .filter(|(_, &a)| a == c)
                    .map(|(s, _)| s)
                    .collect();
                if members.is_empty() {
                    continue; // keep the previous centroid
                }
                *centroid = extract_shape(&members, centroid, self.config.power_iterations)?;
            }

            // Assignment: nearest centroid under SBD.
            let mut changed = false;
            for (i, s) in data.iter().enumerate() {
                let mut best_cluster = assignments[i];
                let mut best_dist = f64::INFINITY;
                for (c, centroid) in centroids.iter().enumerate() {
                    let d = if centroid.iter().all(|&v| v == 0.0) {
                        // Uninitialised/empty centroid: maximal distance so it
                        // only attracts members when every other option is
                        // worse.
                        2.0
                    } else {
                        shape_based_distance(centroid, s)?.distance
                    };
                    if d < best_dist {
                        best_dist = d;
                        best_cluster = c;
                    }
                }
                if best_cluster != assignments[i] {
                    assignments[i] = best_cluster;
                    changed = true;
                }
            }

            if !changed {
                converged = true;
                break;
            }
        }

        Ok(KShapeResult {
            assignments,
            centroids,
            iterations,
            converged,
        })
    }

    /// Clusters the cached series, reusing the z-normalized copies, the
    /// per-series spectra and the refinement memo in [`KShapeSeriesCache`].
    ///
    /// This is the production counterpart of [`KShape::fit`], and it is
    /// **bit-identical** to it on the same series (asserted by tests): every
    /// float operation that reaches its result is one `fit` performs too; it
    /// just never performs one whose result it already holds. The one
    /// exception is the spectral lower bounds of fact 6, which `fit` never
    /// computes — they decide which distances are evaluated and never
    /// reach a result. Six facts make that exact rather than approximate:
    ///
    /// 1. *Alignment is the assignment step's own by-product.* Refining
    ///    cluster `c` aligns its members to the current centroid — the same
    ///    `SBD(centroid_c, series_i)` evaluation the previous assignment
    ///    step made. The centroid's column keeps each evaluation's
    ///    `(distance, shift)`, and refinement reads the shifts from it.
    /// 2. *A refined centroid is a pure function of which series are
    ///    members, how each is shifted and the power-iteration count* — and
    ///    each cell of its distance column a pure function of the centroid
    ///    and one series. The cache keeps one map from that input to
    ///    `(centroid, column)`, so whenever an input recurs — the previous
    ///    step's (the commonest case), an earlier lap's of a fit that
    ///    cycles, or another `k`'s fit over the same cache — both are read
    ///    back instead of recomputed. The fit still runs the same
    ///    iterations to the same verdict.
    /// 3. *Negating a centroid negates every NCC value exactly* (IEEE
    ///    arithmetic is sign-symmetric), so the orientation check reads both
    ///    candidate orientations' distances off one scan
    ///    ([`OrientedSbd::flipped_distance`]), and a flipped centroid's
    ///    spectrum is the upright one negated bin by bin
    ///    ([`SeriesSpectrum::negated`]), not a second transform.
    /// 4. *The pieces of a refinement are pure functions too*: the shift
    ///    aligning series `i` to series `r` (a fit's first iteration aligns
    ///    each cluster to its first member), and the aligned copy of series
    ///    `i` under shift `s` with its spectrum. The cache keeps both, so a
    ///    refinement that must be performed builds only the rows it is the
    ///    first to need, and a second identical fit issues no SBD
    ///    evaluation at all.
    /// 5. *A power-iteration step is a pure function of its iterate*, so
    ///    once an iterate equals an earlier one bit for bit the remaining
    ///    steps only walk that cycle; the production power iteration
    ///    returns the element the walk would end on instead of walking it.
    ///    The oracle keeps the plain loop ([`KShape::fit`] through
    ///    `extract_shape`), which is what makes every `fit_cached == fit`
    ///    assert a differential test of the early exit. Each iteration
    ///    looks all its clusters up in the memo first and refines the
    ///    misses together, their power iterations advancing in lockstep,
    ///    each doing exactly its own float operations.
    /// 6. *The assignment step needs each row's minimum, not each cell.*
    ///    `SBD(x, y) ≥ 1 − Σ_k |X_k||Y_k| / (N‖x‖‖y‖)` ([`sbd_lower_bound`]),
    ///    so a column starts as `n` bounds and a series asks the kernel for
    ///    its own cluster's cell first, then only for cells whose bound is
    ///    not more than a fixed margin (1e-9, for the rounding of either
    ///    side) above the best distance so far. A
    ///    cell ruled out is strictly greater than the row's minimum: it
    ///    could neither win nor tie, so the first-index `argmin` over the
    ///    evaluated cells is the `argmin` over all of them — and the
    ///    members of the next refinement, each its row's minimum, always
    ///    find their shifts evaluated. `fit` evaluates every cell, which
    ///    makes every `fit_cached == fit` assert a differential test of
    ///    the bound.
    ///
    /// The cache is taken by `&mut` for the memo and its counters; fits over
    /// one cache run one after another (the k sweep does).
    ///
    /// # Errors
    ///
    /// * [`ClusterError::InvalidClusterCount`] when `k` is zero or exceeds
    ///   the number of cached series.
    /// * [`ClusterError::InvalidInitialAssignment`] when a provided initial
    ///   assignment has the wrong length or out-of-range cluster indices.
    pub fn fit_cached(&self, cache: &mut KShapeSeriesCache) -> Result<KShapeResult> {
        let n = cache.len();
        let k = self.config.k;
        if k == 0 || k > n {
            return Err(ClusterError::InvalidClusterCount {
                requested: k,
                available: n,
            });
        }
        let m = cache.series_len();

        let mut assignments = self.config.initial_labels(n)?;

        // The refinement behind each cluster's current centroid; `None`
        // while that is still the zero vector every cluster starts with.
        let mut current: Vec<Option<CurrentCentroid>> = (0..k).map(|_| None).collect();
        let mut iterations = 0usize;
        let mut converged = false;
        let mut sbd = CountedSbd::default();

        for iter in 0..self.config.max_iterations {
            iterations = iter + 1;

            // Refinement: the shape of every cluster and its distance
            // column. Every cluster is looked up in the memo first; the
            // misses are then refined together, so their power iterations
            // can advance in lockstep.
            let mut misses: Vec<(usize, RefinementInput)> = Vec::new();
            for (c, slot) in current.iter_mut().enumerate() {
                let members: Vec<usize> = (0..n).filter(|&i| assignments[i] == c).collect();
                if members.is_empty() {
                    continue; // keep the previous centroid
                }
                let column = (slot.as_ref())
                    .and_then(|held| cache.refinements[held.refinement].column.as_ref());
                let shifts: Vec<isize> = match column {
                    // Each member was assigned here as its row's minimum,
                    // which is always an evaluated cell.
                    Some(column) => (members.iter())
                        .map(|&i| match column[i] {
                            Cell::Exact(_, shift) => shift,
                            Cell::AtLeast(_) => unreachable!("a member's cell was evaluated"),
                        })
                        .collect(),
                    // No centroid yet: align to the first member. `fit`
                    // takes the spectrum of that member's z-normalized
                    // copy as reference — exactly the cached one.
                    None => {
                        let first = members[0];
                        let mut shifts = Vec::with_capacity(members.len());
                        for &i in &members {
                            let known = &mut cache.first_shifts[first * n + i];
                            shifts.push(match *known {
                                Some(shift) => {
                                    cache.alignments_reused += 1;
                                    shift
                                }
                                None => {
                                    let evaluated =
                                        sbd.eval(&cache.spectra[first], &cache.spectra[i])?;
                                    *known.insert(evaluated.sbd.shift)
                                }
                            });
                        }
                        shifts
                    }
                };
                let input = (self.config.power_iterations, members, shifts);
                match cache.refined.get(&input) {
                    Some(&refinement) => {
                        cache.refinements_reused += 1;
                        *slot = Some(CurrentCentroid {
                            refinement,
                            spectrum: None,
                        });
                    }
                    None => misses.push((c, input)),
                }
            }
            // An iteration's clusters have disjoint members, so no two
            // misses share an input: refining them together fills the memo
            // exactly as refining each on its own turn would.
            let inputs: Vec<&RefinementInput> = misses.iter().map(|(_, input)| input).collect();
            let refined = refine_centroids(cache, &inputs, &mut sbd)?;
            for ((c, input), (centroid, spectrum)) in misses.into_iter().zip(refined) {
                // One centroid spectrum — the one the orientation check
                // already used — bounds all n cells now and serves the ones
                // evaluated later.
                let column = if centroid.iter().all(|&v| v == 0.0) {
                    None
                } else {
                    let centroid_magnitudes = spectrum.unit_magnitudes();
                    cache.bounds_computed += n as u64;
                    let bounds = (cache.magnitudes)
                        .chunks_exact(centroid_magnitudes.len())
                        .map(|series| Cell::AtLeast(sbd_lower_bound(&centroid_magnitudes, series)));
                    Some(bounds.collect())
                };
                let refinement = cache.refinements.len();
                cache.refinements.push(Refinement { centroid, column });
                cache.refined.insert(input, refinement);
                current[c] = Some(CurrentCentroid {
                    refinement,
                    spectrum: Some(spectrum),
                });
            }

            // Assignment: nearest centroid under SBD, first index on a tie.
            // Each series asks for its own cluster's cell first — whatever
            // the bound says, so the row has a minimum — then for the
            // others in index order; a cell ruled out is strictly above the
            // best so far, hence above the row's minimum, and the nearest
            // of the cells evaluated is the nearest of them all.
            let mut changed = false;
            for (i, assigned) in assignments.iter_mut().enumerate() {
                let own = *assigned;
                let (mut best_dist, mut best_cluster) = (f64::INFINITY, own);
                for c in std::iter::once(own).chain((0..k).filter(|&c| c != own)) {
                    let cell =
                        cache.distance_unless_ruled_out(&mut current[c], i, best_dist, &mut sbd)?;
                    let Some(d) = cell else { continue };
                    if d < best_dist || (d == best_dist && c < best_cluster) {
                        best_dist = d;
                        best_cluster = c;
                    }
                }
                if best_cluster != own {
                    *assigned = best_cluster;
                    changed = true;
                }
            }

            if !changed {
                converged = true;
                break;
            }
        }
        cache.sbd_evaluations += sbd.evaluations;
        cache.spectra_computed += sbd.spectra;
        cache.spectra_rebuilt += sbd.rebuilds;

        let centroids = (current.iter())
            .map(|slot| match slot {
                Some(held) => cache.refinements[held.refinement].centroid.clone(),
                None => vec![0.0; m],
            })
            .collect();
        Ok(KShapeResult {
            assignments,
            centroids,
            iterations,
            converged,
        })
    }
}

/// Shape extraction: computes the centroid of a cluster as the dominant
/// eigenvector of the centred correlation matrix of the members aligned to
/// the previous centroid.
///
/// # Errors
///
/// Propagates time-series errors from the alignment step (only possible for
/// empty inputs, which callers exclude).
fn extract_shape(
    members: &[&Vec<f64>],
    previous_centroid: &[f64],
    power_iterations: usize,
) -> Result<Vec<f64>> {
    let m = members[0].len();

    // Reference for alignment: previous centroid, or the first member if the
    // centroid is still the zero vector.
    let reference: Vec<f64> = if previous_centroid.iter().all(|&v| v == 0.0) {
        members[0].clone()
    } else {
        previous_centroid.to_vec()
    };

    // Align every member to the reference and z-normalize.
    let mut aligned: Vec<Vec<f64>> = Vec::with_capacity(members.len());
    for s in members {
        let a = align_to(&reference, s)?;
        aligned.push(z_normalize(&a));
    }

    let candidate = match power_iterate_shape(&aligned, m, power_iterations) {
        ShapeCandidate::Degenerate(centroid) => return Ok(centroid),
        ShapeCandidate::Candidate(candidate) => candidate,
    };

    // The eigenvector's sign is arbitrary; pick the orientation closer to the
    // cluster members.
    let centroid = candidate;
    let flipped: Vec<f64> = centroid.iter().map(|x| -x).collect();
    let dist = |c: &[f64]| -> f64 {
        aligned
            .iter()
            .map(|a| {
                shape_based_distance(c, a)
                    .map(|r| r.distance)
                    .unwrap_or(2.0)
            })
            .sum()
    };
    if dist(&flipped) < dist(&centroid) {
        Ok(flipped)
    } else {
        Ok(centroid)
    }
}

/// The cached counterpart of [`extract_shape`], bit-identical to it, for
/// every input an iteration's memo lookups missed: the centroid of each
/// cluster with the given `(power_iterations, members, shifts)`, the shifts
/// being each member's alignment to the previous centroid (which therefore
/// need not be passed), and the centroid's spectrum, which the caller's
/// distance column needs next. The inputs' power iterations run together
/// ([`power_iterate_lockstep`]).
///
/// # Errors
///
/// Propagates time-series errors from the spectrum computations (only
/// possible for empty inputs, which callers exclude).
fn refine_centroids(
    cache: &mut KShapeSeriesCache,
    inputs: &[&RefinementInput],
    sbd: &mut CountedSbd,
) -> Result<Vec<(Vec<f64>, SeriesSpectrum)>> {
    // Align every member and z-normalize — unless a refinement over this
    // cache already has.
    let mut held: Vec<Vec<usize>> = Vec::with_capacity(inputs.len());
    for (_, members, shifts) in inputs {
        let mut rows = Vec::with_capacity(members.len());
        for (&i, &shift) in members.iter().zip(shifts.iter()) {
            rows.push(match cache.aligned_index.entry((i, shift)) {
                Entry::Occupied(known) => {
                    cache.aligned_spectra_reused += 1;
                    *known.get()
                }
                Entry::Vacant(new) => {
                    let series = &cache.z_buffer[i * cache.series_len..][..cache.series_len];
                    let values = z_normalize(&apply_shift(series, shift));
                    let spectrum = sbd.spectrum(&values)?;
                    cache.aligned.push(AlignedMember { values, spectrum });
                    *new.insert(cache.aligned.len() - 1)
                }
            });
        }
        held.push(rows);
    }

    let rows: Vec<Vec<&[f64]>> = (held.iter())
        .map(|rows| rows.iter().map(|&a| &cache.aligned[a].values[..]).collect())
        .collect();
    let walks: Vec<(&[&[f64]], usize)> = (rows.iter().zip(inputs))
        .map(|(rows, (power_iterations, _, _))| (&rows[..], *power_iterations))
        .collect();
    let shapes = power_iterate_lockstep(&walks, &cache.start);

    let mut refined = Vec::with_capacity(inputs.len());
    for (rows, (shape, steps)) in held.iter().zip(shapes) {
        cache.power_steps += steps as u64;
        let centroid = match shape {
            ShapeCandidate::Degenerate(centroid) => {
                let spectrum = sbd.spectrum(&centroid)?;
                refined.push((centroid, spectrum));
                continue;
            }
            ShapeCandidate::Candidate(candidate) => candidate,
        };
        // The eigenvector's sign is arbitrary; pick the orientation closer
        // to the cluster members. One scan per member yields its distance
        // to both orientations, and the flipped centroid's spectrum is the
        // upright one negated: no SBD output can tell it from a transform
        // of the flipped values.
        let centroid_spectrum = sbd.spectrum(&centroid)?;
        let distances: Vec<OrientedSbd> = (rows.iter())
            .map(|&a| sbd.eval(&centroid_spectrum, &cache.aligned[a].spectrum))
            .collect::<Result<_>>()?;
        let upright: f64 = distances.iter().map(|d| d.sbd.distance).sum();
        let flipped: f64 = distances.iter().map(|d| d.flipped_distance).sum();
        refined.push(if flipped < upright {
            let centroid: Vec<f64> = centroid.iter().map(|x| -x).collect();
            (centroid, centroid_spectrum.negated())
        } else {
            (centroid, centroid_spectrum)
        });
    }
    Ok(refined)
}

/// Result of a power iteration: [`power_iterate_shape`] for
/// [`extract_shape`], [`power_iterate_lockstep`] for [`refine_centroids`].
enum ShapeCandidate {
    /// Degenerate cluster (all members constant after normalization): the
    /// element-wise mean of the aligned members, already final.
    Degenerate(Vec<f64>),
    /// z-normalized dominant-eigenvector candidate; the caller still picks
    /// the orientation (the eigenvector's sign is arbitrary).
    Candidate(Vec<f64>),
}

/// Power iteration on M = Q^T S Q with S = sum_i a_i a_i^T and
/// Q = I - 1/m * ones, over the aligned, z-normalized cluster members.
/// Matrix-vector products are computed implicitly:
///   `M v = Q ( sum_i a_i (a_i . Qv) )`   (Q is symmetric).
fn power_iterate_shape(aligned: &[Vec<f64>], m: usize, power_iterations: usize) -> ShapeCandidate {
    let center = |v: &[f64]| -> Vec<f64> {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        v.iter().map(|x| x - mean).collect()
    };

    // Deterministic, non-degenerate start vector.
    let mut v: Vec<f64> = (0..m)
        .map(|i| ((i as f64) * 0.754877 + 0.1).sin() + 0.01)
        .collect();
    normalize_vec(&mut v);

    for _ in 0..power_iterations.max(1) {
        let qv = center(&v);
        let mut sv = vec![0.0; m];
        for a in aligned {
            let dot: f64 = a.iter().zip(qv.iter()).map(|(x, y)| x * y).sum();
            for (s, &ai) in sv.iter_mut().zip(a.iter()) {
                *s += ai * dot;
            }
        }
        let mut new_v = center(&sv);
        let norm = new_v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-12 {
            // Fall back to the element-wise mean of aligned members.
            let mut mean = vec![0.0; m];
            for a in aligned {
                for (mu, &ai) in mean.iter_mut().zip(a.iter()) {
                    *mu += ai / aligned.len() as f64;
                }
            }
            return ShapeCandidate::Degenerate(z_normalize(&mean));
        }
        for x in new_v.iter_mut() {
            *x /= norm;
        }
        v = new_v;
    }
    ShapeCandidate::Candidate(z_normalize(&v))
}

/// How many of its latest iterates a walk of [`power_iterate_lockstep`]
/// keeps to recognise a recurrence: cycles of up to this period are cut
/// short.
const RECURRENCE_WINDOW: usize = 8;

/// How many walks [`power_iterate_lockstep`] advances side by side.
const LOCKSTEP: usize = 4;

/// How many of a walk's rows share one pass of the index in a step's dot
/// products and in its `S·Qv` accumulation.
const ROW_BLOCK: usize = 8;

/// The production power iteration: for every `(rows, power_iterations)`
/// walk, bit-identical to [`power_iterate_shape`] (the oracle's, which
/// [`extract_shape`] keeps calling) over those rows, returned with the
/// number of steps the walk actually took. Each walk performs the oracle's
/// float operations in the oracle's per-value order and differs in four
/// ways only:
///
/// * *Walks advance in lockstep.* Up to [`LOCKSTEP`] walks take their steps
///   side by side, and a walk that ends hands its place to the next one
///   waiting. A step's serial reductions — the mean of `v`, the mean of
///   `S·Qv` and the squared norm — are latency-bound chains of adds, so the
///   walks' chains are interleaved in one pass of the index, each chain its
///   own walk's, starting where `Iterator::sum` starts and adding in index
///   order. A walk alone is the one-walk case of the same code.
/// * *Rows in blocks.* The dot products `a_i · Qv` are serial sums too;
///   they are taken [`ROW_BLOCK`] rows per pass of the index, from a copy
///   of the rows the walk interleaves once, so a pass reads one block's
///   values in memory order. `S·Qv` gains the same blocks' terms one block
///   per pass, each value still summed from `0.0` in row order.
/// * *A walk stops when an iterate recurs.* A step is a pure function of
///   the iterate, so when the new iterate equals one of the last
///   [`RECURRENCE_WINDOW`] bit for bit, every remaining step only walks
///   that cycle — whose members all passed the degenerate-norm check as
///   inputs already — and the result is the cycle element the walk would
///   end on. Period 1 is the plain fixpoint.
/// * *It owns its working vectors.* `Qv`, the dot products, `S·Qv` and
///   the next iterate are written in place into buffers each walk
///   allocates once; the iterate that leaves the recurrence window becomes
///   the next step's buffer. The start vector is the caller's (built once
///   per [`KShapeSeriesCache`]), copied.
fn power_iterate_lockstep(
    walks: &[(&[&[f64]], usize)],
    start: &[f64],
) -> Vec<(ShapeCandidate, usize)> {
    let mut outcomes: Vec<Option<(ShapeCandidate, usize)>> = walks.iter().map(|_| None).collect();
    let mut waiting = walks.iter().enumerate();
    let mut active: Vec<Walk<'_>> = Vec::with_capacity(LOCKSTEP);
    loop {
        while active.len() < LOCKSTEP {
            let Some((index, &(rows, power_iterations))) = waiting.next() else {
                break;
            };
            active.push(Walk::new(index, rows, power_iterations, start));
        }
        if active.is_empty() {
            break;
        }
        step_lockstep(&mut active);
        active.retain_mut(|walk| match walk.outcome.take() {
            Some(outcome) => {
                outcomes[walk.index] = Some(outcome);
                false
            }
            None => true,
        });
    }
    (outcomes.into_iter())
        .map(|outcome| outcome.expect("every walk ends"))
        .collect()
}

/// One power iteration in flight in [`power_iterate_lockstep`].
struct Walk<'a> {
    /// The walk's position in the caller's list.
    index: usize,
    /// The aligned, z-normalized cluster members.
    rows: &'a [&'a [f64]],
    /// The same rows [`interleave`]d, for the dot products.
    interleaved: Vec<f64>,
    /// Steps the oracle takes: `power_iterations.max(1)`.
    steps: usize,
    /// Steps taken so far.
    taken: usize,
    /// The latest iterates, oldest first; the last one is the current `v`.
    iterates: VecDeque<Vec<f64>>,
    /// `Q v`, each row's dot product with it, `S·Qv` and the next iterate
    /// of the step being taken.
    qv: Vec<f64>,
    dots: Vec<f64>,
    sv: Vec<f64>,
    new_v: Vec<f64>,
    /// Set by the step that ends the walk.
    outcome: Option<(ShapeCandidate, usize)>,
}

impl<'a> Walk<'a> {
    fn new(index: usize, rows: &'a [&'a [f64]], power_iterations: usize, start: &[f64]) -> Self {
        let m = start.len();
        let mut iterates = VecDeque::with_capacity(RECURRENCE_WINDOW);
        iterates.push_back(start.to_vec());
        Self {
            index,
            rows,
            interleaved: interleave(rows, m),
            steps: power_iterations.max(1),
            taken: 0,
            iterates,
            qv: vec![0.0; m],
            dots: vec![0.0; rows.len()],
            sv: vec![0.0; m],
            new_v: vec![0.0; m],
            outcome: None,
        }
    }

    /// The current iterate `v`.
    fn current(&self) -> &[f64] {
        self.iterates.back().expect("the window is never empty")
    }

    /// Ends the step whose `S·Qv`, centred, is in `new_v` and whose norm is
    /// `norm`: the degenerate fallback, a recurrence, the cap, or the next
    /// iterate.
    fn finish_step(&mut self, norm: f64) {
        self.taken += 1;
        if norm < 1e-12 {
            // Fall back to the element-wise mean of aligned members.
            let mut mean = vec![0.0; self.new_v.len()];
            for a in self.rows {
                for (mu, &ai) in mean.iter_mut().zip(a.iter()) {
                    *mu += ai / self.rows.len() as f64;
                }
            }
            self.outcome = Some((ShapeCandidate::Degenerate(z_normalize(&mean)), self.taken));
            return;
        }
        for x in self.new_v.iter_mut() {
            *x /= norm;
        }
        let new_v = &self.new_v;
        let same_bits = |old: &Vec<f64>| {
            (old.iter().zip(new_v.iter())).all(|(a, b)| a.to_bits() == b.to_bits())
        };
        if let Some(recurred) = self.iterates.iter().rposition(same_bits) {
            let period = self.iterates.len() - recurred;
            let remaining = self.steps - self.taken;
            let last = &self.iterates[recurred + remaining % period];
            self.outcome = Some((ShapeCandidate::Candidate(z_normalize(last)), self.taken));
            return;
        }
        // The iterate leaving the window is the next step's buffer.
        let recycled = if self.iterates.len() == RECURRENCE_WINDOW {
            self.iterates.pop_front().expect("a full window")
        } else {
            vec![0.0; self.new_v.len()]
        };
        self.iterates
            .push_back(std::mem::replace(&mut self.new_v, recycled));
        if self.taken == self.steps {
            let last = z_normalize(self.current());
            self.outcome = Some((ShapeCandidate::Candidate(last), self.steps));
        }
    }
}

/// One power-iteration step of every walk in `walks` (at most
/// [`LOCKSTEP`] of them).
fn step_lockstep(walks: &mut [Walk<'_>]) {
    // `Q v`, value for value what the oracle's `center` collects.
    let sums = serial_sums(walks.iter().map(Walk::current), |x| x);
    for (walk, sum) in walks.iter_mut().zip(sums) {
        let v = walk.iterates.back().expect("the window is never empty");
        centre_into(v, sum, &mut walk.qv);
    }
    // `a_i · Qv`, then `S·Qv = Σ_i a_i (a_i · Qv)`.
    for walk in walks.iter_mut() {
        dot_products(&walk.interleaved, &walk.qv, &mut walk.dots);
        accumulate_rows(walk.rows, &walk.dots, &mut walk.sv);
    }
    let sums = serial_sums(walks.iter().map(|walk| &walk.sv[..]), |x| x);
    for (walk, sum) in walks.iter_mut().zip(sums) {
        centre_into(&walk.sv, sum, &mut walk.new_v);
    }
    let squares = serial_sums(walks.iter().map(|walk| &walk.new_v[..]), |x| x * x);
    for (walk, sum) in walks.iter_mut().zip(squares) {
        walk.finish_step(sum.sqrt());
    }
}

/// `out = v − mean(v)`, the mean being `sum / v.len()`.
fn centre_into(v: &[f64], sum: f64, out: &mut [f64]) {
    let mean = sum / v.len() as f64;
    for (o, x) in out.iter_mut().zip(v.iter()) {
        *o = x - mean;
    }
}

/// Whatever `Iterator::sum::<f64>()` starts from on this toolchain (the
/// neutral element has been both `0.0` and `-0.0`).
fn sum_start() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// `Iterator::sum` of `term` over each of up to [`LOCKSTEP`] slices of one
/// length, the chains interleaved in one pass of the index: each starts
/// where `Iterator::sum` does and adds its own terms in index order, so each
/// result is bit for bit the serial sum.
fn serial_sums<'s>(
    slices: impl Iterator<Item = &'s [f64]>,
    term: impl Fn(f64) -> f64 + Copy,
) -> [f64; LOCKSTEP] {
    let mut lanes: [&[f64]; LOCKSTEP] = [&[]; LOCKSTEP];
    let mut count = 0;
    for (lane, slice) in lanes.iter_mut().zip(slices) {
        *lane = slice;
        count += 1;
    }
    match count {
        1 => interleaved_sums::<1>(&lanes, term),
        2 => interleaved_sums::<2>(&lanes, term),
        3 => interleaved_sums::<3>(&lanes, term),
        _ => interleaved_sums::<LOCKSTEP>(&lanes, term),
    }
}

/// [`serial_sums`] over the first `W` lanes.
fn interleaved_sums<const W: usize>(
    lanes: &[&[f64]; LOCKSTEP],
    term: impl Fn(f64) -> f64,
) -> [f64; LOCKSTEP] {
    let m = lanes[0].len();
    // Cut to one length, so the indexed loop runs without bounds checks.
    let lanes: [&[f64]; W] = std::array::from_fn(|w| &lanes[w][..m]);
    let mut sums = [sum_start(); W];
    for j in 0..m {
        for (sum, lane) in sums.iter_mut().zip(lanes.iter()) {
            *sum += term(lane[j]);
        }
    }
    let mut all = [sum_start(); LOCKSTEP];
    all[..W].copy_from_slice(&sums);
    all
}

/// `dots[i] = rows[i] · qv`, each exactly the serial
/// `zip(..).map(|(x, y)| x * y).sum::<f64>()` of the oracle, the rows read
/// from their [`interleave`]d copy: one pass of the index per block of up
/// to [`ROW_BLOCK`] rows, the block's independent addition chains side by
/// side, each row's value loaded next to its neighbours'.
fn dot_products(interleaved: &[f64], qv: &[f64], dots: &mut [f64]) {
    let blocks = interleaved.chunks(ROW_BLOCK * qv.len());
    for (block, out) in blocks.zip(dots.chunks_mut(ROW_BLOCK)) {
        match out.len() {
            1 => dot_block::<1>(block, qv, out),
            2 => dot_block::<2>(block, qv, out),
            3 => dot_block::<3>(block, qv, out),
            4 => dot_block::<4>(block, qv, out),
            5 => dot_block::<5>(block, qv, out),
            6 => dot_block::<6>(block, qv, out),
            7 => dot_block::<7>(block, qv, out),
            _ => dot_block::<ROW_BLOCK>(block, qv, out),
        }
    }
}

/// [`dot_products`] of one interleaved block of `B` rows.
fn dot_block<const B: usize>(block: &[f64], qv: &[f64], out: &mut [f64]) {
    let mut sums = [sum_start(); B];
    for (values, &q) in block.chunks_exact(B).zip(qv.iter()) {
        let values: &[f64; B] = values.try_into().expect("a whole chunk");
        for (sum, &value) in sums.iter_mut().zip(values.iter()) {
            *sum += value * q;
        }
    }
    out.copy_from_slice(&sums);
}

/// The rows in blocks of [`ROW_BLOCK`] (the last one shorter), each block
/// stored index by index — `block[j * B + b]` is row `b`'s value at `j` —
/// so that a pass over one block reads memory in order.
fn interleave(rows: &[&[f64]], m: usize) -> Vec<f64> {
    let mut interleaved = Vec::with_capacity(rows.len() * m);
    for block in rows.chunks(ROW_BLOCK) {
        for j in 0..m {
            interleaved.extend(block.iter().map(|row| row[j]));
        }
    }
    interleaved
}

/// `sv = Σ_i rows[i] · dots[i]`, each value summed from `0.0` in row
/// order as the oracle's row-by-row accumulation sums it; one pass of the
/// index per block of up to [`ROW_BLOCK`] rows instead of one per row.
fn accumulate_rows(rows: &[&[f64]], dots: &[f64], sv: &mut [f64]) {
    sv.fill(0.0);
    for (block, dots) in rows.chunks(ROW_BLOCK).zip(dots.chunks(ROW_BLOCK)) {
        match block.len() {
            1 => add_rows::<1>(block, dots, sv),
            2 => add_rows::<2>(block, dots, sv),
            3 => add_rows::<3>(block, dots, sv),
            4 => add_rows::<4>(block, dots, sv),
            5 => add_rows::<5>(block, dots, sv),
            6 => add_rows::<6>(block, dots, sv),
            7 => add_rows::<7>(block, dots, sv),
            _ => add_rows::<ROW_BLOCK>(block, dots, sv),
        }
    }
}

/// [`accumulate_rows`] for one block of `B` rows: `sv[j]` gains each row's
/// term in row order.
fn add_rows<const B: usize>(rows: &[&[f64]], dots: &[f64], sv: &mut [f64]) {
    // Cut to one length, so the indexed loop runs without bounds checks.
    let rows: [&[f64]; B] = std::array::from_fn(|b| &rows[b][..sv.len()]);
    let dots: [f64; B] = std::array::from_fn(|b| dots[b]);
    for (j, s) in sv.iter_mut().enumerate() {
        let mut value = *s;
        for (row, &dot) in rows.iter().zip(dots.iter()) {
            value += row[j] * dot;
        }
        *s = value;
    }
}

/// The power iteration's deterministic, non-degenerate start vector: the
/// one [`power_iterate_shape`] builds, built once per
/// [`KShapeSeriesCache`].
fn start_vector(m: usize) -> Vec<f64> {
    let mut v: Vec<f64> = (0..m)
        .map(|i| ((i as f64) * 0.754877 + 0.1).sin() + 0.01)
        .collect();
    normalize_vec(&mut v);
    v
}

fn normalize_vec(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of clusters at least one series is assigned to.
    fn non_empty_clusters(result: &KShapeResult) -> usize {
        let mut used = result.assignments.clone();
        used.sort_unstable();
        used.dedup();
        used.len()
    }

    /// Builds `count` noisy copies of a base shape, each scaled and offset
    /// differently (k-Shape must be invariant to that).
    fn noisy_family(
        base: &dyn Fn(usize) -> f64,
        count: usize,
        len: usize,
        seed: u64,
    ) -> Vec<Vec<f64>> {
        let mut out = Vec::new();
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for c in 0..count {
            let scale = 1.0 + c as f64 * 0.7;
            let offset = c as f64 * 3.0;
            out.push(
                (0..len)
                    .map(|i| base(i) * scale + offset + 0.05 * next())
                    .collect(),
            );
        }
        out
    }

    #[test]
    fn separates_two_distinct_shape_families() {
        let len = 48;
        let sines = noisy_family(&|i| ((i as f64) * 0.4).sin(), 5, len, 7);
        let ramps = noisy_family(&|i| i as f64 / 10.0, 5, len, 13);
        let mut series = sines.clone();
        series.extend(ramps.clone());

        let result = KShape::new(KShapeConfig::new(2)).fit(&series).unwrap();
        let first = result.assignments[0];
        for i in 0..5 {
            assert_eq!(result.assignments[i], first, "sines must cluster together");
        }
        let second = result.assignments[5];
        assert_ne!(first, second);
        for i in 5..10 {
            assert_eq!(result.assignments[i], second, "ramps must cluster together");
        }
        assert!(result.converged);
    }

    #[test]
    fn single_cluster_contains_everything() {
        let series: Vec<Vec<f64>> = (0..4)
            .map(|c| (0..16).map(|i| (i + c) as f64).collect())
            .collect();
        let result = KShape::new(KShapeConfig::new(1)).fit(&series).unwrap();
        assert!(result.assignments.iter().all(|&a| a == 0));
        assert_eq!(non_empty_clusters(&result), 1);
    }

    #[test]
    fn k_equal_n_is_accepted() {
        let series: Vec<Vec<f64>> = vec![
            (0..16).map(|i| (i as f64).sin()).collect(),
            (0..16).map(|i| (i as f64).cos()).collect(),
            (0..16).map(|i| i as f64).collect(),
        ];
        let result = KShape::new(KShapeConfig::new(3)).fit(&series).unwrap();
        assert_eq!(result.assignments.len(), 3);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let series = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        assert!(matches!(
            KShape::new(KShapeConfig::new(0)).fit(&series),
            Err(ClusterError::InvalidClusterCount { .. })
        ));
        assert!(matches!(
            KShape::new(KShapeConfig::new(3)).fit(&series),
            Err(ClusterError::InvalidClusterCount { .. })
        ));
        assert!(matches!(
            KShape::new(KShapeConfig::new(1)).fit::<Vec<f64>>(&[]),
            Err(ClusterError::NoData)
        ));
        let ragged = vec![vec![1.0, 2.0], vec![1.0, 2.0, 3.0]];
        assert!(matches!(
            KShape::new(KShapeConfig::new(1)).fit(&ragged),
            Err(ClusterError::InconsistentLengths { .. })
        ));
    }

    #[test]
    fn rejects_bad_initial_assignment() {
        let series = vec![vec![1.0, 2.0, 3.0], vec![3.0, 2.0, 1.0]];
        let cfg = KShapeConfig::new(2).with_initial_assignment(vec![0]);
        assert!(matches!(
            KShape::new(cfg).fit(&series),
            Err(ClusterError::InvalidInitialAssignment { .. })
        ));
        let cfg = KShapeConfig::new(2).with_initial_assignment(vec![0, 5]);
        assert!(matches!(
            KShape::new(cfg).fit(&series),
            Err(ClusterError::InvalidInitialAssignment { .. })
        ));
    }

    #[test]
    fn warm_start_reaches_same_partition_as_cold_start() {
        let len = 40;
        let spikes = noisy_family(&|i| if i % 10 == 0 { 5.0 } else { 0.0 }, 4, len, 3);
        let waves = noisy_family(&|i| ((i as f64) * 0.5).cos(), 4, len, 11);
        let mut series = spikes;
        series.extend(waves);

        let cold = KShape::new(KShapeConfig::new(2)).fit(&series).unwrap();
        let warm_init = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let warm = KShape::new(KShapeConfig::new(2).with_initial_assignment(warm_init))
            .fit(&series)
            .unwrap();
        // Same partition (cluster labels may be permuted).
        let agree =
            crate::ami::adjusted_mutual_information(&cold.assignments, &warm.assignments).unwrap();
        assert!(agree > 0.99, "partitions differ: AMI = {agree}");
        // Warm start should converge at least as fast.
        assert!(warm.iterations <= cold.iterations + 1);
    }

    #[test]
    fn centroids_are_z_normalized_shapes() {
        let series = noisy_family(&|i| ((i as f64) * 0.3).sin(), 6, 32, 5);
        let result = KShape::new(KShapeConfig::new(2)).fit(&series).unwrap();
        for c in &result.centroids {
            if c.iter().all(|&v| v == 0.0) {
                continue; // empty cluster placeholder
            }
            let mean: f64 = c.iter().sum::<f64>() / c.len() as f64;
            assert!(mean.abs() < 1e-6);
        }
    }

    #[test]
    fn members_of_partitions_all_indices() {
        let series: Vec<Vec<f64>> = (0..6)
            .map(|c| (0..24).map(|i| ((i * (c + 1)) as f64).sin()).collect())
            .collect();
        let result = KShape::new(KShapeConfig::new(3)).fit(&series).unwrap();
        let mut all: Vec<usize> = (0..3).flat_map(|c| result.members_of(c)).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn fit_cached_is_bit_identical_to_fit() {
        let len = 48;
        let sines = noisy_family(&|i| ((i as f64) * 0.4).sin(), 5, len, 7);
        let ramps = noisy_family(&|i| i as f64 / 10.0, 5, len, 13);
        let spikes = noisy_family(&|i| if i % 12 == 0 { 4.0 } else { 0.0 }, 4, len, 29);
        let mut series = sines;
        series.extend(ramps);
        series.extend(spikes);

        let mut cache = KShapeSeriesCache::new(&series).unwrap();
        assert_eq!(cache.len(), 14);
        assert_eq!(cache.series_len(), len);
        for k in 1..=4 {
            let kshape = KShape::new(KShapeConfig::new(k));
            let direct = kshape.fit(&series).unwrap();
            let cached = kshape.fit_cached(&mut cache).unwrap();
            // Full structural equality: assignments, iteration counts and
            // every centroid value bit-for-bit.
            assert_eq!(direct.assignments, cached.assignments, "k = {k}");
            assert_eq!(direct.iterations, cached.iterations, "k = {k}");
            assert_eq!(direct.converged, cached.converged, "k = {k}");
            for (dc, cc) in direct.centroids.iter().zip(cached.centroids.iter()) {
                for (a, b) in dc.iter().zip(cc.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "k = {k}");
                }
            }
        }
    }

    #[test]
    fn fit_cached_handles_constant_members_like_fit() {
        let mut series: Vec<Vec<f64>> = vec![vec![5.0; 20], vec![0.0; 20]];
        series.push((0..20).map(|i| i as f64).collect());
        series.push((0..20).map(|i| (20 - i) as f64).collect());
        let mut cache = KShapeSeriesCache::new(&series).unwrap();
        let kshape = KShape::new(KShapeConfig::new(2));
        let direct = kshape.fit(&series).unwrap();
        let cached = kshape.fit_cached(&mut cache).unwrap();
        assert_eq!(direct, cached);
    }

    #[test]
    fn memoised_iteration_issues_fewer_sbd_evaluations_than_n_times_k() {
        let len = 48;
        let mut series = noisy_family(&|i| ((i as f64) * 0.4).sin(), 6, len, 7);
        series.extend(noisy_family(&|i| ((i as f64) * 0.15).sin(), 6, len, 3));
        series.extend(noisy_family(&|i| i as f64 / 10.0, 6, len, 13));
        series.extend(noisy_family(
            &|i| if i % 12 == 0 { 4.0 } else { 0.0 },
            6,
            len,
            29,
        ));
        let (n, k) = (series.len(), 6);

        let mut cache = KShapeSeriesCache::new(&series).unwrap();
        assert_eq!(cache.sbd_evaluations(), 0);
        let kshape = KShape::new(KShapeConfig::new(k));
        let result = kshape.fit_cached(&mut cache).unwrap();
        assert_eq!(result, kshape.fit(&series).unwrap());
        assert!(result.converged && result.iterations >= 3, "{result:?}");

        // An iteration that recomputes everything costs n·k distance
        // evaluations for the assignment plus 3n for alignment and the two
        // orientation sums. Reading the alignment off the table, skipping
        // clusters whose inputs repeat and scanning both orientations at
        // once each remove part of that; only together do they bring the
        // whole fit under n·k per iteration.
        let evaluations = cache.sbd_evaluations() as usize;
        assert!(
            evaluations < result.iterations * n * k,
            "{evaluations} evaluations over {} iterations of n={n}, k={k}",
            result.iterations
        );

        // What the first fit left in the cache beside the refinements: the
        // n first-member alignments of its first iteration (every
        // round-robin cluster starts non-empty, no pair twice), one aligned
        // copy and spectrum per distinct (series, shift) its refinements
        // met, and the power steps those refinements took of the
        // 50 each they might have.
        let refinements = cache.refinements();
        let reused = cache.refinements_reused();
        assert_eq!((cache.alignments(), cache.alignments_reused()), (24, 0));
        assert_eq!(
            (cache.aligned_spectra(), cache.aligned_spectra_reused()),
            (36, 36)
        );
        assert_eq!((refinements, cache.power_steps()), (12, 434));

        // A second identical fit looks up the same inputs as the first and
        // finds every one: the first iteration's alignments in the shift
        // table (which is what forms its memo keys), every refinement in
        // the memo. It evaluates no distance, aligns no member and takes no
        // power step.
        assert_eq!(kshape.fit_cached(&mut cache).unwrap(), result);
        assert_eq!(cache.refinements(), refinements);
        assert_eq!(cache.refinements_reused(), refinements + 2 * reused);
        assert_eq!(cache.sbd_evaluations() as usize, evaluations);
        assert_eq!((cache.alignments(), cache.alignments_reused()), (24, 24));
        assert_eq!(
            (cache.aligned_spectra(), cache.aligned_spectra_reused()),
            (36, 36)
        );
        assert_eq!(cache.power_steps(), 434);
    }

    #[test]
    fn cycling_fit_refines_each_distinct_input_once() {
        // Counters that are exact multiples of one cumulative load — what
        // `*_total` metrics of one component are. z-normalized they differ
        // only in rounding, so two clusters of them get centroids a rounding
        // error apart and members flip between the two until the cap.
        let mut total = 0.0;
        let cumulative: Vec<f64> = (0..240)
            .map(|t| {
                total += (50 + (t * 7) % 61) as f64;
                total
            })
            .collect();
        let series: Vec<Vec<f64>> = [12.0, 90.0, 240.0, 0.01, 1.0, 270.0]
            .iter()
            .map(|gain| cumulative.iter().map(|v| gain * v).collect())
            .collect();
        let n = series.len();
        let mut init = vec![1; n];
        init[0] = 0;
        let kshape = KShape::new(
            KShapeConfig::new(2)
                .with_max_iterations(30)
                .with_initial_assignment(init),
        );

        let mut cache = KShapeSeriesCache::new(&series).unwrap();
        let result = kshape.fit_cached(&mut cache).unwrap();
        assert_eq!(result, kshape.fit(&series).unwrap());
        assert!(!result.converged && result.iterations == 30, "{result:?}");

        // The fit still runs every iteration, but a lap of the cycle only
        // revisits inputs the memo holds: SBD evaluations are paid per
        // *distinct* refinement — n for its column, one per member for its
        // orientation check — plus one per distinct first-member alignment
        // (n here: one fit, no pair twice). Exactly that, no more.
        // Recomputing whenever the input differs from the previous step's
        // costs several times this.
        let refinements = cache.refinements() as usize;
        let lookups = refinements + cache.refinements_reused() as usize;
        assert!(lookups > 30 && 4 * refinements < lookups, "{refinements}");
        let evaluations = cache.sbd_evaluations();
        let per_refinement: usize = (cache.refined.keys())
            .map(|(_, members, _)| n + members.len())
            .sum();
        assert_eq!(cache.alignments(), n as u64);
        assert_eq!(evaluations, per_refinement as u64 + cache.alignments());

        // The members that flip are aligned the same way lap after lap
        // (6 aligned copies serve 24 rows), and power iterations over
        // proportional counters are the ones that recur at once: 38 steps
        // of the 7 × 50 a plain loop takes.
        assert_eq!(
            (cache.aligned_spectra(), cache.aligned_spectra_reused()),
            (6, 18)
        );
        assert_eq!((refinements, cache.power_steps()), (7, 38));

        // Fitting again pays none of it: the alignment term goes too.
        assert_eq!(kshape.fit_cached(&mut cache).unwrap(), result);
        assert_eq!(cache.sbd_evaluations(), evaluations);
        assert_eq!(cache.alignments_reused(), n as u64);
    }

    /// A `KShapeResult` down to the bits.
    fn result_bits(result: &KShapeResult) -> (Vec<usize>, Vec<Vec<u64>>, usize, bool) {
        let centroids = (result.centroids.iter())
            .map(|c| c.iter().map(|v| v.to_bits()).collect())
            .collect();
        let assignments = result.assignments.clone();
        (assignments, centroids, result.iterations, result.converged)
    }

    #[test]
    fn spectral_bound_rules_cells_out_and_changes_no_result_bit() {
        let len = 96;
        let mut series = noisy_family(&|i| ((i as f64) * 0.4).sin(), 8, len, 7);
        series.extend(noisy_family(&|i| i as f64 / 10.0, 8, len, 13));
        series.extend(noisy_family(
            &|i| if i % 12 == 0 { 4.0 } else { 0.0 },
            8,
            len,
            29,
        ));
        let n = series.len();
        // What evaluating every column cell costs: the formula
        // `cycling_fit_refines_each_distinct_input_once` pins with `==`.
        let every_cell = |cache: &KShapeSeriesCache| {
            let per_refinement: usize = (cache.refined.keys())
                .map(|(_, members, _)| n + members.len())
                .sum();
            per_refinement as u64 + cache.alignments()
        };

        let mut cache = KShapeSeriesCache::new(&series).unwrap();
        let kshape = KShape::new(KShapeConfig::new(3));
        let oracle = kshape.fit(&series).unwrap();
        let result = kshape.fit_cached(&mut cache).unwrap();
        assert_eq!(result_bits(&result), result_bits(&oracle));
        assert!(result.converged && non_empty_clusters(&result) == 3);

        // Once the clusters are the families, a series is ruled out of the
        // other two's by the bound alone (the round-robin start's mixed
        // clusters rule out less); every cell is either evaluated or ruled
        // out, none twice.
        let (evaluations, ruled_out) = (cache.sbd_evaluations(), cache.cells_ruled_out());
        assert_eq!(evaluations + ruled_out, every_cell(&cache));
        assert_eq!(cache.bounds_computed(), cache.refinements() * n as u64);
        assert!(3 * ruled_out > cache.bounds_computed(), "{ruled_out}");
        assert!(evaluations < every_cell(&cache));

        // A second identical fit reads every cell it needs — exact or
        // ruled out — from the memo.
        assert_eq!(
            result_bits(&kshape.fit_cached(&mut cache).unwrap()),
            result_bits(&result)
        );
        assert_eq!(cache.sbd_evaluations(), evaluations);
        assert_eq!(cache.cells_ruled_out(), ruled_out);
        assert_eq!(cache.bounds_computed(), cache.refinements() * n as u64);

        // Which cells a fit finds evaluated depends on the fits before it;
        // what it returns does not: sweeping k up or down over one cache
        // yields the oracle's bits either way.
        let ks = [1usize, 2, 3, 4, 5, 6];
        let oracles: Vec<_> = (ks.iter())
            .map(|&k| result_bits(&KShape::new(KShapeConfig::new(k)).fit(&series).unwrap()))
            .collect();
        let mut ascending = KShapeSeriesCache::new(&series).unwrap();
        let mut descending = KShapeSeriesCache::new(&series).unwrap();
        for (&k, expected) in ks.iter().zip(&oracles) {
            let fitted = KShape::new(KShapeConfig::new(k)).fit_cached(&mut ascending);
            assert_eq!(
                &result_bits(&fitted.unwrap()),
                expected,
                "ascending, k = {k}"
            );
        }
        for (&k, expected) in ks.iter().zip(&oracles).rev() {
            let fitted = KShape::new(KShapeConfig::new(k)).fit_cached(&mut descending);
            assert_eq!(
                &result_bits(&fitted.unwrap()),
                expected,
                "descending, k = {k}"
            );
        }
        for cache in [&ascending, &descending] {
            assert_eq!(
                cache.sbd_evaluations() + cache.cells_ruled_out(),
                every_cell(cache)
            );
            assert!(cache.cells_ruled_out() > 0);
        }
    }

    /// Both power iterations' outcome down to the bits.
    fn shape_bits(shape: &ShapeCandidate) -> (bool, Vec<u64>) {
        let (degenerate, values) = match shape {
            ShapeCandidate::Degenerate(values) => (true, values),
            ShapeCandidate::Candidate(values) => (false, values),
        };
        (degenerate, values.iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn production_power_iteration_is_bit_identical_to_the_oracles_at_every_exit() {
        let len = 60;
        // Proportional counters: exact multiples of one cumulative load.
        let mut total = 0.0;
        let cumulative: Vec<f64> = (0..len)
            .map(|t| {
                total += (50 + (t * 7) % 61) as f64;
                total
            })
            .collect();
        let gains = [12.0, 90.0, 240.0, 0.01, 1.0, 270.0, 420.0, 3.6, 4.5];
        // How a walk ends: a fixpoint, a longer cycle, the cap, degenerate.
        const FIXPOINT: usize = 0;
        const CYCLE: usize = 1;
        const CAP: usize = 2;
        const DEGENERATE: usize = 3;
        let mut exits = [0usize; 4];
        // Every (family, cap) walk: its rows, cap and exit, and the bits and
        // step count it returns alone.
        type Case = (Vec<Vec<f64>>, usize, usize, ((bool, Vec<u64>), usize));
        let mut cases: Vec<Case> = Vec::new();
        let start = start_vector(len);
        for count in 1..=9usize {
            let counters: Vec<Vec<f64>> = (gains[..count].iter())
                .map(|gain| cumulative.iter().map(|v| gain * v).collect())
                .collect();
            let one_shape = noisy_family(&|i| ((i as f64) * 0.4).sin(), count, len, 7);
            // Two shapes in equal measure: a small eigengap, slow to settle.
            let two_shapes: Vec<Vec<f64>> = (0..count)
                .map(|c| {
                    let base: &dyn Fn(usize) -> f64 = if c % 2 == 0 {
                        &|i| ((i as f64) * 0.4).sin()
                    } else {
                        &|i| ((i as f64) * 0.4).cos()
                    };
                    noisy_family(base, 1, len, c as u64 + 31).remove(0)
                })
                .collect();
            let constants: Vec<Vec<f64>> = (0..count).map(|c| vec![c as f64; len]).collect();
            for family in [&counters, &one_shape, &two_shapes, &constants] {
                let aligned: Vec<Vec<f64>> = family.iter().map(|s| z_normalize(s)).collect();
                let rows: Vec<&[f64]> = aligned.iter().map(|a| &a[..]).collect();
                for cap in [1usize, 2, 3, 7, 8, 9, 10, 49, 50, 51, 100] {
                    let expected = power_iterate_shape(&aligned, len, cap);
                    let (shape, steps) = power_iterate_lockstep(&[(&rows, cap)], &start).remove(0);
                    assert_eq!(
                        shape_bits(&shape),
                        shape_bits(&expected),
                        "{count} members, {cap} power iterations"
                    );
                    assert!((1..=cap).contains(&steps));
                    let exit = if matches!(shape, ShapeCandidate::Degenerate(_)) {
                        DEGENERATE
                    } else if steps == cap {
                        CAP
                    } else if shape_bits(&power_iterate_shape(&aligned, len, cap + 1))
                        == shape_bits(&expected)
                    {
                        FIXPOINT
                    } else {
                        CYCLE
                    };
                    exits[exit] += 1;
                    cases.push((aligned.clone(), cap, exit, (shape_bits(&shape), steps)));
                }
            }
        }
        assert!(
            exits[FIXPOINT] >= 50
                && exits[CYCLE] >= 30
                && exits[CAP] >= 100
                && exits[DEGENERATE] >= 99,
            "(fixpoint, cycle, cap, degenerate) = {exits:?}"
        );

        // The same walks in lockstep groups of one to six — past `LOCKSTEP`
        // a walk that ends hands its place to the next — mixing member
        // counts, caps and exits: each walk returns its solo bits and steps.
        let order = (0..cases.len()).map(|i| i * 97 % cases.len());
        let order: Vec<usize> = order.collect();
        let (mut at, mut mixed) = (0, [0usize; 2]);
        for size in (1..=6).cycle() {
            if at == order.len() {
                break;
            }
            let group = &order[at..(at + size).min(order.len())];
            at += group.len();
            let rows: Vec<Vec<&[f64]>> = (group.iter())
                .map(|&g| cases[g].0.iter().map(|a| &a[..]).collect())
                .collect();
            let walks: Vec<(&[&[f64]], usize)> = (rows.iter().zip(group))
                .map(|(rows, &g)| (&rows[..], cases[g].1))
                .collect();
            for (&g, (shape, steps)) in group.iter().zip(power_iterate_lockstep(&walks, &start)) {
                assert_eq!(
                    (shape_bits(&shape), steps),
                    cases[g].3,
                    "case {g} in {group:?}"
                );
            }
            let has = |exit: usize| group.iter().any(|&g| cases[g].2 == exit);
            mixed[0] += usize::from(has(DEGENERATE) && has(CAP));
            mixed[1] += usize::from(has(FIXPOINT) && has(CYCLE));
        }
        assert!(mixed[0] >= 20 && mixed[1] >= 5, "{mixed:?}");
    }

    #[test]
    fn flipped_centroids_take_no_forward_transform() {
        let len = 48;
        let mut series = noisy_family(&|i| ((i as f64) * 0.4).sin(), 6, len, 7);
        series.extend(noisy_family(&|i| i as f64 / 10.0, 6, len, 13));
        series.extend(noisy_family(
            &|i| if i % 12 == 0 { 4.0 } else { 0.0 },
            6,
            len,
            29,
        ));
        // Sweeps like `reduce_component`'s over one cache, k descending and
        // warm started from runs of six and of three series, so later fits
        // meet earlier fits' refinements in the memo.
        let mut cache = KShapeSeriesCache::new(&series).unwrap();
        for (k, run) in (1..=6).rev().flat_map(|k| [(k, 6), (k, 3)]) {
            let init = (0..series.len()).map(|i| i / run % k).collect();
            let kshape = KShape::new(KShapeConfig::new(k).with_initial_assignment(init));
            let fitted = kshape.fit_cached(&mut cache).unwrap();
            assert_eq!(
                result_bits(&fitted),
                result_bits(&kshape.fit(&series).unwrap())
            );
        }
        // A refinement flipped its candidate when the centroid it kept is
        // the negation of what the power iteration returned.
        let flipped = |((power_iterations, members, shifts), &r): (&RefinementInput, &usize)| {
            let aligned: Vec<Vec<f64>> = (members.iter().zip(shifts))
                .map(|(&i, &shift)| z_normalize(&apply_shift(cache.series(i), shift)))
                .collect();
            match power_iterate_shape(&aligned, len, *power_iterations) {
                ShapeCandidate::Candidate(candidate) => {
                    let kept = &cache.refinements[r].centroid;
                    candidate != *kept && (candidate.iter().zip(kept)).all(|(c, k)| -c == *k)
                }
                ShapeCandidate::Degenerate(_) => false,
            }
        };
        let flips = cache.refined.iter().filter(|&entry| flipped(entry)).count();
        assert!(flips >= 3, "{flips} flips");
        // One transform per aligned member, per refinement and per memo
        // hit's rebuilt centroid spectrum — and none per flip.
        assert_eq!(
            cache.spectra_computed(),
            cache.aligned_spectra() + cache.refinements() + cache.spectra_rebuilt
        );
        assert!(cache.spectra_rebuilt > 0, "{}", cache.spectra_rebuilt);
    }

    #[test]
    fn cache_validates_inputs_like_fit() {
        assert!(matches!(
            KShapeSeriesCache::new::<Vec<f64>>(&[]),
            Err(ClusterError::NoData)
        ));
        assert!(matches!(
            KShapeSeriesCache::new(&[Vec::<f64>::new()]),
            Err(ClusterError::NoData)
        ));
        let ragged = vec![vec![1.0, 2.0], vec![1.0, 2.0, 3.0]];
        assert!(matches!(
            KShapeSeriesCache::new(&ragged),
            Err(ClusterError::InconsistentLengths { .. })
        ));
        let mut cache = KShapeSeriesCache::new(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(!cache.is_empty());
        assert!(matches!(
            KShape::new(KShapeConfig::new(0)).fit_cached(&mut cache),
            Err(ClusterError::InvalidClusterCount { .. })
        ));
        assert!(matches!(
            KShape::new(KShapeConfig::new(3)).fit_cached(&mut cache),
            Err(ClusterError::InvalidClusterCount { .. })
        ));
        let bad_init = KShapeConfig::new(2).with_initial_assignment(vec![0, 7]);
        assert!(matches!(
            KShape::new(bad_init).fit_cached(&mut cache),
            Err(ClusterError::InvalidInitialAssignment { .. })
        ));
    }

    #[test]
    fn columnar_cache_views_match_per_series_z_normalize_bitwise() {
        let series = noisy_family(&|i| ((i as f64) * 0.3).sin(), 7, 33, 41);
        for workers in [1, 2, 4, 16] {
            let cache = KShapeSeriesCache::new_parallel(&series, workers).unwrap();
            assert_eq!(cache.len(), series.len());
            assert_eq!(cache.series_len(), 33);
            for (i, s) in series.iter().enumerate() {
                let expected = z_normalize(s);
                let view = cache.series(i);
                assert_eq!(view.len(), expected.len());
                for (a, b) in view.iter().zip(expected.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "series {i}, workers {workers}");
                }
            }
        }
    }

    #[test]
    fn constant_series_do_not_break_clustering() {
        let mut series: Vec<Vec<f64>> = vec![vec![5.0; 20], vec![0.0; 20]];
        series.push((0..20).map(|i| i as f64).collect());
        series.push((0..20).map(|i| (20 - i) as f64).collect());
        let result = KShape::new(KShapeConfig::new(2)).fit(&series).unwrap();
        assert_eq!(result.assignments.len(), 4);
    }
}
