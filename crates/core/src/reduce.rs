//! Step 2 of the pipeline: metric reduction.
//!
//! Per component, Sieve (§3.2):
//!
//! 1. drops metrics that do not vary with the applied load ("constant trend
//!    or low variance (var ≤ 0.002)");
//! 2. reconstructs missing samples with cubic splines and discretises every
//!    series onto a 500 ms grid;
//! 3. clusters the remaining series with k-Shape, warm-started from metric
//!    *name* similarity, choosing the cluster count by the best silhouette
//!    score under the shape-based distance; and
//! 4. picks the member closest to each cluster centroid as that cluster's
//!    *representative metric*.
//!
//! The variance threshold is applied to a scale-free variance
//! (`var / (mean² + var)`), because the simulator's metrics — like real
//! monitoring data — span wildly different units; a raw threshold of 0.002
//! would keep a byte counter that is constant up to rounding noise and drop
//! a perfectly informative ratio metric.
//!
//! Prepared series live in one columnar [`PreparedComponent`] arena per
//! component (a single `Arc`-shared backing buffer): the reduction here and
//! the dependency identification of step 3 read the *same* buffer, and the
//! k-Shape/silhouette calls below borrow contiguous views of it without
//! copying.
//!
//! The k sweep itself runs on the shared SBD engine: per-series spectra, the
//! pairwise distance matrix, the name grouping behind every warm start and
//! one k-Shape cache — z-normalized copies, their spectra and a memo of every
//! cluster refinement performed — are built once per component and shared by
//! every candidate `k`, so a cluster one fit already refined (in an earlier
//! iteration, or for another `k`) is never refined again. The direct-SBD sweep it must stay bit-identical to is
//! [`crate::oracle::reduce_component`].

use crate::columnar::PreparedComponent;
use crate::config::SieveConfig;
use crate::model::{ComponentClustering, MetricCluster};
use crate::Result;
use sieve_cluster::distance::{compute_spectra, DistanceMatrix};
use sieve_cluster::jaro::NameGroups;
use sieve_cluster::kshape::{KShape, KShapeConfig, KShapeResult, KShapeSeriesCache};
use sieve_cluster::silhouette::silhouette_score_from_matrix;
use sieve_exec::Name;
use sieve_timeseries::spectrum::{sbd_oriented, SbdScratch, SeriesSpectrum};
use sieve_timeseries::stats::{mean, variance};
use std::sync::Arc;

/// A named, resampled metric series ready for clustering.
///
/// The values live behind an `Arc`, so cloning a `NamedSeries` (or the whole
/// prepared map) shares the buffer instead of copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedSeries {
    /// Metric name.
    pub name: Name,
    /// Values on the common discretisation grid, shared between pipeline
    /// stages.
    pub values: Arc<[f64]>,
}

impl NamedSeries {
    /// Creates a named series, interning the name and sharing the values.
    pub fn new(name: impl Into<Name>, values: impl Into<Arc<[f64]>>) -> Self {
        Self {
            name: name.into(),
            values: values.into(),
        }
    }
}

/// Scale-free variance used by the unvarying-metric filter.
pub fn relative_variance(values: &[f64]) -> f64 {
    let var = variance(values);
    if var == 0.0 {
        return 0.0;
    }
    let m = mean(values);
    var / (m * m + var)
}

/// Whether a metric should be dropped as unvarying under the configured
/// threshold.
pub fn is_unvarying(values: &[f64], threshold: f64) -> bool {
    relative_variance(values) <= threshold
}

/// Runs the full metric-reduction step for one component.
///
/// # Errors
///
/// Propagates clustering failures; an empty input or a component where every
/// metric is filtered out produces a clustering with zero clusters rather
/// than an error.
pub fn reduce_component(
    component: impl Into<Name>,
    prepared: &PreparedComponent,
    config: &SieveConfig,
) -> Result<ComponentClustering> {
    reduce_component_with(component.into(), prepared, config, sweep)
}

/// Silhouette, chosen `k` and clusters of one component's kept series.
pub(crate) type SweepOutcome = (f64, usize, Vec<MetricCluster>);

/// The stage around the k sweep — variance filter, the zero- and one-series
/// short-circuits, result assembly — with the sweep itself supplied by the
/// caller: [`sweep`] in production, the direct-SBD sweep in
/// [`crate::oracle`]. `sweep_kept` receives the kept series, their names as
/// `&str` (for the name pre-clustering) and as interned names, in prepared
/// order.
pub(crate) fn reduce_component_with(
    component: Name,
    prepared: &PreparedComponent,
    config: &SieveConfig,
    sweep_kept: impl FnOnce(&[&[f64]], &[&str], &[&Name], &SieveConfig) -> Result<SweepOutcome>,
) -> Result<ComponentClustering> {
    let total_metrics = prepared.len();

    // 1. Variance filter.
    let mut filtered_metrics = Vec::new();
    let mut kept: Vec<usize> = Vec::new();
    for i in 0..prepared.len() {
        let values = prepared.series(i);
        if values.len() < 4 || is_unvarying(values, config.variance_threshold) {
            filtered_metrics.push(prepared.name(i).clone());
        } else {
            kept.push(i);
        }
    }

    if kept.is_empty() {
        return Ok(ComponentClustering {
            component,
            total_metrics,
            filtered_metrics,
            clusters: Vec::new(),
            silhouette: 0.0,
            chosen_k: 0,
        });
    }
    if kept.len() == 1 {
        return Ok(ComponentClustering {
            component,
            total_metrics,
            filtered_metrics,
            clusters: vec![MetricCluster {
                members: vec![prepared.name(kept[0]).clone()],
                representative: prepared.name(kept[0]).clone(),
                representative_distance: 0.0,
            }],
            silhouette: 0.0,
            chosen_k: 1,
        });
    }

    // Borrow contiguous views of the columnar arena — no per-stage copies
    // of the series data.
    let data: Vec<&[f64]> = kept.iter().map(|&i| prepared.series(i)).collect();
    let kept_names: Vec<&Name> = kept.iter().map(|&i| prepared.name(i)).collect();
    let names: Vec<&str> = kept_names.iter().map(|n| n.as_str()).collect();

    // 2. Try every k in the configured range and keep the best silhouette,
    // then 3. pick each cluster's representative.
    let (silhouette, chosen_k, clusters) = sweep_kept(&data, &names, &kept_names, config)?;

    Ok(ComponentClustering {
        component,
        total_metrics,
        filtered_metrics,
        clusters,
        silhouette,
        chosen_k,
    })
}

/// The k sweep and representative selection on the shared SBD engine: one
/// spectrum per kept series, one [`DistanceMatrix`] per component (built
/// through `sieve_exec::par_map_chunks`), one [`NameGroups`] every `k`'s warm
/// start is cut from, and one [`KShapeSeriesCache`] — and with it the memos
/// of refinements, first-member alignments and aligned members — passed
/// through every `k`'s fit in turn and dropped when the component's sweep
/// ends.
fn sweep(
    data: &[&[f64]],
    names: &[&str],
    kept: &[&Name],
    config: &SieveConfig,
) -> Result<SweepOutcome> {
    // Spectra of the *raw* prepared series drive the silhouette matrix and
    // the centroid-to-member representative distances; the k-Shape cache
    // holds its own spectra of the z-normalized copies.
    let spectra = compute_spectra(data, config.parallelism)?;
    let matrix = DistanceMatrix::from_spectra(&spectra, config.parallelism)?;
    let mut kshape_cache = KShapeSeriesCache::new_parallel(data, config.parallelism)?;
    // The name grouping every k's warm start is cut from.
    let mut name_groups = NameGroups::new(names);

    let max_k = config.max_clusters.min(data.len().saturating_sub(1)).max(1);
    let min_k = config.min_clusters.min(max_k);
    let mut best: Option<(f64, KShapeResult, usize)> = None;
    for k in min_k..=max_k {
        let init = name_groups.assignment(k);
        let kshape_config = KShapeConfig::new(k)
            .with_max_iterations(config.kshape_max_iterations)
            .with_initial_assignment(init);
        let result = KShape::new(kshape_config).fit_cached(&mut kshape_cache)?;
        let score = silhouette_score_from_matrix(&matrix, &result.assignments)?;
        let better = match &best {
            None => true,
            Some((best_score, _, _)) => score > *best_score,
        };
        if better {
            best = Some((score, result, k));
        }
    }
    let (silhouette, result, chosen_k) = best.expect("at least one k was evaluated");

    let clusters = build_clusters(&result, chosen_k, kept, |centroid, members| {
        // One centroid spectrum and one scratch serve the whole cluster.
        let mut scratch = SbdScratch::default();
        match SeriesSpectrum::compute(centroid) {
            Ok(cs) => members
                .iter()
                .map(|&idx| {
                    sbd_oriented(&cs, &spectra[idx], &mut scratch)
                        .map(|r| r.sbd.distance)
                        .unwrap_or(2.0)
                })
                .collect(),
            Err(_) => vec![2.0; members.len()],
        }
    });
    Ok((silhouette, chosen_k, clusters))
}

/// Builds the final clusters, picking as each cluster's representative the
/// member with the smallest centroid distance. `centroid_distances` is
/// called once per non-zero centroid with the full member-index list so
/// implementations can share per-centroid work (e.g. one spectrum per
/// cluster) and must return one distance per member, in order.
pub(crate) fn build_clusters(
    result: &KShapeResult,
    chosen_k: usize,
    kept: &[&Name],
    centroid_distances: impl Fn(&[f64], &[usize]) -> Vec<f64>,
) -> Vec<MetricCluster> {
    let mut clusters = Vec::new();
    for c in 0..chosen_k {
        let member_indices = result.members_of(c);
        if member_indices.is_empty() {
            continue;
        }
        let centroid = &result.centroids[c];
        let distances = if centroid.iter().all(|&v| v == 0.0) {
            vec![0.0; member_indices.len()]
        } else {
            centroid_distances(centroid, &member_indices)
        };
        let mut representative = member_indices[0];
        let mut best_distance = f64::INFINITY;
        for (&idx, &d) in member_indices.iter().zip(distances.iter()) {
            if d < best_distance {
                best_distance = d;
                representative = idx;
            }
        }
        clusters.push(MetricCluster {
            members: member_indices.iter().map(|&i| kept[i].clone()).collect(),
            representative: kept[representative].clone(),
            representative_distance: if best_distance.is_finite() {
                best_distance
            } else {
                0.0
            },
        });
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Sieve;
    use sieve_cluster::jaro::pre_cluster_names;
    use sieve_simulator::store::{MetricId, MetricStore};
    use std::collections::BTreeMap;

    fn named(name: &str, values: Vec<f64>) -> NamedSeries {
        NamedSeries::new(name, values)
    }

    fn shapes(kind: usize, scale: f64, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| match kind {
                0 => scale * ((i as f64) * 0.4).sin() + scale,
                1 => scale * (i as f64) / len as f64 + 0.3 * scale,
                _ => scale * if i % 16 < 2 { 1.0 } else { 0.0 },
            })
            .collect()
    }

    #[test]
    fn relative_variance_is_scale_free() {
        let small: Vec<f64> = (0..50)
            .map(|i| 0.001 * ((i as f64) * 0.3).sin() + 0.01)
            .collect();
        let large: Vec<f64> = small.iter().map(|v| v * 1.0e9).collect();
        assert!((relative_variance(&small) - relative_variance(&large)).abs() < 1e-9);
    }

    #[test]
    fn unvarying_filter_drops_constants_and_near_constants() {
        assert!(is_unvarying(&vec![5.0; 100], 0.002));
        // Constant with tiny relative jitter.
        let jittery: Vec<f64> = (0..100).map(|i| 1.0e6 + ((i % 3) as f64) * 0.1).collect();
        assert!(is_unvarying(&jittery, 0.002));
        // A genuinely varying metric survives.
        let varying: Vec<f64> = (0..100)
            .map(|i| 50.0 + 30.0 * ((i as f64) * 0.3).sin())
            .collect();
        assert!(!is_unvarying(&varying, 0.002));
    }

    /// Records each `(metric, interval_ms, values)` as a series of
    /// component `c` starting at 0 and prepares the store on the default
    /// 500 ms grid.
    fn prepare(series: &[(&str, u64, Vec<f64>)]) -> BTreeMap<Name, PreparedComponent> {
        let store = MetricStore::new();
        for (metric, interval_ms, values) in series {
            let id = MetricId::new("c", *metric);
            for (i, &value) in values.iter().enumerate() {
                store.record(&id, i as u64 * interval_ms, value);
            }
        }
        Sieve::new(SieveConfig::default()).prepare(&store)
    }

    #[test]
    fn prepare_series_aligns_lengths() {
        let prepared = &prepare(&[
            ("a", 500, (0..40).map(|i| i as f64).collect()),
            ("b", 1000, (0..30).map(|i| i as f64).collect()),
            ("tiny", 500, vec![1.0]),
        ])["c"];
        assert_eq!(prepared.len(), 2, "too-short series are skipped");
        assert_eq!(prepared.series(0).len(), prepared.series(1).len());
    }

    #[test]
    fn prepare_series_handles_empty_input() {
        assert!(prepare(&[]).is_empty());
    }

    #[test]
    fn prepare_series_skips_single_point_and_empty_series() {
        // A store holds no empty series; a single point is too short to
        // resample.
        let prepared = &prepare(&[
            ("single", 500, vec![7.0]),
            ("ok", 500, (0..20).map(|i| i as f64).collect()),
        ])["c"];
        assert_eq!(prepared.len(), 1);
        assert_eq!(prepared.name(0), "ok");
        assert_eq!(prepared.series(0).len(), 20);
    }

    #[test]
    fn prepare_series_truncates_mixed_lengths_to_the_shortest() {
        // 80 points at 500 ms vs 10 points at 500 ms: everything is cut to
        // the shorter grid so the clustering inputs stay rectangular.
        let prepared = &prepare(&[
            ("long", 500, (0..80).map(|i| (i as f64).sin()).collect()),
            ("short", 500, (0..10).map(|i| i as f64).collect()),
        ])["c"];
        assert_eq!(prepared.len(), 2);
        assert_eq!(prepared.series_len(), 10);
        assert!(prepared.iter().all(|(_, values)| values.len() == 10));
    }

    #[test]
    fn prepared_series_share_buffers_on_clone() {
        let prepared = &prepare(&[("m", 500, (0..20).map(|i| i as f64).collect())])["c"];
        let copy = prepared.clone();
        assert!(Arc::ptr_eq(copy.buffer(), prepared.buffer()));
    }

    #[test]
    fn reduce_component_groups_similar_shapes_and_picks_representatives() {
        let len = 64;
        let mut series = Vec::new();
        // Three sine-family metrics, three ramp-family metrics and two
        // constants to be filtered.
        for i in 0..3 {
            series.push(named(
                &format!("cpu_usage_{i}"),
                shapes(0, 1.0 + i as f64, len),
            ));
        }
        for i in 0..3 {
            series.push(named(
                &format!("net_bytes_{i}"),
                shapes(1, 2.0 + i as f64, len),
            ));
        }
        series.push(named("open_file_limit", vec![65536.0; len]));
        series.push(named("num_cpus", vec![4.0; len]));

        let config = SieveConfig::default().with_cluster_range(2, 4);
        let clustering =
            reduce_component("web", &PreparedComponent::from_named(&series), &config).unwrap();

        assert_eq!(clustering.total_metrics, 8);
        assert_eq!(clustering.filtered_metrics.len(), 2);
        assert!(clustering.clusters.len() >= 2);
        assert!(clustering.clusters.len() <= 4);
        // Representatives belong to their own clusters.
        for cluster in &clustering.clusters {
            assert!(cluster.contains(&cluster.representative));
        }
        // The two shape families do not share a cluster.
        let cpu_cluster = clustering.cluster_of("cpu_usage_0").unwrap();
        assert!(!cpu_cluster.contains("net_bytes_0"));
        // Reduction: 8 metrics -> at most 4 representatives.
        assert!(clustering.reduction_factor() >= 2.0);
    }

    #[test]
    fn cached_and_naive_reduction_produce_identical_clusterings() {
        let len = 64;
        let mut series = Vec::new();
        for i in 0..4 {
            series.push(named(
                &format!("cpu_usage_{i}"),
                shapes(0, 1.0 + i as f64, len),
            ));
        }
        for i in 0..4 {
            series.push(named(
                &format!("net_bytes_{i}"),
                shapes(1, 2.0 + i as f64, len),
            ));
        }
        for i in 0..3 {
            series.push(named(
                &format!("disk_iops_{i}"),
                shapes(2, 1.5 + i as f64, len),
            ));
        }
        series.push(named("flat", vec![9.0; len]));

        let base = SieveConfig::default().with_cluster_range(2, 5);
        let parallelism = base.parallelism;
        assert_cached_equals_naive(
            &PreparedComponent::from_named(&series),
            base,
            &[parallelism],
        );

        // Second fixture: a fit that never converges. Counters that are exact
        // multiples of one cumulative load differ only in rounding once
        // z-normalized; the name pre-clustering splits them over several
        // clusters, whose centroids then sit a rounding error apart, and
        // members flip between them until the iteration cap — every lap
        // served from the production sweep's refinement memo.
        let load: Vec<f64> = (0..240).map(|t| (50 + (t * 5) % 61) as f64).collect();
        let mut total = 0.0;
        let cumulative: Vec<f64> = (load.iter())
            .map(|l| {
                total += l;
                total
            })
            .collect();
        let mut series = Vec::new();
        for (name, gain) in [
            ("context_switches_total", 12.0),
            ("disk_read_bytes_total", 90.0),
            ("disk_write_bytes_total", 240.0),
            ("frontend_errors_total", 0.01),
            ("frontend_requests_total", 1.0),
            ("net_bytes_recv_total", 270.0),
            ("net_bytes_sent_total", 420.0),
            ("net_packets_recv_total", 3.6),
            ("net_packets_sent_total", 4.5),
        ] {
            series.push(named(name, cumulative.iter().map(|v| gain * v).collect()));
        }
        for (name, gain) in [
            ("cpu_usage", 0.3),
            ("cpu_usage_user", 0.2),
            ("queue_depth", 1.0),
        ] {
            series.push(named(name, load.iter().map(|l| gain * l).collect()));
        }
        let base = SieveConfig {
            kshape_max_iterations: 12,
            ..SieveConfig::default().with_cluster_range(2, 5)
        };
        let data: Vec<&[f64]> = series.iter().map(|s| &s.values[..]).collect();
        let names: Vec<&str> = series.iter().map(|s| s.name.as_str()).collect();
        let mut cache = KShapeSeriesCache::new(&data).unwrap();
        let capped = (2..=5).filter(|&k| {
            let config = KShapeConfig::new(k)
                .with_max_iterations(base.kshape_max_iterations)
                .with_initial_assignment(pre_cluster_names(&names, k));
            !KShape::new(config)
                .fit_cached(&mut cache)
                .unwrap()
                .converged
        });
        assert!(capped.count() >= 2, "the sweep must hit the cap");
        assert_cached_equals_naive(&PreparedComponent::from_named(&series), base, &[1, 4, 8]);
    }

    /// Reduces `prepared` with the direct-SBD oracle and, at each
    /// parallelism, with the production sweep, and asserts full structural
    /// equality including every representative distance and silhouette bit
    /// — the engine must not change a single one.
    fn assert_cached_equals_naive(
        prepared: &PreparedComponent,
        base: SieveConfig,
        parallelisms: &[usize],
    ) {
        let naive = crate::oracle::reduce_component("web", prepared, &base).unwrap();
        for &parallelism in parallelisms {
            let config = base.clone().with_parallelism(parallelism);
            let cached = reduce_component("web", prepared, &config).unwrap();
            assert_eq!(cached, naive);
            assert_eq!(cached.silhouette.to_bits(), naive.silhouette.to_bits());
            for (c, n) in cached.clusters.iter().zip(naive.clusters.iter()) {
                assert_eq!(
                    c.representative_distance.to_bits(),
                    n.representative_distance.to_bits()
                );
            }
        }
    }

    #[test]
    fn all_constant_component_yields_zero_clusters() {
        let series = vec![named("a", vec![1.0; 50]), named("b", vec![2.0; 50])];
        let clustering = reduce_component(
            "idle",
            &PreparedComponent::from_named(&series),
            &SieveConfig::default(),
        )
        .unwrap();
        assert_eq!(clustering.clusters.len(), 0);
        assert_eq!(clustering.chosen_k, 0);
        assert_eq!(clustering.filtered_metrics.len(), 2);
        assert_eq!(clustering.representatives().len(), 0);
    }

    #[test]
    fn single_varying_metric_becomes_its_own_cluster() {
        let series = vec![
            named("only", shapes(0, 1.0, 50)),
            named("flat", vec![3.0; 50]),
        ];
        let clustering = reduce_component(
            "single",
            &PreparedComponent::from_named(&series),
            &SieveConfig::default(),
        )
        .unwrap();
        assert_eq!(clustering.chosen_k, 1);
        assert_eq!(clustering.clusters.len(), 1);
        assert_eq!(clustering.clusters[0].representative, "only");
    }

    #[test]
    fn empty_component_is_handled() {
        let clustering = reduce_component(
            "none",
            &PreparedComponent::default(),
            &SieveConfig::default(),
        )
        .unwrap();
        assert_eq!(clustering.total_metrics, 0);
        assert_eq!(clustering.clusters.len(), 0);
    }
}
