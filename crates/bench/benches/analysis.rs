//! Micro-benchmarks of the analysis primitives: the hot kernels
//! (twiddle-cached batched FFT vs the naive per-series oracle,
//! z-normalisation, Pearson, the OLS design fit), shape-based distance
//! (direct and via cached spectra), k-Shape clustering (warm vs cold
//! start, oracle `fit` and production `fit_cached`), silhouette scoring,
//! Granger causality, AMI — plus two
//! acceptance comparisons: the cached-distance k-sweep against the
//! direct-SBD oracle's, and the full `analyze` pipeline against
//! `oracle::analyze`.
//!
//! Run with: `cargo bench -p sieve-bench --bench analysis`
//!
//! Every measurement is appended to `BENCH_analysis.json` at the repo
//! root (see [`sieve_bench::ledger`]). `SIEVE_BENCH_SMOKE=1` (used by CI)
//! shrinks the workloads and skips the wall-clock assertions while
//! keeping every bitwise-equality assertion.

use sieve_apps::{openstack, sharelatex, MetricRichness};
use sieve_bench::harness::{smoke_mode, Runner};
use sieve_bench::ledger::Ledger;
use sieve_bench::noise::noise;
use sieve_causality::granger::{granger_causes, GrangerConfig};
use sieve_causality::ols::{fit_design, Design};
use sieve_cluster::ami::adjusted_mutual_information;
use sieve_cluster::jaro::{pre_cluster_names, NameGroups};
use sieve_cluster::kshape::{KShape, KShapeConfig, KShapeSeriesCache};
use sieve_cluster::silhouette::silhouette_score_sbd;
use sieve_core::columnar::PreparedComponent;
use sieve_core::config::SieveConfig;
use sieve_core::oracle;
use sieve_core::pipeline::{load_application, Sieve};
use sieve_core::reduce::{is_unvarying, reduce_component};
use sieve_exec::Name;
use sieve_simulator::workload::Workload;
use sieve_timeseries::fft::{fft_batch, fft_in_place_naive, Complex};
use sieve_timeseries::normalize::z_normalize;
use sieve_timeseries::sbd::shape_based_distance;
use sieve_timeseries::spectrum::{sbd_from_spectra, SeriesSpectrum};
use sieve_timeseries::stats;
use std::hint::black_box;

fn series(len: usize, seed: u64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            50.0 + 30.0 * ((i as f64) * 0.1 * (1.0 + seed as f64 * 0.1)).sin()
                + 5.0 * noise(i, seed)
        })
        .collect()
}

fn metric_family(count: usize, len: usize) -> (Vec<Vec<f64>>, Vec<String>) {
    let mut data = Vec::new();
    let mut names = Vec::new();
    for m in 0..count {
        let family = m % 3;
        let values: Vec<f64> = (0..len)
            .map(|i| match family {
                0 => 40.0 + 20.0 * ((i as f64) * 0.12).sin() + 2.0 * noise(i, m as u64),
                1 => i as f64 * 0.5 + 3.0 * noise(i, m as u64),
                _ => {
                    if i % 24 < 3 {
                        10.0 + noise(i, m as u64)
                    } else {
                        noise(i, m as u64)
                    }
                }
            })
            .collect();
        data.push(values);
        names.push(format!("family{family}_metric_{m}"));
    }
    (data, names)
}

/// The batched-FFT kernel acceptance comparison: one pass over a packed
/// `64 × 1024` split-complex arena (`re[]`, `im[]`) with the shared twiddle
/// table versus transforming every series independently through the naive
/// interleaved seed oracle. Spectra must match bit for bit, and the batched
/// path must win by ≥ 1.3x on non-smoke hosts (the comparison is serial, so
/// core count is irrelevant).
fn bench_fft_kernels(runner: &mut Runner) {
    let n = 1024usize;
    let count = if smoke_mode() { 8 } else { 64 };
    let signals: Vec<Vec<Complex>> = (0..count)
        .map(|c| {
            (0..n)
                .map(|i| Complex::new(noise(i, c as u64 + 1), 0.0))
                .collect()
        })
        .collect();
    // The same real signals, packed end to end for the split transform.
    let packed_re: Vec<f64> = signals.iter().flatten().map(|c| c.re).collect();

    // Bitwise oracle: the batched transform equals the seed FFT per series.
    let (mut batch_re, mut batch_im) = (packed_re.clone(), vec![0.0; count * n]);
    fft_batch(&mut batch_re, &mut batch_im, n);
    for (c, signal) in signals.iter().enumerate() {
        let mut single = signal.clone();
        fft_in_place_naive(&mut single);
        let chunk = c * n..(c + 1) * n;
        let parts = batch_re[chunk.clone()].iter().zip(&batch_im[chunk]);
        for ((re, im), b) in parts.zip(&single) {
            assert_eq!(re.to_bits(), b.re.to_bits(), "series {c} re");
            assert_eq!(im.to_bits(), b.im.to_bits(), "series {c} im");
        }
    }

    let iters = if smoke_mode() { 2 } else { 100 };
    runner.bench(&format!("fft/naive_per_series_{count}x{n}"), iters, || {
        let mut checksum = 0.0;
        for signal in &signals {
            let mut buf = signal.clone();
            fft_in_place_naive(&mut buf);
            checksum += buf[0].re;
        }
        black_box(checksum)
    });
    runner.bench(&format!("fft/batch_{count}x{n}"), iters, || {
        batch_re.copy_from_slice(&packed_re);
        batch_im.fill(0.0);
        fft_batch(&mut batch_re, &mut batch_im, n);
        black_box(batch_re[0])
    });
    let naive = runner
        .measurement(&format!("fft/naive_per_series_{count}x{n}"))
        .unwrap()
        .min();
    let batch = runner
        .measurement(&format!("fft/batch_{count}x{n}"))
        .unwrap()
        .min();
    let speedup = naive.as_secs_f64() / batch.as_secs_f64().max(1e-12);
    println!(
        "fft: batched twiddle-cached speedup over naive per-series (best of {iters}): \
         {speedup:.2}x (naive {naive:.3?}, batch {batch:.3?})"
    );
    if smoke_mode() {
        println!("fft: smoke mode — wall-clock assertion skipped");
    } else {
        assert!(
            speedup >= 1.3,
            "batched FFT must be at least 1.3x faster than the naive \
             per-series oracle, got {speedup:.2}x"
        );
    }
}

/// Timings of the scalar hot loops the clustering and causality stages
/// lean on: z-normalisation, Pearson correlation and the OLS design fit.
fn bench_stat_kernels(runner: &mut Runner) {
    let len = 2048usize;
    let x = series(len, 1);
    let y = series(len, 2);
    let iters = if smoke_mode() { 2 } else { 200 };
    runner.bench(&format!("kernels/z_normalize_{len}"), iters, || {
        black_box(z_normalize(black_box(&x)))
    });
    runner.bench(&format!("kernels/pearson_{len}"), iters, || {
        black_box(stats::pearson(black_box(&x), black_box(&y)))
    });

    // A Granger-shaped design: intercept + 3 lags of y + 3 lags of x.
    let lag = 3usize;
    let rows = len - lag;
    let mut design = Design::new();
    design.reset(rows);
    design.push_intercept();
    for l in 1..=lag {
        design
            .push_column(&y[lag - l..len - l])
            .expect("lagged column matches the design");
        design
            .push_column(&x[lag - l..len - l])
            .expect("lagged column matches the design");
    }
    let target = &y[lag..];
    runner.bench(&format!("kernels/fit_design_{rows}x7"), iters, || {
        fit_design(black_box(&design), black_box(target)).unwrap()
    });
}

fn bench_sbd(runner: &mut Runner) {
    for len in [128usize, 512, 2048] {
        let a = series(len, 1);
        let b = series(len, 2);
        runner.bench(&format!("sbd/{len}"), 50, || {
            shape_based_distance(black_box(&a), black_box(&b)).unwrap()
        });
    }
}

fn bench_sbd_spectra(runner: &mut Runner) {
    for len in [128usize, 512, 2048] {
        let a = series(len, 1);
        let b = series(len, 2);
        let sa = SeriesSpectrum::compute(&a).unwrap();
        let sb = SeriesSpectrum::compute(&b).unwrap();
        // Sanity: cached == direct, bit for bit.
        assert_eq!(
            sbd_from_spectra(&sa, &sb).unwrap().distance.to_bits(),
            shape_based_distance(&a, &b).unwrap().distance.to_bits()
        );
        runner.bench(&format!("sbd_spectra/{len}"), 50, || {
            sbd_from_spectra(black_box(&sa), black_box(&sb)).unwrap()
        });
    }
}

/// One component's kept series and their metric names, as the k sweep
/// receives them.
type SweepInput = (Vec<Vec<f64>>, Vec<String>);

/// Replays the k sweeps `reduce_component` runs over `components` (every
/// series must survive the variance filter), each component through one
/// [`NameGroups`] and one [`KShapeSeriesCache`], and reports what the timed
/// rows cannot show: how many fits hit the iteration cap, how much of the
/// work the sweep-wide memos answered and how many distance cells the
/// spectral bound ruled out — with the share of the every-cell evaluation
/// count that was still spent.
fn sweep_traffic(components: &[SweepInput], config: &SieveConfig) -> (String, f64) {
    let (mut fits, mut unconverged) = (0u64, 0u64);
    // refinements, first-member alignments, aligned spectra: (performed, reused)
    let mut memo = [(0u64, 0u64); 3];
    let (mut evaluations, mut power_steps, mut peak_aligned, mut spectra) = (0, 0, 0, 0);
    let (mut ruled_out, mut bounds) = (0, 0);
    for (data, names) in components {
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let mut name_groups = NameGroups::new(&name_refs);
        let mut cache = KShapeSeriesCache::new(data).unwrap();
        let max_k = config.max_clusters.min(data.len() - 1).max(1);
        for k in config.min_clusters.min(max_k)..=max_k {
            let kshape = KShape::new(
                KShapeConfig::new(k)
                    .with_max_iterations(config.kshape_max_iterations)
                    .with_initial_assignment(name_groups.assignment(k)),
            );
            let result = kshape.fit_cached(&mut cache).unwrap();
            fits += 1;
            unconverged += u64::from(!result.converged);
        }
        for (total, (performed, reused)) in memo.iter_mut().zip([
            (cache.refinements(), cache.refinements_reused()),
            (cache.alignments(), cache.alignments_reused()),
            (cache.aligned_spectra(), cache.aligned_spectra_reused()),
        ]) {
            total.0 += performed;
            total.1 += reused;
        }
        evaluations += cache.sbd_evaluations();
        ruled_out += cache.cells_ruled_out();
        bounds += cache.bounds_computed();
        power_steps += cache.power_steps();
        spectra += cache.spectra_computed();
        peak_aligned = peak_aligned.max(cache.aligned_spectra());
    }
    let [refinements, alignments, aligned] = memo;
    let every_cell = evaluations + ruled_out;
    let note = format!(
        "{fits} fits, {unconverged} unconverged at the {}-iteration cap; {} refinements \
         performed, {} reused from the sweep-wide memo; first-member alignments {} evaluated, \
         {} reused; aligned spectra {} computed (at most {peak_aligned} held by one component), \
         {} reused; {power_steps} power steps taken of {} possible; {spectra} forward transforms; \
         {evaluations} SBD evaluations \
         of the {} evaluating every column cell costs, {ruled_out} cells ruled out / {bounds} \
         bounds computed",
        config.kshape_max_iterations,
        refinements.0,
        refinements.1,
        alignments.0,
        alignments.1,
        aligned.0,
        aligned.1,
        refinements.0 * KShapeConfig::new(1).power_iterations as u64,
        every_cell,
    );
    (note, evaluations as f64 / every_cell as f64)
}

/// The kept series of every component of ShareLatex and OpenStack that
/// reaches the k sweep — the `batch-analyze` benchmark's inputs (`Full`
/// metric richness, data seed 7, one 240-tick window; `Minimal` in smoke
/// mode).
fn paper_application_sweeps(config: &SieveConfig) -> Vec<SweepInput> {
    let richness = if smoke_mode() {
        MetricRichness::Minimal
    } else {
        MetricRichness::Full
    };
    let sieve = Sieve::new(config.clone());
    let mut components = Vec::new();
    for app in [
        sharelatex::app_spec(richness),
        openstack::app_spec(richness),
    ] {
        let (store, _) =
            load_application(&app, &Workload::randomized(60.0, 7), 7, 120_000, 500).unwrap();
        for prepared in sieve.prepare(&store).values() {
            let (names, data): (Vec<String>, Vec<Vec<f64>>) = prepared
                .iter()
                .filter(|(_, v)| v.len() >= 4 && !is_unvarying(v, config.variance_threshold))
                .map(|(name, values)| (name.to_string(), values.to_vec()))
                .unzip();
            if data.len() >= 2 {
                components.push((data, names));
            }
        }
    }
    components
}

/// Every k sweep of the two paper applications, replayed outside the
/// pipeline (cache build and fits; no distance matrix, no silhouette): the
/// row whose note carries the memo traffic of the `batch-analyze` inputs.
fn bench_paper_application_sweeps(runner: &mut Runner) -> String {
    let config = SieveConfig::default().with_parallelism(1);
    let components = paper_application_sweeps(&config);
    let series: usize = components.iter().map(|(data, _)| data.len()).sum();
    let (traffic, evaluated_share) = sweep_traffic(&components, &config);
    let note = format!(
        "sharelatex + openstack, {} components / {series} kept series, parallelism=1: {traffic}",
        components.len(),
    );
    println!("reduce_k_sweep/paper_apps: {note}");
    // A ratio, not a count: the exact counts follow libm's twiddles from
    // host to host. 0.551 when the bound went in (16,405 of 29,768).
    if !smoke_mode() {
        assert!(
            evaluated_share <= 0.70,
            "the spectral bound must rule out at least 30 % of the every-cell evaluations \
             on the paper applications; {evaluated_share:.3} of them were still issued"
        );
    }
    let iters = if smoke_mode() { 1 } else { 5 };
    runner.bench("reduce_k_sweep/paper_apps", iters, || {
        black_box(sweep_traffic(black_box(&components), &config))
    });
    note
}

/// The acceptance comparison: one component's full k-sweep + silhouette
/// stage (what `reduce_component` spends its time on) with the shared SBD
/// engine versus the direct-SBD oracle. The engine must be at least
/// 6x faster — about 70 % of the 8.2–9.1x measured (7.6x before the sweep
/// shared first alignments, aligned members and the name grouping and
/// before the power iteration stopped at a recurrence; 4.6x while the
/// refinement memo only saw the previous step, 3.1x before the k-Shape
/// iteration was memoised at all) — while producing an identical
/// clustering. Returns the ledger note for the `reduce_k_sweep/cached` and
/// `/naive` rows: the sweep's memo traffic.
fn bench_reduce_k_sweep_cached_vs_naive(runner: &mut Runner) -> String {
    let (data, names) = metric_family(30, 240);
    let prepared = PreparedComponent::from_rows(
        names
            .iter()
            .zip(data.iter().cloned())
            .map(|(name, values)| (Name::new(name), values)),
    );
    // parallelism = 1 so the comparison is purely algorithmic — the cached
    // path must win on FFT reuse alone, not on threads.
    let config = SieveConfig::default()
        .with_cluster_range(2, 6)
        .with_parallelism(1);
    let note = format!(
        "30 series x 240, k=2..=6, parallelism=1: {}",
        sweep_traffic(&[(data.clone(), names.clone())], &config).0
    );
    println!("reduce_k_sweep: {note}");

    let cached_model = reduce_component("bench", &prepared, &config).unwrap();
    let naive_model = oracle::reduce_component("bench", &prepared, &config).unwrap();
    assert_eq!(
        cached_model, naive_model,
        "cached and naive reduction must produce identical clusterings"
    );

    let iters = if smoke_mode() { 1 } else { 5 };
    runner.bench("reduce_k_sweep/cached", iters, || {
        reduce_component("bench", black_box(&prepared), &config).unwrap()
    });
    runner.bench("reduce_k_sweep/naive", iters, || {
        oracle::reduce_component("bench", black_box(&prepared), &config).unwrap()
    });
    let cached = runner.measurement("reduce_k_sweep/cached").unwrap().min();
    let naive = runner.measurement("reduce_k_sweep/naive").unwrap().min();
    let speedup = naive.as_secs_f64() / cached.as_secs_f64().max(1e-12);
    println!(
        "reduce_k_sweep: cached-distance path speedup over naive (best of {iters}): \
         {speedup:.2}x (naive {naive:.3?}, cached {cached:.3?})"
    );
    if !smoke_mode() {
        assert!(
            speedup >= 6.0,
            "cached k-sweep must be at least 6x faster than the naive path, got {speedup:.2}x"
        );
    }
    note
}

/// The end-to-end acceptance comparison: the full `analyze` pipeline (shared
/// SBD and Granger engines) versus `oracle::analyze` (neither), on the same
/// recorded store at parallelism 1. The models must be bit-identical and
/// the engine path at least 1.2x faster on non-smoke multi-core hosts.
fn bench_full_analyze_cached_vs_naive(runner: &mut Runner) {
    let app = sharelatex::app_spec(MetricRichness::Minimal);
    let duration = if smoke_mode() { 30_000 } else { 120_000 };
    let (store, call_graph) =
        load_application(&app, &Workload::randomized(70.0, 3), 5, duration, 500).unwrap();
    let config = SieveConfig::default().with_parallelism(1);
    let cached_sieve = Sieve::new(config.clone());

    let cached_model = cached_sieve
        .analyze("sharelatex", &store, &call_graph)
        .unwrap();
    let naive_model = oracle::analyze("sharelatex", &store, &call_graph, &config).unwrap();
    assert_eq!(
        cached_model, naive_model,
        "the engines and the oracle must produce bit-identical models"
    );

    let iters = if smoke_mode() { 1 } else { 3 };
    runner.bench("analyze_full/engines-on", iters, || {
        cached_sieve
            .analyze("sharelatex", black_box(&store), &call_graph)
            .unwrap()
    });
    runner.bench("analyze_full/engines-off", iters, || {
        oracle::analyze("sharelatex", black_box(&store), &call_graph, &config).unwrap()
    });
    let cached = runner.measurement("analyze_full/engines-on").unwrap().min();
    let naive = runner
        .measurement("analyze_full/engines-off")
        .unwrap()
        .min();
    let speedup = naive.as_secs_f64() / cached.as_secs_f64().max(1e-12);
    println!(
        "analyze_full: engine-path speedup over the oracle (best of {iters}): \
         {speedup:.2}x (oracle {naive:.3?}, engines {cached:.3?})"
    );
    if smoke_mode() {
        println!("analyze_full: smoke mode — wall-clock assertion skipped");
    } else if sieve_exec::par::hardware_parallelism() > 1 {
        assert!(
            speedup >= 1.2,
            "the full pipeline with engines on must be at least 1.2x faster \
             than the oracle, got {speedup:.2}x"
        );
    } else {
        println!("analyze_full: single-core host — the ≥1.2x assertion runs on multi-core hosts");
    }
}

/// k-Shape at k = 5, cold (round-robin) versus Jaro warm start, through
/// both the oracle `fit` and the production `fit_cached` (cache build
/// excluded: the k sweep builds it once for every k). Every timed
/// `fit_cached` runs on a fresh clone of the cache as built — an empty
/// refinement memo — so the rows keep meaning "one cold fit" rather than
/// "a fit the memo already knows". Returns the ledger note for the
/// `kshape/*` rows: a start's cost is mostly how many iterations it takes
/// to converge, so the note records them.
fn bench_kshape(runner: &mut Runner) -> String {
    let (data, names) = metric_family(30, 240);
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let cache = KShapeSeriesCache::new(&data).unwrap();
    let cold = KShape::new(KShapeConfig::new(5).with_max_iterations(30));
    let jaro = KShape::new(
        KShapeConfig::new(5)
            .with_max_iterations(30)
            .with_initial_assignment(pre_cluster_names(&name_refs, 5)),
    );
    let mut note = String::from(
        "30 series x 240, k=5, max 30 iterations; fit_cached rows start from an empty memo",
    );
    for (start, kshape) in [("cold", &cold), ("jaro", &jaro)] {
        let result = kshape.fit_cached(&mut cache.clone()).unwrap();
        assert_eq!(
            result,
            kshape.fit(&data).unwrap(),
            "{start}: fit_cached must be bit-identical to fit"
        );
        note.push_str(&format!(
            "; {start} start converges in {} iteration(s)",
            result.iterations
        ));
    }
    println!("kshape: {note}");

    runner.bench("kshape/cold_start_k5", 10, || {
        cold.fit(black_box(&data)).unwrap()
    });
    runner.bench("kshape/jaro_warm_start_k5", 10, || {
        let init = pre_cluster_names(&name_refs, 5);
        KShape::new(
            KShapeConfig::new(5)
                .with_max_iterations(30)
                .with_initial_assignment(init),
        )
        .fit(black_box(&data))
        .unwrap()
    });
    runner.bench("kshape/fit_cached_cold_k5", 10, || {
        cold.fit_cached(black_box(&mut cache.clone())).unwrap()
    });
    runner.bench("kshape/fit_cached_jaro_k5", 10, || {
        jaro.fit_cached(black_box(&mut cache.clone())).unwrap()
    });
    note
}

fn bench_silhouette(runner: &mut Runner) {
    let (data, _) = metric_family(24, 240);
    let labels: Vec<usize> = (0..data.len()).map(|i| i % 3).collect();
    runner.bench("silhouette_sbd_24x240", 20, || {
        silhouette_score_sbd(black_box(&data), black_box(&labels)).unwrap()
    });
}

fn bench_granger(runner: &mut Runner) {
    for len in [120usize, 300, 600] {
        let x = series(len, 3);
        let y: Vec<f64> = (0..len)
            .map(|i| {
                if i == 0 {
                    0.0
                } else {
                    1.5 * x[i - 1] + noise(i, 9)
                }
            })
            .collect();
        let config = GrangerConfig::default();
        runner.bench(&format!("granger/{len}"), 50, || {
            granger_causes(black_box(&x), black_box(&y), &config).unwrap()
        });
    }
}

fn bench_ami(runner: &mut Runner) {
    let a: Vec<usize> = (0..500).map(|i| i % 7).collect();
    let b: Vec<usize> = (0..500).map(|i| (i / 3) % 7).collect();
    runner.bench("ami_500_labels", 50, || {
        adjusted_mutual_information(black_box(&a), black_box(&b)).unwrap()
    });
}

fn main() {
    let mut runner = Runner::new();
    bench_fft_kernels(&mut runner);
    bench_stat_kernels(&mut runner);
    bench_sbd(&mut runner);
    bench_sbd_spectra(&mut runner);
    let sweep_note = bench_reduce_k_sweep_cached_vs_naive(&mut runner);
    let paper_note = bench_paper_application_sweeps(&mut runner);
    bench_full_analyze_cached_vs_naive(&mut runner);
    let kshape_note = bench_kshape(&mut runner);
    bench_silhouette(&mut runner);
    bench_granger(&mut runner);
    bench_ami(&mut runner);

    let ledger = Ledger::new("analysis");
    for m in runner.measurements() {
        let note = if m.name.starts_with("kshape/") {
            kshape_note.as_str()
        } else if m.name == "reduce_k_sweep/paper_apps" {
            paper_note.as_str()
        } else if m.name.starts_with("reduce_k_sweep/") {
            sweep_note.as_str()
        } else {
            "synthetic kernels + sharelatex minimal, parallelism=1 comparisons"
        };
        ledger.record(m, note);
    }
    println!("analysis: {}", ledger.outcome());
}
