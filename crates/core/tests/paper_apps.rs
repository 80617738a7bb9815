//! The paper's two applications at `Full` metric richness: the k sweeps of
//! every component ShareLatex and OpenStack bring to it.
//!
//! The test prints the sweeps' work counts — fits, memo traffic,
//! power steps, forward transforms, SBD evaluations and the cells the
//! spectral bound ruled out — as one `reduce_k_sweep/paper_apps:` line;
//! `cargo test --release -p sieve-core --test paper_apps -- --nocapture`
//! shows it.
//!
//! The same inputs, with a `ManySmall` fleet's windows, also pin that the
//! benchmark's gated workloads are sampled on the grid: resampling copies
//! them and their analysis interpolates no grid point.

use sieve_apps::tenants::{tenant_fleet, TenantMix};
use sieve_apps::{openstack, sharelatex, MetricRichness};
use sieve_cluster::jaro::NameGroups;
use sieve_cluster::{KShape, KShapeConfig, KShapeSeriesCache};
use sieve_core::reduce::is_unvarying;
use sieve_core::{load_application, AnalysisSession, Sieve, SieveConfig};
use sieve_graph::CallGraph;
use sieve_simulator::store::{MetricStore, RetentionPolicy};
use sieve_simulator::{SimConfig, Simulation, Workload};
use sieve_timeseries::resample::resample_values_into;

/// One component's kept series and their metric names, as the k sweep
/// receives them.
type SweepInput = (Vec<Vec<f64>>, Vec<String>);

/// ShareLatex and OpenStack at `Full` metric richness, data seed 7, one
/// 240-tick window — the `batch-analyze` benchmark's inputs.
fn paper_application_stores() -> Vec<(String, MetricStore, CallGraph)> {
    [
        sharelatex::app_spec(MetricRichness::Full),
        openstack::app_spec(MetricRichness::Full),
    ]
    .into_iter()
    .map(|app| {
        let (store, graph) =
            load_application(&app, &Workload::randomized(60.0, 7), 7, 120_000, 500).unwrap();
        (app.name, store, graph)
    })
    .collect()
}

/// The kept series of every component of the paper applications that
/// reaches the k sweep.
fn paper_application_sweeps(config: &SieveConfig) -> Vec<SweepInput> {
    let sieve = Sieve::new(config.clone());
    let mut components = Vec::new();
    for (_, store, _) in paper_application_stores() {
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

/// What replaying the k sweeps `reduce_component` runs over `components`
/// costs, each component through one [`NameGroups`] and one
/// [`KShapeSeriesCache`].
struct SweepTraffic {
    note: String,
    cells_ruled_out: u64,
    evaluated_share: f64,
}

fn sweep_traffic(components: &[SweepInput], config: &SieveConfig) -> SweepTraffic {
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
    SweepTraffic {
        note,
        cells_ruled_out: ruled_out,
        evaluated_share: evaluations as f64 / every_cell as f64,
    }
}

#[test]
fn paper_app_sweeps_rule_cells_out_by_the_spectral_bound() {
    let config = SieveConfig::default().with_parallelism(1);
    let components = paper_application_sweeps(&config);
    let series: usize = components.iter().map(|(data, _)| data.len()).sum();
    let traffic = sweep_traffic(&components, &config);
    println!(
        "reduce_k_sweep/paper_apps: sharelatex + openstack, {} components / {series} kept \
         series, parallelism=1: {}",
        components.len(),
        traffic.note
    );
    assert!(
        traffic.cells_ruled_out >= 1,
        "the spectral bound ruled out no distance cell on the paper applications"
    );
    // A ratio, not a count: the exact counts follow the simulated series,
    // which libm shapes, from host to host. 0.551 when the bound went in
    // (16,405 of 29,768).
    assert!(
        traffic.evaluated_share <= 0.70,
        "the spectral bound must rule out at least 30 % of the every-cell evaluations \
         on the paper applications; {:.3} of them were still issued",
        traffic.evaluated_share
    );
}

/// Four tenants of a `ManySmall` fleet, as the `crash-recover` benchmark
/// serves them: 600 ticks from an origin off the epoch, kept in 240-tick
/// windows.
fn many_small_fleet_windows() -> Vec<MetricStore> {
    tenant_fleet(TenantMix::ManySmall, 4, 11)
        .into_iter()
        .map(|tenant| {
            let config = SimConfig::new(tenant.seed)
                .with_tick_ms(500)
                .with_duration_ms(600 * 500);
            let mut sim = Simulation::new(tenant.spec, tenant.workload, config).unwrap();
            let store = MetricStore::with_retention(RetentionPolicy::windowed(240));
            let record = |id: &_, t, value| {
                store.record(id, 1_700_000_000_250 + t, value);
            };
            while sim.step_observed(record).is_some() {}
            assert!(store.evicted_point_count() > 0, "the window slides");
            store
        })
        .collect()
}

#[test]
fn the_gated_inputs_resample_to_their_own_values() {
    // Every series both gated workloads analyse is sampled on the grid, so
    // resampling is a copy: no grid point needs the spline.
    let stores = paper_application_stores()
        .into_iter()
        .map(|(_, store, _)| store)
        .chain(many_small_fleet_windows());
    let mut series = 0;
    for store in stores {
        for component in store.components() {
            store.for_each_series_of(component.as_str(), |id, view| {
                let mut values = Vec::new();
                let interpolated = resample_values_into(view, 500, &mut values);
                assert_eq!(interpolated, Ok(0), "{id:?}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&values), bits(view.values()), "{id:?}");
                series += 1;
            });
        }
    }
    assert!(series > 900, "{series} series");
}

#[test]
fn the_paper_applications_are_analysed_without_interpolation() {
    // What `Sieve::analyze` runs — one refresh of a fresh session — at
    // every executor degree: no grid point is interpolated, and the model
    // is the one every degree publishes.
    for (name, store, graph) in paper_application_stores() {
        let mut reference = None;
        for parallelism in [1, 4, 8] {
            let config = SieveConfig::default().with_parallelism(parallelism);
            let mut session =
                AnalysisSession::new(&name, store.clone(), graph.clone(), config).unwrap();
            let model = session.refresh().unwrap();
            let stats = session.last_stats();
            assert!(stats.components_prepared > 0, "{name}");
            assert_eq!(stats.grid_points_interpolated, 0, "{name} at {parallelism}");
            assert_eq!(*reference.get_or_insert(model.clone()), model, "{name}");
        }
    }
}
