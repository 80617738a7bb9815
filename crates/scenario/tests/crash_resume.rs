//! Crash-safety scenario test: kill a durable [`SieveService`] halfway
//! through an adversarial scenario, recover the directory, resume the
//! remaining epochs — the final model and every derived score must be
//! bit-identical to an uncrashed run of the same scenario.

use sieve_rca::RcaConfig;
use sieve_scenario::{generate, run_served, score_clusters, score_drift, score_rca};
use sieve_serve::{DurabilityConfig, FsyncPolicy, ServeConfig, SieveService};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sieve-scenario-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path, analysis: sieve_core::SieveConfig) -> ServeConfig {
    ServeConfig {
        shard_count: 2,
        sweep_parallelism: 1,
        analysis,
        durability: Some(
            DurabilityConfig::new(dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every_events(512),
        ),
    }
}

#[test]
fn crash_and_recovery_mid_scenario_changes_no_score() {
    let spec = sieve_scenario::root_cause();
    let seed = 41;
    let data = generate(&spec, seed).unwrap();
    let analysis = spec.analysis_config(1);

    // Uncrashed oracle: the plain served run (memory-only).
    let oracle = run_served(
        &data,
        ServeConfig {
            shard_count: 2,
            sweep_parallelism: 1,
            analysis: analysis.clone(),
            durability: None,
        },
    )
    .unwrap();

    // Crashed run: durable service, killed after epoch 3 — mid-scenario,
    // before the epoch-5 fault injection — then recovered and resumed.
    let dir = temp_dir("crash");
    let crash_after = 4; // epochs 0..4 ingested pre-crash
    let service = SieveService::new(durable_config(&dir, analysis.clone())).unwrap();
    service
        .create_tenant_with_retention(
            &data.name,
            data.epochs[0].call_graph.clone(),
            data.retention,
        )
        .unwrap();
    let mut models = Vec::new();
    for epoch in &data.epochs[..crash_after] {
        service.ingest(&data.name, &epoch.points).unwrap();
        service
            .set_call_graph(&data.name, epoch.call_graph.clone())
            .unwrap();
        service.refresh_all().unwrap();
        models.push(service.model(&data.name).unwrap().unwrap());
    }
    drop(service); // crash: no orderly shutdown beyond the WAL's own writes

    let (recovered, report) = SieveService::recover(durable_config(&dir, analysis)).unwrap();
    assert!(report.is_clean(), "{report}");
    for epoch in &data.epochs[crash_after..] {
        recovered.ingest(&data.name, &epoch.points).unwrap();
        recovered
            .set_call_graph(&data.name, epoch.call_graph.clone())
            .unwrap();
        recovered.refresh_all().unwrap();
        models.push(recovered.model(&data.name).unwrap().unwrap());
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Model per epoch, bit-identical to the uncrashed run.
    assert_eq!(models.len(), oracle.len());
    for (epoch, (crashed, uncrashed)) in models.iter().zip(oracle.iter()).enumerate() {
        assert_eq!(
            **crashed, **uncrashed,
            "epoch {epoch}: crashed-and-recovered model differs from the uncrashed run"
        );
    }

    // And therefore every derived score is identical too.
    let rca_crashed = score_rca(&models, &data.truth, RcaConfig::default(), 3).unwrap();
    let rca_oracle = score_rca(&oracle, &data.truth, RcaConfig::default(), 3).unwrap();
    assert_eq!(rca_crashed.rank, rca_oracle.rank);
    assert!(rca_crashed.hit());
    assert_eq!(
        score_drift(&models, &data.truth),
        score_drift(&oracle, &data.truth)
    );
    let finals: Vec<&Arc<_>> = vec![models.last().unwrap(), oracle.last().unwrap()];
    assert_eq!(
        score_clusters(finals[0], &data.truth).per_component,
        score_clusters(finals[1], &data.truth).per_component
    );
}
