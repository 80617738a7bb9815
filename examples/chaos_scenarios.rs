//! Chaos scenarios: grading Sieve against scripted ground truth.
//!
//! The scenario engine generates adversarial deployments whose ground
//! truth is known by construction — the generator scripted every fault,
//! burst and dependency flip. This example runs two scenarios from the
//! named matrix and grades the pipeline's answers:
//!
//! * `root-cause` injects a fault into `svc-a` at epoch 5 — RCA comparing
//!   the last pre-fault model against the final one must rank `svc-a`
//!   in the top-3;
//! * `edge-drift` scripts a dependency edge appearing at epoch 2 and
//!   another disappearing at epoch 5 — the incremental session must
//!   track both flips within 3 epochs.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example chaos_scenarios
//! ```

use sieve::prelude::*;
use sieve::scenario::{edge_drift, root_cause, run_streamed, DRIFT_WINDOW_EPOCHS, RCA_TOP_K};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for spec in [root_cause(), edge_drift()] {
        let seed = 41;
        let data = generate(&spec, seed)?;
        println!(
            "scenario {:>12} seed {seed}: {} epochs, {} points, {} scripted events",
            spec.name,
            data.epochs.len(),
            data.point_count(),
            spec.events.len()
        );

        // Stream the scenario epoch by epoch through an analysis session,
        // exactly as a live deployment would arrive.
        let models = run_streamed(&data, &spec.analysis_config(1))?;

        // Grade against the scripted truth.
        if let Some(rca) = score_rca(&models, &data.truth, RcaConfig::default(), RCA_TOP_K) {
            println!(
                "  rca:    injected root cause {} ranked {:?} — top-{} {}",
                rca.component,
                rca.rank,
                rca.top_k,
                if rca.hit() { "HIT" } else { "MISS" }
            );
        }
        let drift = score_drift(&models, &data.truth);
        for outcome in &drift.outcomes {
            println!(
                "  drift:  {} -> {} {} at epoch {} — detected at {:?} (lag {:?}, within {} epochs: {})",
                outcome.caller,
                outcome.callee,
                if outcome.up { "up" } else { "down" },
                outcome.scripted_epoch,
                outcome.detected_epoch,
                outcome.lag_epochs(),
                DRIFT_WINDOW_EPOCHS,
                outcome.tracked_within(DRIFT_WINDOW_EPOCHS)
            );
        }
        let clusters = score_clusters(models.last().unwrap(), &data.truth);
        println!(
            "  family: chosen-k mean absolute error {:.2} across {} components",
            clusters.mean_abs_error(),
            clusters.per_component.len()
        );
    }
    Ok(())
}
