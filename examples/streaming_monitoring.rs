//! Streaming monitoring: a simulation and an analysis session in
//! lock-step.
//!
//! Instead of recording a full run and batch-analyzing it afterwards
//! (`Sieve::analyze_application`), this example advances the simulator a
//! few seconds at a time, drains the store delta of each epoch and feeds
//! it to a long-lived [`AnalysisSession`]. The session re-prepares only
//! touched components, re-clusters only components whose prepared content
//! changed, and re-tests only Granger comparisons with a changed endpoint
//! — and still emits, at every epoch, exactly the model a from-scratch
//! batch analysis of the data so far would produce.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example streaming_monitoring
//! ```

use sieve::apps::{sharelatex, MetricRichness};
use sieve::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = sharelatex::app_spec(MetricRichness::Minimal);
    let sim_config = SimConfig::new(0xFEED)
        .with_tick_ms(500)
        .with_duration_ms(120_000);
    let mut sim = Simulation::new(app, Workload::randomized(70.0, 9), sim_config)?;

    let config = SieveConfig::default();
    let mut session = AnalysisSession::new(
        "sharelatex",
        sim.store().clone(),
        sim.call_graph(),
        config.clone(),
    )?;

    println!("Streaming ShareLatex under load, one analysis epoch per 15 s of traffic:\n");
    let mut previous: Option<std::sync::Arc<SieveModel>> = None;
    loop {
        // 30 ticks x 500 ms = one 15-second observation epoch.
        let (delta, executed) = sim.step_epoch(30);
        if executed == 0 {
            break;
        }
        session.set_call_graph(sim.call_graph());
        // The call-graph swap queues a re-plan, the delta queues its dirty
        // components; `update_shared` runs the one refresh over both and
        // returns the session's retained snapshot — no model is cloned.
        let model = session.update_shared(&delta)?;
        let stats = session.last_stats();

        let drift = match &previous {
            None => "first model".to_string(),
            Some(prev) => {
                let new_edges = model.dependency_graph.edges_not_in(&prev.dependency_graph);
                let dropped_edges = prev.dependency_graph.edges_not_in(&model.dependency_graph);
                let moved_reps = model
                    .clusterings
                    .iter()
                    .filter(|(name, c)| {
                        prev.clustering_of(name).map(|p| p.representatives())
                            != Some(c.representatives())
                    })
                    .count();
                format!(
                    "+{} / -{} edges, {} components changed representatives",
                    new_edges.len(),
                    dropped_edges.len(),
                    moved_reps
                )
            }
        };
        println!(
            "epoch {:>2}: {:>3} series touched | re-prepared {:>2}, re-clustered {:>2}, \
             re-tested {:>3}/{:>3} comparisons | {:>3} reps, {:>3} edges | drift: {}",
            delta.epoch,
            delta.touched.len(),
            stats.components_prepared,
            stats.components_reclustered,
            stats.comparisons_tested,
            stats.comparisons_planned,
            model.total_representative_count(),
            model.dependency_graph.edge_count(),
            drift
        );
        previous = Some(model);
    }

    // The incremental path is exact, not approximate: the final streamed
    // model is bit-identical to a batch analysis of the full recording.
    let streamed = previous.expect("at least one epoch ran");
    let batch = Sieve::new(config).analyze("sharelatex", sim.store(), &sim.call_graph())?;
    assert_eq!(*streamed, batch);
    println!(
        "\nFinal streamed model matches batch analysis bit for bit: {} metrics -> {} \
         representatives ({}x reduction), {} dependency edges.",
        streamed.total_metric_count(),
        streamed.total_representative_count(),
        streamed.overall_reduction_factor().round(),
        streamed.dependency_graph.edge_count()
    );
    Ok(())
}
