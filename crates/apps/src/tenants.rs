//! Multi-tenant workload profiles for the serving layer.
//!
//! A serving deployment ([`sieve-serve`]) multiplexes many isolated
//! applications over one analysis fleet, and its performance envelope is
//! shaped by the tenant *mix*: many small applications stress the
//! per-tenant fixed costs and the sweep fan-out, while a few large
//! applications stress per-tenant analysis depth. The builders here
//! generate deterministic fleets of both shapes for benchmarks, examples
//! and tests — every tenant gets its own [`AppSpec`], [`Workload`] and
//! seed, derived only from the fleet seed and the tenant index, so a fleet
//! is bit-reproducible anywhere.
//!
//! [`sieve-serve`]: ../../sieve_serve/index.html

use crate::profiles::{datastore_metrics, http_service_metrics, system_metrics, MetricRichness};
use crate::sharelatex;
use sieve_exec::hash::splitmix64;
use sieve_simulator::{AppSpec, CallSpec, ComponentSpec, Workload};

/// The shape of a multi-tenant fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantMix {
    /// Many tenants, each a small 3-component application (gateway → api →
    /// db, a handful of metrics per component). Stresses tenant count:
    /// registry routing, sweep fan-out, per-tenant fixed costs.
    ManySmall,
    /// Few tenants, each a full ShareLatex-like deployment (15 components).
    /// Stresses per-tenant analysis depth: one dirty tenant means real
    /// clustering and Granger work.
    FewLarge,
}

/// One tenant of a generated fleet: everything needed to simulate its
/// traffic and register it with a serving layer.
#[derive(Debug, Clone)]
pub struct TenantWorkload {
    /// Tenant name, unique within the fleet (e.g. `tenant-03`).
    pub name: String,
    /// The tenant's application model.
    pub spec: AppSpec,
    /// The tenant's request workload (per-tenant base rate and seed).
    pub workload: Workload,
    /// Simulation seed for the tenant (deterministic per fleet seed and
    /// tenant index).
    pub seed: u64,
}

/// A small per-tenant application: gateway → api → db with the standard
/// metric families in `Minimal` richness (≈ 10 series per tenant).
fn small_app(name: &str) -> AppSpec {
    let mut app = AppSpec::new(name, "gateway");
    app.add_component(
        ComponentSpec::new("gateway")
            .with_capacity(250.0)
            .with_metrics(system_metrics(0.3, MetricRichness::Minimal))
            .with_metrics(http_service_metrics("gw", 250.0, MetricRichness::Minimal)),
    );
    app.add_component(
        ComponentSpec::new("api")
            .with_capacity(120.0)
            .with_metrics(system_metrics(0.8, MetricRichness::Minimal))
            .with_metrics(http_service_metrics("api", 120.0, MetricRichness::Minimal)),
    );
    app.add_component(
        ComponentSpec::new("db")
            .with_capacity(300.0)
            .with_metrics(system_metrics(0.5, MetricRichness::Minimal))
            .with_metrics(datastore_metrics("db", 300.0, MetricRichness::Minimal)),
    );
    app.add_call(CallSpec::new("gateway", "api").with_lag_ms(500));
    app.add_call(CallSpec::new("api", "db").with_fanout(2.0).with_lag_ms(500));
    app
}

/// Generates a deterministic fleet of `tenants` tenants of the given mix.
///
/// Per-tenant seeds and workload rates are derived from `fleet_seed` and
/// the tenant index through splitmix64, so two fleets with the same
/// arguments are identical — including across hosts — while tenants within
/// a fleet get genuinely different traffic (different rates, phases and
/// noise streams), which keeps their analysis results distinct.
pub fn tenant_fleet(mix: TenantMix, tenants: usize, fleet_seed: u64) -> Vec<TenantWorkload> {
    (0..tenants)
        .map(|i| {
            let seed = splitmix64(fleet_seed ^ splitmix64(i as u64 + 1));
            let name = format!("tenant-{i:02}");
            let spec = match mix {
                TenantMix::ManySmall => small_app(&name),
                TenantMix::FewLarge => sharelatex::app_spec(MetricRichness::Minimal),
            };
            // Base rates spread over [40, 100) so tenants saturate their
            // components differently.
            let rate = 40.0 + (seed % 60) as f64;
            TenantWorkload {
                name,
                spec,
                workload: Workload::randomized(rate, seed ^ 0xA5A5),
                seed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleets_are_deterministic_and_named_uniquely() {
        let a = tenant_fleet(TenantMix::ManySmall, 8, 7);
        let b = tenant_fleet(TenantMix::ManySmall, 8, 7);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.spec.name, y.spec.name);
        }
        let mut names: Vec<&str> = a.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8, "tenant names are unique");

        let other_seed = tenant_fleet(TenantMix::ManySmall, 8, 8);
        assert_ne!(a[0].seed, other_seed[0].seed);
    }

    #[test]
    fn small_tenants_are_smaller_than_large_ones() {
        let small = tenant_fleet(TenantMix::ManySmall, 1, 1);
        let large = tenant_fleet(TenantMix::FewLarge, 1, 1);
        assert_eq!(small[0].spec.component_count(), 3);
        assert_eq!(large[0].spec.component_count(), 15);
        assert!(small[0].spec.total_metric_count() < large[0].spec.total_metric_count());
        assert!(small[0].spec.validate().is_ok());
        assert!(large[0].spec.validate().is_ok());
    }

    #[test]
    fn tenant_rates_vary_across_the_fleet() {
        let fleet = tenant_fleet(TenantMix::ManySmall, 16, 3);
        let distinct: std::collections::BTreeSet<u64> = fleet.iter().map(|t| t.seed % 60).collect();
        assert!(distinct.len() > 4, "rates spread across tenants");
    }
}
