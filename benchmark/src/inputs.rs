//! Seeded inputs: recorded tapes, fleets and the arrival schedule.
//!
//! The crates under test receive only what this module generates. Two
//! sources of randomness are kept apart on purpose:
//!
//! * **Values** come from the simulator under [`DATA_SEED`], a constant.
//!   k-Shape's iterations-to-converge and the number of Granger tests are
//!   chaotic in the noise: re-seeding only the simulator moves the time of
//!   one `Sieve::analyze` of the same application by ±20 % (measured, see
//!   the README), more than any regression worth gating on, and no run
//!   length inside the driver's budget averages that out.
//! * **Arrival** comes from `--seed` through a [`Schedule`]: the time
//!   origin of every tape (a whole number of ticks, which the resampling
//!   grid — and therefore every model — is invariant to) and the order in
//!   which tenants are served within each round. The same seed gives the
//!   same inputs; different seeds give different inputs that cost the same
//!   work.

use sieve::apps::tenants::{tenant_fleet, TenantMix, TenantWorkload};
use sieve::apps::{openstack, sharelatex};
use sieve::exec::hash::splitmix64;
use sieve::prelude::*;

/// Seed of every simulated value (see the module docs for why it is fixed).
pub const DATA_SEED: u64 = 7;
/// Tick length of every tape, the paper's 500 ms discretisation grid.
pub const TICK_MS: u64 = 500;
/// Ring-window length of every served tenant, in ticks (also what set-up
/// pre-loads, so the measured phase runs at steady-state retention).
pub const WINDOW_TICKS: usize = 240;
/// Length of the recorded fleet tapes, in ticks.
pub const TAPE_TICKS: usize = 1200;

/// The seeded arrival process: a splitmix64 stream plus the time origin.
#[derive(Debug, Clone)]
pub struct Schedule {
    state: u64,
    /// Added to every recorded timestamp; a multiple of [`TICK_MS`].
    pub origin_ms: u64,
}

impl Schedule {
    /// Derives the schedule of one run from `--seed`.
    pub fn new(seed: u64) -> Self {
        let mut schedule = Self {
            state: splitmix64(seed ^ 0x5CED_01E5),
            origin_ms: 0,
        };
        schedule.origin_ms = (schedule.next() % (1 << 20)) * TICK_MS;
        schedule
    }

    fn next(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// A uniformly drawn permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        order
    }
}

/// One application's recorded metric stream: what its monitoring agents
/// sent, tick by tick, plus the call graph observed alongside.
#[derive(Debug, Clone, PartialEq)]
pub struct Tape {
    /// Tenant (or application) name.
    pub name: String,
    /// Call graph recorded with the metrics.
    pub graph: CallGraph,
    /// Sorted component names; a point's group in `stream-fresh` is its
    /// component's index here.
    pub components: Vec<Name>,
    /// The points offered at each tick, in record order.
    pub ticks: Vec<Vec<MetricPoint>>,
}

impl Tape {
    /// Runs `spec` under `workload` for `ticks` ticks and records every
    /// point the simulator offers, shifted by `origin_ms`.
    pub fn record(
        name: &str,
        spec: &AppSpec,
        workload: &Workload,
        sim_seed: u64,
        ticks: usize,
        origin_ms: u64,
    ) -> Self {
        let config = SimConfig::new(sim_seed)
            .with_tick_ms(TICK_MS)
            .with_duration_ms(ticks as u64 * TICK_MS);
        let mut sim = Simulation::new(spec.clone(), workload.clone(), config)
            .expect("the bundled application specs are valid");
        let mut recorded = Vec::with_capacity(ticks);
        loop {
            let mut tick = Vec::new();
            let stepped = sim.step_observed(|id, timestamp_ms, value| {
                tick.push(MetricPoint {
                    id: id.clone(),
                    timestamp_ms: timestamp_ms + origin_ms,
                    value,
                });
            });
            if stepped.is_none() {
                break;
            }
            recorded.push(tick);
        }
        let mut components: Vec<Name> = recorded
            .first()
            .map(|tick| tick.iter().map(|p| p.id.component.clone()).collect())
            .unwrap_or_default();
        components.sort();
        components.dedup();
        Self {
            name: name.to_string(),
            graph: sim.call_graph(),
            components,
            ticks: recorded,
        }
    }

    /// Points offered per tick (every tick of a tape offers the same set
    /// of series).
    pub fn points_per_tick(&self) -> usize {
        self.ticks.first().map_or(0, Vec::len)
    }

    /// Index of `component` in [`Tape::components`].
    pub fn component_index(&self, component: &Name) -> usize {
        self.components
            .binary_search(component)
            .expect("every recorded point belongs to a recorded component")
    }

    /// Moves tick `tick` one whole tape length into the future, so a
    /// cyclic replay keeps every series' timestamps strictly increasing.
    pub fn advance_tick(&mut self, tick: usize) {
        let cycle_ms = self.ticks.len() as u64 * TICK_MS;
        for point in &mut self.ticks[tick] {
            point.timestamp_ms += cycle_ms;
        }
    }
}

/// Records the tapes of a `tenants`-strong fleet of the given mix.
pub fn fleet_tapes(mix: TenantMix, tenants: usize, ticks: usize, origin_ms: u64) -> Vec<Tape> {
    tenant_fleet(mix, tenants, DATA_SEED)
        .iter()
        .map(|tenant: &TenantWorkload| {
            Tape::record(
                &tenant.name,
                &tenant.spec,
                &tenant.workload,
                tenant.seed,
                ticks,
                origin_ms,
            )
        })
        .collect()
}

/// Records the two paper applications at `Full` metric richness for one
/// analysis window ([`WINDOW_TICKS`]).
pub fn paper_application_tapes(origin_ms: u64) -> Vec<Tape> {
    let workload = Workload::randomized(60.0, DATA_SEED);
    [
        ("sharelatex", sharelatex::app_spec(MetricRichness::Full)),
        ("openstack", openstack::app_spec(MetricRichness::Full)),
    ]
    .iter()
    .map(|(name, spec)| Tape::record(name, spec, &workload, DATA_SEED, WINDOW_TICKS, origin_ms))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_tapes_and_schedule() {
        let (mut a, mut b) = (Schedule::new(11), Schedule::new(11));
        assert_eq!(a.origin_ms, b.origin_ms);
        assert_eq!(a.origin_ms % TICK_MS, 0);
        assert_eq!(a.permutation(9), b.permutation(9));
        let tapes_a = fleet_tapes(TenantMix::ManySmall, 3, 40, a.origin_ms);
        let tapes_b = fleet_tapes(TenantMix::ManySmall, 3, 40, b.origin_ms);
        assert_eq!(tapes_a, tapes_b);
        assert_eq!(tapes_a[0].ticks.len(), 40);
        assert!(tapes_a[0].points_per_tick() > 0);
    }

    #[test]
    fn another_seed_moves_the_origin_and_the_order_but_not_the_values() {
        let (mut a, mut b) = (Schedule::new(1), Schedule::new(2));
        assert_ne!(a.origin_ms, b.origin_ms);
        assert_ne!(a.permutation(32), b.permutation(32));
        let tape_a = &fleet_tapes(TenantMix::ManySmall, 1, 8, a.origin_ms)[0];
        let tape_b = &fleet_tapes(TenantMix::ManySmall, 1, 8, b.origin_ms)[0];
        for (x, y) in tape_a
            .ticks
            .iter()
            .flatten()
            .zip(tape_b.ticks.iter().flatten())
        {
            assert_eq!(x.id, y.id);
            assert_eq!(x.value.to_bits(), y.value.to_bits());
            assert_eq!(x.timestamp_ms - a.origin_ms, y.timestamp_ms - b.origin_ms);
        }
    }

    #[test]
    fn permutations_are_permutations() {
        let mut order = Schedule::new(5).permutation(17);
        order.sort_unstable();
        assert_eq!(order, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn advancing_a_tick_keeps_cyclic_replay_monotone() {
        let mut tape = fleet_tapes(TenantMix::ManySmall, 1, 4, 0).remove(0);
        let last = tape.ticks[3][0].timestamp_ms;
        tape.advance_tick(0);
        assert_eq!(tape.ticks[0][0].timestamp_ms, TICK_MS + 4 * TICK_MS);
        assert!(tape.ticks[0][0].timestamp_ms > last);
    }
}
