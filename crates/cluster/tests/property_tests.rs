//! Randomized property tests for the clustering crate.
//!
//! The original suite used `proptest`; the build container has no registry
//! access, so the same properties are exercised with a deterministic
//! splitmix64 case generator — every run checks the identical set of
//! pseudo-random inputs, which also makes failures trivially reproducible.

use sieve_cluster::adjusted_mutual_information;
use sieve_cluster::jaro::{jaro_similarity, pre_cluster_names};
use sieve_cluster::silhouette::try_silhouette_score_with;
use sieve_cluster::{KShape, KShapeConfig, KShapeResult, KShapeSeriesCache};

/// Deterministic splitmix64 generator for test data.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }

    /// A lowercase identifier like the `[a-z_]{lo,hi}` proptest regex.
    fn ident(&mut self, lo: usize, hi: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz_";
        let len = self.usize_in(lo, hi);
        (0..len)
            .map(|_| ALPHABET[(self.next_u64() as usize) % ALPHABET.len()] as char)
            .collect()
    }

    fn labels(&mut self, upper: usize, lo: usize, hi: usize) -> Vec<usize> {
        let len = self.usize_in(lo, hi);
        (0..len)
            .map(|_| (self.next_u64() as usize) % upper)
            .collect()
    }
}

const CASES: u64 = 64;

#[test]
fn jaro_similarity_is_bounded_and_symmetric() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let a = rng.ident(0, 12);
        let b = rng.ident(0, 12);
        let s = jaro_similarity(&a, &b);
        assert!((0.0..=1.0).contains(&s), "seed {seed}");
        assert!((s - jaro_similarity(&b, &a)).abs() < 1e-12, "seed {seed}");
    }
}

#[test]
fn jaro_self_similarity_is_one() {
    for seed in 0..CASES {
        let a = Rng::new(seed).ident(1, 16);
        assert_eq!(jaro_similarity(&a, &a), 1.0, "seed {seed}");
    }
}

#[test]
fn pre_clustering_covers_all_names() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let count = rng.usize_in(1, 29);
        let names: Vec<String> = (0..count).map(|_| rng.ident(1, 10)).collect();
        let k = rng.usize_in(1, 7);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let assignment = pre_cluster_names(&refs, k);
        assert_eq!(assignment.len(), names.len(), "seed {seed}");
        let limit = k.min(names.len());
        assert!(assignment.iter().all(|&c| c < limit), "seed {seed}");
    }
}

#[test]
fn ami_of_identical_labelings_is_one() {
    for seed in 0..CASES {
        let labels = Rng::new(seed).labels(5, 2, 40);
        let ami = adjusted_mutual_information(&labels, &labels).unwrap();
        assert!((ami - 1.0).abs() < 1e-6, "seed {seed}: ami {ami}");
    }
}

#[test]
fn ami_is_at_most_one() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let a = rng.labels(4, 2, 40);
        let b = rng.labels(4, 2, 40);
        let n = a.len().min(b.len());
        let ami = adjusted_mutual_information(&a[..n], &b[..n]).unwrap();
        assert!(ami <= 1.0 + 1e-9, "seed {seed}");
    }
}

#[test]
fn silhouette_is_bounded() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let rows = rng.usize_in(4, 19);
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..3).map(|_| rng.range(-50.0, 50.0)).collect())
            .collect();
        let labels = rng.labels(3, 4, 19);
        let n = data.len().min(labels.len());
        let euclidean = |a: &[f64], b: &[f64]| {
            Ok(a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).powi(2))
                .sum::<f64>()
                .sqrt())
        };
        let s = try_silhouette_score_with(&data[..n], &labels[..n], euclidean).unwrap();
        assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s), "seed {seed}");
    }
}

#[test]
fn kshape_assigns_every_series_to_a_valid_cluster() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let count = rng.usize_in(4, 11);
        let seeds: Vec<f64> = (0..count).map(|_| rng.range(0.1, 10.0)).collect();
        let k = rng.usize_in(1, 3);
        // Build deterministic series from the seed values.
        let series: Vec<Vec<f64>> = seeds
            .iter()
            .map(|&s| (0..24).map(|i| ((i as f64) * s * 0.3).sin() + s).collect())
            .collect();
        let k = k.min(series.len());
        let result = KShape::new(KShapeConfig::new(k)).fit(&series).unwrap();
        assert_eq!(result.assignments.len(), series.len(), "seed {seed}");
        assert!(result.assignments.iter().all(|&a| a < k), "seed {seed}");
        assert!(result.iterations >= 1, "seed {seed}");
    }
}

/// One random k-Shape input for the memoised-vs-recomputing comparison:
/// a few shape families with per-member noise, salted with exact
/// duplicates and constant series.
fn kshape_stress_series(rng: &mut Rng, count: usize, len: usize) -> Vec<Vec<f64>> {
    let mut series: Vec<Vec<f64>> = Vec::with_capacity(count);
    for i in 0..count {
        let pick = rng.usize_in(0, 9);
        if pick == 0 {
            series.push(vec![rng.range(-5.0, 5.0); len]); // constant
        } else if pick == 1 && i > 0 {
            let twin = rng.usize_in(0, i - 1);
            series.push(series[twin].clone()); // exact duplicate
        } else {
            let family = rng.usize_in(0, 3);
            let blend = rng.unit();
            let (scale, offset) = (rng.range(0.5, 20.0), rng.range(-100.0, 100.0));
            let (phase, noise) = (rng.usize_in(0, 6), rng.range(0.0, 2.0));
            series.push(
                (0..len)
                    .map(|t| {
                        let t = (t + phase) as f64;
                        let shape = match family {
                            0 => (t * 0.4).sin(),
                            1 => t / len as f64,
                            2 => f64::from(u8::from(t as usize % 7 == 0)),
                            // Between two families: the ambiguous members
                            // that keep assignments moving for a while.
                            _ => blend * (t * 0.4).sin() + (1.0 - blend) * (t * 0.9).cos(),
                        };
                        scale * (shape + noise * rng.range(-1.0, 1.0)) + offset
                    })
                    .collect(),
            );
        }
    }
    series
}

/// Number of clusters at least one series is assigned to.
fn non_empty_clusters(result: &KShapeResult) -> usize {
    let mut used = result.assignments.clone();
    used.sort_unstable();
    used.dedup();
    used.len()
}

/// Asserts every assignment, the iteration count, the verdict and every
/// centroid bit of two k-Shape results equal.
fn assert_same_bits(direct: &KShapeResult, cached: &KShapeResult, ctx: &str) {
    assert_eq!(direct.assignments, cached.assignments, "{ctx}");
    assert_eq!(direct.iterations, cached.iterations, "{ctx}");
    assert_eq!(direct.converged, cached.converged, "{ctx}");
    for (dc, cc) in direct.centroids.iter().zip(cached.centroids.iter()) {
        assert_eq!(dc.len(), cc.len(), "{ctx}");
        for (a, b) in dc.iter().zip(cc.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}");
        }
    }
}

#[test]
fn memoised_fit_cached_is_bit_identical_to_fit_under_stress() {
    let (mut not_converged, mut multi_iteration, mut with_empty_cluster) = (0, 0, 0);
    for seed in 0..240u64 {
        let mut rng = Rng::new(seed ^ 0x5EED_C0DE);
        let len = [5usize, 33, 240][seed as usize % 3];
        let count = rng.usize_in(2, if len == 240 { 9 } else { 16 });
        let series = kshape_stress_series(&mut rng, count, len);
        let k = match rng.usize_in(0, 7) {
            0 => 1,
            1 => count,
            _ => rng.usize_in(2, count.min(5)),
        };
        let mut config = KShapeConfig::new(k).with_max_iterations(match rng.usize_in(0, 5) {
            0 => 1,
            1 => 2,
            _ => 40,
        });
        config.power_iterations = [1, 10, 50][rng.usize_in(0, 2)];
        // Warm starts draw labels from a prefix of the clusters, so the
        // rest start empty (and may fill later); cold starts round-robin.
        if rng.usize_in(0, 2) > 0 {
            let used = if rng.usize_in(0, 1) == 0 {
                k
            } else {
                rng.usize_in(1, k)
            };
            config = config.with_initial_assignment(rng.labels(used, count, count));
        }

        let kshape = KShape::new(config);
        let direct = kshape.fit(&series).unwrap();
        let cached = kshape
            .fit_cached(&mut KShapeSeriesCache::new(&series).unwrap())
            .unwrap();
        let ctx = format!("seed {seed}: n={count} len={len} k={k}");
        assert_same_bits(&direct, &cached, &ctx);
        not_converged += usize::from(!direct.converged);
        multi_iteration += usize::from(direct.iterations >= 3);
        with_empty_cluster += usize::from(non_empty_clusters(&direct) < k);
    }
    // The generator must actually reach the paths the memo could get wrong.
    assert!(not_converged >= 10, "{not_converged} non-converged cases");
    assert!(
        multi_iteration >= 25,
        "{multi_iteration} cases of 3+ iterations"
    );
    assert!(
        with_empty_cluster >= 20,
        "{with_empty_cluster} cases with an empty cluster"
    );
}

/// The k sweep's use of the cache: ONE cache per input, every `k` fitted
/// through it in order — so each fit meets a memo filled by the others — with
/// two power-iteration counts interleaved on it, then the same fits through a
/// second cache in reverse order. Every fit must equal a fresh `KShape::fit`.
#[test]
fn one_cache_shared_by_a_whole_k_sweep_is_bit_identical_to_fresh_fits() {
    let (mut not_converged, mut capped, mut reused, mut refined) = (0, 0, 0, 0);
    for seed in 0..24u64 {
        let mut rng = Rng::new(seed ^ 0x05EE_D5EE);
        let len = [5usize, 33, 240][seed as usize % 3];
        let random = rng.usize_in(2, if len == 240 { 5 } else { 16 });
        let mut series = kshape_stress_series(&mut rng, random, len);
        if len == 240 {
            // Counters that are exact multiples of one cumulative series:
            // clusters of them sit a rounding error apart, which is what
            // makes fits on monitoring data cycle.
            let mut total = 0.0;
            let cumulative: Vec<f64> = (series[0].iter())
                .map(|v| {
                    total += v.abs();
                    total
                })
                .collect();
            for gain in [12.0, 90.0, 0.01, 270.0] {
                series.push(cumulative.iter().map(|v| gain * v).collect());
            }
        }
        let count = series.len();
        let max_iterations = [2, 12, 25][if len == 240 { 2 } else { rng.usize_in(0, 2) }];
        let power_iterations = [[1, 10], [10, 50], [1, 50]][rng.usize_in(0, 2)];
        let warm = rng.usize_in(0, 1) == 1;

        let fits: Vec<(KShape, KShapeResult)> = (1..=count.min(7))
            .flat_map(|k| power_iterations.map(|p| (k, p)))
            .map(|(k, p)| {
                let mut config = KShapeConfig::new(k).with_max_iterations(max_iterations);
                config.power_iterations = p;
                if warm {
                    config = config.with_initial_assignment(rng.labels(k, count, count));
                }
                let kshape = KShape::new(config);
                let direct = kshape.fit(&series).unwrap();
                not_converged += usize::from(!direct.converged);
                capped += usize::from(!direct.converged && direct.iterations == 25);
                (kshape, direct)
            })
            .collect();

        let mut in_order = KShapeSeriesCache::new(&series).unwrap();
        for (kshape, direct) in &fits {
            let cached = kshape.fit_cached(&mut in_order).unwrap();
            let ctx = format!("seed {seed}, in order: n={count} {:?}", kshape.config());
            assert_same_bits(direct, &cached, &ctx);
        }
        let mut reversed = KShapeSeriesCache::new(&series).unwrap();
        for (kshape, direct) in fits.iter().rev() {
            let cached = kshape.fit_cached(&mut reversed).unwrap();
            let ctx = format!("seed {seed}, reversed: n={count} {:?}", kshape.config());
            assert_same_bits(direct, &cached, &ctx);
        }
        // The same fits refine the same distinct inputs in either order.
        assert_eq!(
            in_order.refinements(),
            reversed.refinements(),
            "seed {seed}"
        );
        reused += in_order.refinements_reused();
        refined += in_order.refinements();
    }
    // The generator must reach what a shared memo could get wrong: fits cut
    // short or cycling to the cap, and a good share of lookups answered.
    assert!(not_converged >= 10, "{not_converged} non-converged fits");
    assert!(capped >= 3, "{capped} fits cycling to the 25-iteration cap");
    assert!(2 * reused > refined, "{reused} reused vs {refined} refined");
}
