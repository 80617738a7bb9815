//! Randomized property tests for the metric store's epoch/delta layer.
//!
//! Deterministic splitmix64 case generation (the container has no registry
//! access for `proptest`): every run checks the identical pseudo-random
//! inputs, so failures are trivially reproducible.

use sieve_simulator::store::{MetricId, MetricStore, RetentionPolicy};

/// Deterministic splitmix64 generator for test data.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        // `hash::splitmix64` advances by the golden-ratio increment and
        // finalizes in one step; feeding back the previous input keeps
        // the standard splitmix64 stream.
        let out = sieve_exec::hash::splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        out
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }
}

const CASES: u64 = 60;

/// A random accepted point sequence: strictly increasing timestamps with
/// random gaps, random finite values.
fn random_points(rng: &mut Rng, len: usize) -> Vec<(u64, f64)> {
    let mut t = 0u64;
    (0..len)
        .map(|_| {
            t += 100 + rng.next_u64() % 900;
            (t, rng.unit() * 2.0e3 - 1.0e3)
        })
        .collect()
}

fn record_all(store: &MetricStore, id: &MetricId, points: &[(u64, f64)]) {
    for &(t, v) in points {
        store.record(id, t, v);
    }
}

#[test]
fn equal_content_yields_equal_fingerprints_anywhere() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let len = rng.usize_in(1, 80);
        let points = random_points(&mut rng, len);
        let id = MetricId::new("svc", "metric");

        let a = MetricStore::new();
        let b = MetricStore::new();
        record_all(&a, &id, &points);
        record_all(&b, &id, &points);
        assert_eq!(
            a.fingerprint(&id),
            b.fingerprint(&id),
            "seed {seed}: same accepted sequence, same fingerprint"
        );
    }
}

#[test]
fn any_content_change_changes_the_fingerprint() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let len = rng.usize_in(2, 60);
        let points = random_points(&mut rng, len);
        let id = MetricId::new("svc", "metric");

        let base = MetricStore::new();
        record_all(&base, &id, &points);
        let base_fp = base.fingerprint(&id).unwrap();

        // Mutate one random point's value.
        let mut value_mutated = points.clone();
        let idx = rng.usize_in(0, value_mutated.len() - 1);
        value_mutated[idx].1 += 1.0 + rng.unit();
        let m1 = MetricStore::new();
        record_all(&m1, &id, &value_mutated);
        assert_ne!(
            m1.fingerprint(&id),
            Some(base_fp),
            "seed {seed}: changed value must change the fingerprint"
        );

        // Shift one random point's timestamp (keeping monotonicity by
        // nudging within the preceding gap).
        let mut time_mutated = points.clone();
        let idx = rng.usize_in(1, time_mutated.len() - 1);
        time_mutated[idx].0 -= 1;
        let m2 = MetricStore::new();
        record_all(&m2, &id, &time_mutated);
        assert_ne!(
            m2.fingerprint(&id),
            Some(base_fp),
            "seed {seed}: shifted timestamp must change the fingerprint"
        );

        // A strict prefix has a different fingerprint (length matters).
        let prefix = &points[..points.len() - 1];
        let m3 = MetricStore::new();
        record_all(&m3, &id, prefix);
        assert_ne!(
            m3.fingerprint(&id),
            Some(base_fp),
            "seed {seed}: prefix must fingerprint differently"
        );

        // Rejected out-of-order points change nothing.
        let m4 = MetricStore::new();
        record_all(&m4, &id, &points);
        m4.record(&id, points[0].0, 123.0);
        assert_eq!(
            m4.fingerprint(&id),
            Some(base_fp),
            "seed {seed}: dropped point must not change the fingerprint"
        );
    }
}

#[test]
fn watermark_is_strictly_monotone_and_deltas_partition_the_writes() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let store = MetricStore::new();
        let ids: Vec<MetricId> = (0..rng.usize_in(1, 5))
            .map(|c| MetricId::new(format!("svc{c}"), "m"))
            .collect();
        let mut clocks = vec![0u64; ids.len()];

        let mut last_epoch = store.epoch();
        assert_eq!(last_epoch, 0);
        let mut total_accepted = 0usize;
        let mut total_reported = 0usize;

        for _ in 0..rng.usize_in(1, 12) {
            // A random (possibly empty) batch of writes to random series.
            let writes = rng.usize_in(0, 10);
            let mut touched_now = std::collections::BTreeSet::new();
            for _ in 0..writes {
                let which = rng.usize_in(0, ids.len() - 1);
                clocks[which] += 100 + rng.next_u64() % 400;
                store.record(&ids[which], clocks[which], rng.unit());
                touched_now.insert(ids[which].clone());
                total_accepted += 1;
            }
            let delta = store.drain_delta();
            assert!(
                delta.epoch > last_epoch,
                "seed {seed}: watermark must strictly increase"
            );
            assert_eq!(delta.epoch, store.epoch(), "seed {seed}");
            last_epoch = delta.epoch;
            // The delta reports exactly the touched series, sorted.
            let expected: Vec<MetricId> = touched_now.into_iter().collect();
            assert_eq!(delta.touched, expected, "seed {seed}");
            total_reported += delta.touched.len();
        }
        // Draining again reports nothing new.
        assert!(store.drain_delta().is_empty(), "seed {seed}");
        assert!(total_reported <= total_accepted, "seed {seed}");
        assert_eq!(store.point_count(), total_accepted as u64, "seed {seed}");
    }
}

#[test]
fn windowed_store_retains_exactly_the_unbounded_tail() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed.wrapping_add(1000));
        let len = rng.usize_in(1, 120);
        let cap = rng.usize_in(1, 130);
        let points = random_points(&mut rng, len);
        let id = MetricId::new("svc", "metric");

        let oracle = MetricStore::new();
        let windowed = MetricStore::with_retention(RetentionPolicy::windowed(cap));
        record_all(&oracle, &id, &points);
        record_all(&windowed, &id, &points);

        let full = oracle.series(&id).unwrap();
        let kept = windowed.series(&id).unwrap();
        let tail_start = len.saturating_sub(cap);
        assert_eq!(
            kept.timestamps(),
            &full.timestamps()[tail_start..],
            "seed {seed}: retained window must be the newest points"
        );
        assert_eq!(kept.values(), &full.values()[tail_start..], "seed {seed}");
        assert_eq!(
            windowed.retained_point_count(),
            (len - tail_start) as u64,
            "seed {seed}"
        );
        assert_eq!(
            windowed.evicted_point_count(),
            tail_start as u64,
            "seed {seed}"
        );
        // Cumulative accounting is retention-independent.
        assert_eq!(windowed.point_count(), oracle.point_count(), "seed {seed}");
    }
}

#[test]
fn eviction_changes_the_fingerprint_iff_points_were_dropped() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed.wrapping_add(2000));
        let len = rng.usize_in(1, 90);
        let cap = rng.usize_in(1, 100);
        let points = random_points(&mut rng, len);
        let id = MetricId::new("svc", "metric");

        let oracle = MetricStore::new();
        let windowed = MetricStore::with_retention(RetentionPolicy::windowed(cap));
        record_all(&oracle, &id, &points);
        record_all(&windowed, &id, &points);

        if len <= cap {
            assert_eq!(
                windowed.fingerprint(&id),
                oracle.fingerprint(&id),
                "seed {seed}: no eviction, so the fingerprint rule is unchanged"
            );
        } else {
            assert_ne!(
                windowed.fingerprint(&id),
                oracle.fingerprint(&id),
                "seed {seed}: every eviction must advance the fingerprint"
            );
        }
        // Two windowed stores fed the same stream always agree, however
        // the stream is split into batches.
        let twin = MetricStore::with_retention(RetentionPolicy::windowed(cap));
        let mut rest = &points[..];
        while !rest.is_empty() {
            let take = rng.usize_in(1, rest.len());
            twin.record_batch(rest[..take].iter().map(|&(t, v)| (&id, t, v)));
            rest = &rest[take..];
        }
        assert_eq!(
            twin.fingerprint(&id),
            windowed.fingerprint(&id),
            "seed {seed}"
        );
        assert_eq!(twin.freeze(), windowed.freeze(), "seed {seed}");
    }
}

#[test]
fn watermark_and_delta_invariants_hold_under_interleaved_record_and_evict() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed.wrapping_add(3000));
        let store = MetricStore::with_retention(RetentionPolicy::windowed(rng.usize_in(4, 12)));
        let ids: Vec<MetricId> = (0..rng.usize_in(1, 5))
            .map(|c| MetricId::new(format!("svc{c}"), "m"))
            .collect();
        let mut clocks = vec![0u64; ids.len()];
        // Our own model of each series' retained length, kept exact so the
        // expected dirty set under tightening is computable.
        let mut retained = vec![0usize; ids.len()];
        let mut cap = store.retention().raw_capacity.unwrap();

        let mut last_epoch = store.epoch();
        for _ in 0..rng.usize_in(1, 12) {
            let mut touched_now = std::collections::BTreeSet::new();
            for _ in 0..rng.usize_in(0, 15) {
                let which = rng.usize_in(0, ids.len() - 1);
                clocks[which] += 100 + rng.next_u64() % 400;
                store.record(&ids[which], clocks[which], rng.unit());
                retained[which] = (retained[which] + 1).min(cap);
                touched_now.insert(ids[which].clone());
            }
            // Sometimes tighten (or loosen) retention mid-stream: every
            // series the trim evicts from must show up as dirty exactly
            // like a written one.
            if rng.usize_in(0, 2) == 0 {
                let new_cap = rng.usize_in(2, 12);
                store.set_retention(RetentionPolicy::windowed(new_cap));
                for (which, r) in retained.iter_mut().enumerate() {
                    if *r > new_cap {
                        *r = new_cap;
                        touched_now.insert(ids[which].clone());
                    }
                }
                cap = new_cap;
            }
            let delta = store.drain_delta();
            assert!(delta.epoch > last_epoch, "seed {seed}: watermark monotone");
            assert_eq!(delta.epoch, store.epoch(), "seed {seed}");
            last_epoch = delta.epoch;
            let expected: Vec<MetricId> = touched_now.into_iter().collect();
            assert_eq!(
                delta.touched, expected,
                "seed {seed}: dirty set = written ∪ trimmed, sorted"
            );
        }
        assert!(store.drain_delta().is_empty(), "seed {seed}");
        let model_retained: usize = retained.iter().sum();
        assert_eq!(
            store.retained_point_count(),
            model_retained as u64,
            "seed {seed}: retained counter matches the reference model"
        );
    }
}
