//! Columnar storage for a component's prepared metric series.
//!
//! Preparation (resample + truncate, [`crate::pipeline::Sieve::prepare`])
//! yields a *rectangular* set of series per component: every kept metric
//! ends up with exactly `series_len` samples. A [`PreparedComponent`] packs
//! those samples end to end into **one** `Arc`-shared backing buffer instead
//! of one heap allocation per metric. Downstream consumers — the variance
//! filter, the k-Shape engine, the Granger stage and the session's
//! fingerprint cache — walk `series(i)` views into that arena, so a
//! component's whole prepared state is a single contiguous block with
//! predictable stride.
//!
//! The packing is a pure layout change: `series(i)` is bit-identical to the
//! `Vec<f64>` the per-series path produced (asserted by the round-trip test
//! below), and cloning a `PreparedComponent` (or the whole prepared map)
//! bumps one reference count rather than copying samples.

use crate::reduce::NamedSeries;
use sieve_exec::Name;
use std::sync::Arc;

/// A component's prepared series in columnar form: interned metric names
/// plus one contiguous `names.len() × series_len` backing buffer, where
/// series `i` occupies `buffer[i * series_len..(i + 1) * series_len]`.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedComponent {
    names: Vec<Name>,
    series_len: usize,
    buffer: Arc<[f64]>,
}

impl Default for PreparedComponent {
    /// An empty component: no series, zero series length.
    fn default() -> Self {
        Self {
            names: Vec::new(),
            series_len: 0,
            buffer: Arc::from(Vec::new()),
        }
    }
}

impl PreparedComponent {
    /// Packs `(name, values)` rows into a columnar component, truncating
    /// every row to the shortest row's length (the same rectangularisation
    /// rule preparation applies).
    pub(crate) fn from_rows<S: AsRef<[f64]>>(rows: impl IntoIterator<Item = (Name, S)>) -> Self {
        let rows: Vec<(Name, S)> = rows.into_iter().collect();
        let series_len = rows
            .iter()
            .map(|(_, v)| v.as_ref().len())
            .min()
            .unwrap_or(0);
        let mut buffer = Vec::with_capacity(rows.len() * series_len);
        let mut names = Vec::with_capacity(rows.len());
        for (name, values) in rows {
            buffer.extend_from_slice(&values.as_ref()[..series_len]);
            names.push(name);
        }
        Self {
            names,
            series_len,
            buffer: Arc::from(buffer),
        }
    }

    /// Packs rows written end to end into `buffer`, row `i` holding
    /// `lens[i]` samples, truncating every row to the shortest in place
    /// (the rule of [`PreparedComponent::from_rows`]): the form preparation
    /// writes, so its buffer becomes the arena with no row copied out.
    pub(crate) fn from_ragged(names: Vec<Name>, lens: &[usize], mut buffer: Vec<f64>) -> Self {
        debug_assert_eq!(names.len(), lens.len());
        debug_assert_eq!(buffer.len(), lens.iter().sum::<usize>());
        let series_len = lens.iter().copied().min().unwrap_or(0);
        let mut start = 0;
        for (i, &len) in lens.iter().enumerate() {
            // Row `i` moves down to `i * series_len <= start`, once a longer
            // row before it was cut.
            if start != i * series_len {
                buffer.copy_within(start..start + series_len, i * series_len);
            }
            start += len;
        }
        buffer.truncate(names.len() * series_len);
        Self {
            names,
            series_len,
            buffer: Arc::from(buffer),
        }
    }

    /// Packs already-prepared [`NamedSeries`] into columnar form (truncating
    /// to the shortest series).
    pub fn from_named(series: &[NamedSeries]) -> Self {
        Self::from_rows(
            series
                .iter()
                .map(|s| (s.name.clone(), Arc::clone(&s.values))),
        )
    }

    /// Number of series in the component.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the component holds zero series.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Number of samples of every (rectangular) series.
    #[cfg(test)]
    pub(crate) fn series_len(&self) -> usize {
        self.series_len
    }

    /// The interned metric names, index-aligned with [`Self::series`].
    pub fn names(&self) -> &[Name] {
        &self.names
    }

    /// The name of series `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn name(&self, i: usize) -> &Name {
        &self.names[i]
    }

    /// The samples of series `i` — a view into the shared columnar arena.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn series(&self, i: usize) -> &[f64] {
        let start = i * self.series_len;
        &self.buffer[start..start + self.series_len]
    }

    /// Iterates `(name, samples)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (&Name, &[f64])> {
        self.names
            .iter()
            .zip(self.buffer.chunks_exact(self.series_len.max(1)))
    }

    /// The shared backing buffer (all series packed end to end).
    pub(crate) fn buffer(&self) -> &Arc<[f64]> {
        &self.buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(i: usize, seed: u64) -> f64 {
        let mut s =
            (i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) ^ seed.wrapping_mul(0xD1B54A32D192ED03);
        s ^= s >> 33;
        s = s.wrapping_mul(0xff51afd7ed558ccd);
        s ^= s >> 29;
        ((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
    }

    #[test]
    fn columnar_round_trip_is_bitwise() {
        for (count, len) in [(1usize, 7usize), (3, 16), (5, 33), (8, 1)] {
            let rows: Vec<(Name, Vec<f64>)> = (0..count)
                .map(|c| {
                    let values: Vec<f64> = (0..len).map(|i| noise(i, c as u64 * 31 + 1)).collect();
                    (Name::new(&format!("m{c}")), values)
                })
                .collect();
            let component = PreparedComponent::from_rows(rows.clone());
            assert_eq!(component.len(), count);
            assert_eq!(component.series_len(), len);
            assert!(!component.is_empty());
            for (i, (name, values)) in rows.iter().enumerate() {
                assert_eq!(component.name(i), name);
                let view = component.series(i);
                assert_eq!(view.len(), values.len());
                for (a, b) in view.iter().zip(values.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "series {i}");
                }
            }
            let collected: Vec<(&Name, &[f64])> = component.iter().collect();
            assert_eq!(collected.len(), count);
            for (i, (name, view)) in collected.iter().enumerate() {
                assert_eq!(*name, &rows[i].0);
                assert_eq!(view.len(), len);
            }
        }
    }

    #[test]
    fn ragged_rows_pack_as_from_rows_packs_them() {
        for lens in [
            vec![],
            vec![5],
            vec![0, 3],
            vec![4, 2, 7],
            vec![9, 9, 9],
            vec![3, 11, 1, 6, 3],
        ] {
            let rows: Vec<(Name, Vec<f64>)> = lens
                .iter()
                .enumerate()
                .map(|(c, &len)| {
                    let values = (0..len).map(|i| noise(i, c as u64 + 7)).collect();
                    (Name::new(&format!("m{c}")), values)
                })
                .collect();
            let names = rows.iter().map(|(name, _)| name.clone()).collect();
            let buffer = rows.iter().flat_map(|(_, v)| v.iter().copied()).collect();
            let ragged = PreparedComponent::from_ragged(names, &lens, buffer);
            assert_eq!(ragged, PreparedComponent::from_rows(rows), "{lens:?}");
        }
    }

    #[test]
    fn from_rows_truncates_to_the_shortest_row() {
        let component = PreparedComponent::from_rows(vec![
            (Name::new("long"), vec![1.0, 2.0, 3.0, 4.0]),
            (Name::new("short"), vec![5.0, 6.0]),
        ]);
        assert_eq!(component.series_len(), 2);
        assert_eq!(component.series(0), &[1.0, 2.0]);
        assert_eq!(component.series(1), &[5.0, 6.0]);
    }

    #[test]
    fn from_named_matches_the_source_series() {
        let series = vec![
            NamedSeries::new("a", vec![1.0, 2.0, 3.0]),
            NamedSeries::new("b", vec![4.0, 5.0, 6.0]),
        ];
        let component = PreparedComponent::from_named(&series);
        assert_eq!(component.len(), 2);
        for (i, s) in series.iter().enumerate() {
            assert_eq!(component.name(i), &s.name);
            assert_eq!(component.series(i), &*s.values);
        }
    }

    #[test]
    fn empty_and_default_components_are_harmless() {
        let empty = PreparedComponent::from_rows(Vec::<(Name, Vec<f64>)>::new());
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.series_len(), 0);
        assert_eq!(empty.iter().count(), 0);
        assert_eq!(empty, PreparedComponent::default());

        // Zero-length series: rectangular but empty views.
        let zero_len = PreparedComponent::from_rows(vec![(Name::new("z"), Vec::<f64>::new())]);
        assert_eq!(zero_len.len(), 1);
        assert_eq!(zero_len.series_len(), 0);
        assert_eq!(zero_len.series(0), &[] as &[f64]);
    }

    #[test]
    fn clones_share_the_backing_buffer() {
        let component =
            PreparedComponent::from_rows(vec![(Name::new("m"), vec![1.0, 2.0, 3.0, 4.0])]);
        let copy = component.clone();
        assert!(Arc::ptr_eq(component.buffer(), copy.buffer()));
    }
}
