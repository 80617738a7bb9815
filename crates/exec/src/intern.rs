//! Interned identifier strings.
//!
//! The Sieve pipeline shuffles the same few hundred component and metric
//! names through every layer: the simulator's store, the call graph, the
//! per-component clusterings and the dependency graph. Keying all of those
//! by `String` means every hand-off clones heap data and every map lookup
//! compares bytes. [`Name`] replaces that with a handle to a process-wide
//! interned string: cloning is a reference-count bump, and equality tests
//! hit the pointer-identity fast path (two interned names are equal iff
//! they share the same allocation).
//!
//! The handle is one word. It is an `Arc<Box<str>>` rather than a fat
//! `Arc<str>` (pointer plus length), so a `(component, metric)` id is two
//! words, and the names inside every point, series key and batch entry
//! take half the space fat pointers did. The price is a second allocation
//! (the `Box<str>` behind the `Arc`), paid once per distinct string when
//! it is interned, and one more pointer hop when the bytes are read — which
//! the pointer-identity fast paths mostly avoid.
//!
//! Determinism matters for the pipeline (serial and parallel runs must
//! produce identical models), so [`Name`] deliberately orders and hashes by
//! *string content*, not by pointer: `BTreeMap<Name, _>` iterates in the
//! same lexicographic order as `BTreeMap<String, _>` did, and
//! `Borrow<str>` lets all those maps keep answering `&str` lookups.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};

/// A cheaply clonable, interned identifier (component or metric name).
///
/// # Example
///
/// ```
/// use sieve_exec::Name;
///
/// let a = Name::new("web");
/// let b: Name = "web".into();
/// assert_eq!(a, b);
/// assert_eq!(a, "web");
/// assert_eq!(a.as_str(), "web");
/// ```
#[derive(Clone)]
pub struct Name(Arc<Box<str>>);

/// The pool sweeps dead entries whenever it has doubled since the last
/// sweep (with this floor, so small working sets never pay for sweeps).
const SWEEP_FLOOR: usize = 1024;

struct Pool {
    /// One `Name` per distinct string. `Name` hashes and compares by
    /// content and borrows as `str`, so the pool answers `&str` lookups.
    entries: HashSet<Name>,
    /// Pool size right after the previous sweep; growth is measured
    /// against this.
    last_sweep_len: usize,
}

fn pool() -> &'static Mutex<Pool> {
    static POOL: OnceLock<Mutex<Pool>> = OnceLock::new();
    POOL.get_or_init(|| {
        Mutex::new(Pool {
            entries: HashSet::new(),
            last_sweep_len: 0,
        })
    })
}

impl Name {
    /// Interns `s`, returning the canonical [`Name`] for that string.
    pub fn new(s: &str) -> Self {
        let mut pool = pool().lock().expect("interner poisoned");
        if let Some(existing) = pool.entries.get(s) {
            return existing.clone();
        }
        // Amortised garbage collection: once the pool has doubled since the
        // last sweep, drop entries no live `Name` refers to any more. This
        // bounds the pool to ~2x the live name set even when the name space
        // churns (per-instance ids, per-run labels), at O(1) amortised cost
        // per intern.
        if pool.entries.len() >= pool.last_sweep_len.max(SWEEP_FLOOR) * 2 {
            pool.entries.retain(|entry| Arc::strong_count(&entry.0) > 1);
            pool.last_sweep_len = pool.entries.len();
        }
        let name = Name(Arc::new(Box::from(s)));
        pool.entries.insert(name.clone());
        name
    }

    /// The interned string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The address of the interned allocation: a key that identifies the
    /// name without reading a byte of it.
    ///
    /// Two live names have equal addresses exactly when they are equal.
    /// The pool hands out one allocation per distinct string for as long
    /// as any [`Name`] holds it (a sweep drops only entries nothing else
    /// refers to), so equal live names share one allocation; and two live
    /// allocations never share an address, so unequal live names differ.
    /// A table keyed by addresses is therefore sound as long as it keeps
    /// the names it was keyed with alive — then any name probing it with an
    /// equal address *is* the stored name, and an address that matches
    /// nothing stored is a name the table does not hold.
    pub fn addr(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// Number of distinct strings currently interned (diagnostics only).
    pub fn interned_count() -> usize {
        pool().lock().expect("interner poisoned").entries.len()
    }
}

impl std::ops::Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        // Interning guarantees one allocation per distinct string, so
        // pointer identity decides almost every comparison; the content
        // check only matters for names from different interner generations
        // (impossible today, but cheap insurance).
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return std::cmp::Ordering::Equal;
        }
        self.0.cmp(&other.0)
    }
}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Content hashing keeps `Hash` consistent with `Borrow<str>`, so
        // hash maps keyed by `Name` answer `&str` lookups.
        self.0.hash(state);
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(&self.0, f)
    }
}

impl std::fmt::Debug for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.0, f)
    }
}

impl Default for Name {
    fn default() -> Self {
        Name::new("")
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name::new(s)
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Self {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name::new(&s)
    }
}

impl From<&Name> for Name {
    fn from(n: &Name) -> Self {
        n.clone()
    }
}

impl From<Name> for String {
    fn from(n: Name) -> Self {
        n.as_str().to_string()
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn interning_deduplicates_allocations() {
        let a = Name::new("intern_dedup_test_key");
        let b = Name::new("intern_dedup_test_key");
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a.addr(), b.addr());
        assert_eq!(a, b);
        let other = Name::new("intern_dedup_test_other_key");
        assert_ne!(a.addr(), other.addr());
        assert_ne!(a, other);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_name_is_one_word() {
        use std::mem::size_of;
        assert_eq!(size_of::<Name>(), size_of::<usize>());
        assert_eq!(size_of::<Option<Name>>(), size_of::<usize>());
    }

    #[test]
    fn names_compare_like_strings() {
        let a = Name::new("alpha");
        let z = Name::new("zulu");
        assert!(a < z);
        assert_eq!(a, "alpha");
        assert_eq!("alpha", a.clone());
        assert_eq!(a, "alpha".to_string());
        assert_ne!(a, z);
    }

    #[test]
    fn btreemap_answers_str_lookups_in_lexicographic_order() {
        let mut map: BTreeMap<Name, usize> = BTreeMap::new();
        map.insert(Name::new("web"), 1);
        map.insert(Name::new("db"), 2);
        map.insert(Name::new("api"), 3);
        assert_eq!(map.get("db"), Some(&2));
        let keys: Vec<&Name> = map.keys().collect();
        assert_eq!(keys, ["api", "db", "web"]);
    }

    #[test]
    fn hashing_is_consistent_with_borrow() {
        let mut set: std::collections::HashSet<Name> = std::collections::HashSet::new();
        set.insert(Name::new("cpu_usage"));
        assert!(set.contains("cpu_usage"));
        assert!(!set.contains("mem_usage"));
    }

    #[test]
    fn conversions_roundtrip() {
        let n: Name = "metric".to_string().into();
        let s: String = n.clone().into();
        assert_eq!(s, "metric");
        assert_eq!(n.to_string(), "metric");
        assert_eq!(format!("{n:?}"), "\"metric\"");
        let via_ref: Name = (&n).into();
        assert_eq!(via_ref, n);
        assert_eq!(Name::default(), "");
    }

    #[test]
    fn clones_are_refcount_bumps() {
        let a = Name::new("cheap_clone_test");
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a.addr(), b.addr());
    }

    #[test]
    fn dead_entries_are_swept_and_live_ones_survive_churn() {
        let live = Name::new("sweep_test_live_name");
        // Churn far past the sweep threshold with names that are dropped
        // immediately; the pool must not grow without bound.
        for i in 0..(super::SWEEP_FLOOR * 8) {
            let _ = Name::new(&format!("sweep_test_transient_{i}"));
        }
        assert!(
            Name::interned_count() < super::SWEEP_FLOOR * 8,
            "interner retained all {} transient names ({} interned)",
            super::SWEEP_FLOOR * 8,
            Name::interned_count()
        );
        // The live name survived every sweep and still resolves to the
        // same allocation.
        let again = Name::new("sweep_test_live_name");
        assert!(Arc::ptr_eq(&live.0, &again.0));
        assert_eq!(live.addr(), again.addr());
        // A name interned after the sweeps is a distinct live allocation.
        let fresh = Name::new("sweep_test_fresh_name");
        assert_ne!(live.addr(), fresh.addr());
    }
}
