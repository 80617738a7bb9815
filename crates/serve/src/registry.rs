//! The sharded tenant registry.

use crate::tenant::Tenant;
use crate::{Result, ServeError};
use sieve_exec::hash::shard_index;
use sieve_exec::Name;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A fixed-shard-count, hash-routed map from tenant name to tenant state.
///
/// Every tenant name routes to one of `shard_count` (a power of two)
/// shards via the deterministic [`shard_index`] hash, and each shard is an
/// independently locked `HashMap` — so operations on tenants in different
/// shards (an ingest for tenant A, a lookup for tenant B) never touch the
/// same lock. Shard locks are held only for map operations, never while a
/// tenant's store or session is being worked on: the maps hand out
/// `Arc<Tenant>` handles and the per-tenant state carries its own, finer
/// locks.
#[derive(Debug)]
pub(crate) struct ShardedRegistry {
    shards: Box<[Shard]>,
    /// Cached result of [`ShardedRegistry::all_sorted`]. Every sweep and
    /// every `stats()` call needs the full sorted tenant list, but the
    /// list only changes when a tenant is registered — so the sort (and
    /// the N `Arc` clones behind it) runs once per
    /// [`ShardedRegistry::insert`] instead of once per sweep. Nothing else
    /// invalidates it: the list holds `Arc<Tenant>` handles, and everything
    /// a sweep observes about a tenant (store, retention, session) is read
    /// live through them.
    sorted: RwLock<Option<Arc<Vec<Arc<Tenant>>>>>,
    /// Bumped on every invalidation (under the `sorted` write lock). A
    /// rebuild records the version before reading the shard maps and
    /// fills the cache only if it is unchanged — so a list built
    /// concurrently with an insert can never be cached as current.
    sorted_version: AtomicU64,
}

/// One independently locked slice of the registry.
type Shard = RwLock<HashMap<Name, Arc<Tenant>>>;

impl ShardedRegistry {
    /// Creates a registry with `shard_count` shards (must be a power of
    /// two, validated by the service configuration before this runs).
    pub(crate) fn new(shard_count: usize) -> Self {
        let shards = (0..shard_count)
            .map(|_| RwLock::new(HashMap::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            shards,
            sorted: RwLock::new(None),
            sorted_version: AtomicU64::new(0),
        }
    }

    fn shard(&self, name: &str) -> &Shard {
        &self.shards[shard_index(name, self.shards.len())]
    }

    /// Inserts a new tenant.
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateTenant`] when the name is already registered.
    pub(crate) fn insert(&self, tenant: Arc<Tenant>) -> Result<()> {
        let mut shard = self
            .shard(tenant.name.as_str())
            .write()
            .expect("registry shard poisoned");
        if shard.contains_key(&tenant.name) {
            return Err(ServeError::DuplicateTenant {
                tenant: tenant.name.to_string(),
            });
        }
        shard.insert(tenant.name.clone(), tenant);
        drop(shard);
        // Drop the cached sorted snapshot; the next
        // [`ShardedRegistry::all_sorted`] rebuilds it from the live shards.
        let mut cache = self.sorted.write().expect("registry sort cache poisoned");
        self.sorted_version.fetch_add(1, Ordering::Relaxed);
        *cache = None;
        Ok(())
    }

    /// Looks a tenant up by name.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] when the name is not registered.
    pub(crate) fn get(&self, name: &str) -> Result<Arc<Tenant>> {
        self.shard(name)
            .read()
            .expect("registry shard poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant {
                tenant: name.to_string(),
            })
    }

    /// Number of registered tenants (sum over shards; each shard lock is
    /// taken briefly in turn, so the count is a consistent snapshot only
    /// when no tenant is being created concurrently).
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("registry shard poisoned").len())
            .sum()
    }

    /// All tenants of one shard, sorted by name — the deterministic
    /// content of that shard's durability snapshot (the WAL layer shares
    /// this registry's shard routing, so "one log shard" and "one
    /// registry shard" are the same partition of the tenant space).
    pub(crate) fn all_in_shard(&self, shard: usize) -> Vec<Arc<Tenant>> {
        let mut tenants: Vec<Arc<Tenant>> = self.shards[shard]
            .read()
            .expect("registry shard poisoned")
            .values()
            .cloned()
            .collect();
        tenants.sort_by(|a, b| a.name.cmp(&b.name));
        tenants
    }

    /// All tenants, sorted by name. This is the deterministic input order
    /// of the refresh sweep: shard-internal iteration order is arbitrary
    /// (a `HashMap`), so the sweep sorts to make `parallelism = 1` and
    /// `parallelism = N` process identical work lists.
    ///
    /// The snapshot is cached behind an `Arc` and rebuilt only after an
    /// insert invalidated it, so per-sweep cost is one read lock and one
    /// reference-count bump.
    pub(crate) fn all_sorted(&self) -> Arc<Vec<Arc<Tenant>>> {
        if let Some(cached) = self
            .sorted
            .read()
            .expect("registry sort cache poisoned")
            .as_ref()
        {
            return Arc::clone(cached);
        }
        let version = self.sorted_version.load(Ordering::Relaxed);
        let mut tenants: Vec<Arc<Tenant>> = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            tenants.extend(
                shard
                    .read()
                    .expect("registry shard poisoned")
                    .values()
                    .cloned(),
            );
        }
        tenants.sort_by(|a, b| a.name.cmp(&b.name));
        let tenants = Arc::new(tenants);
        let mut cache = self.sorted.write().expect("registry sort cache poisoned");
        // Fill only if no invalidation raced our build: an insert that
        // landed after we read the shard maps bumps the version before we
        // get here, and caching our (stale) list would hide the new
        // tenant until the *next* invalidation. Returning the stale list
        // to our own caller is fine — it is exactly what a call a moment
        // earlier would have seen.
        if cache.is_none() && self.sorted_version.load(Ordering::Relaxed) == version {
            *cache = Some(Arc::clone(&tenants));
        }
        tenants
    }
}
