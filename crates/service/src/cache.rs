//! The content-addressed result cache.
//!
//! Keyed by [`job_key`](crate::job::job_key) — (program, args, stdin,
//! file image, fuel) — so a result computed once is served to every
//! tenant and every engine request that asks the same question. Safety
//! rests on two pillars: theorem J makes the result engine-independent,
//! and **every** lookup checks the entry's recorded [`CACHE_VERSION`]
//! before serving it, so a version bump instantly invalidates stale
//! semantics instead of serving them.
//!
//! Eviction is least-recently-used under a fixed capacity, counted so
//! the service can report hit/miss/eviction rates.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::job::{JobOutcome, JobStatus, CACHE_VERSION};

struct Entry {
    version: u32,
    outcome: JobOutcome,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<u64, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Hit/miss/eviction accounting, read at bench-emission time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
}

/// A bounded LRU result cache. Capacity 0 disables caching entirely
/// (every lookup is a miss, nothing is stored).
pub struct ResultCache {
    cap: usize,
    inner: Mutex<Inner>,
}

impl ResultCache {
    /// A cache holding at most `cap` results.
    #[must_use]
    pub fn new(cap: usize) -> ResultCache {
        ResultCache { cap, inner: Mutex::new(Inner::default()) }
    }

    /// Looks up `key`, returning a clone of the stored outcome with
    /// `cached = true`. An entry recorded under a different
    /// [`CACHE_VERSION`] is *never* served — it is dropped and the
    /// lookup counts as a miss. This check is the hygiene invariant the
    /// CI guard pins: no cached result leaves the cache without a
    /// version comparison.
    pub fn lookup(&self, key: u64) -> Option<JobOutcome> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(entry) if entry.version == CACHE_VERSION => {
                entry.last_used = tick;
                let mut out = entry.outcome.clone();
                inner.hits += 1;
                out.cached = true;
                Some(out)
            }
            Some(_) => {
                // Stale semantics: invalidate rather than serve.
                inner.map.remove(&key);
                inner.misses += 1;
                None
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores `outcome` under `key`. Divergence and internal-error
    /// outcomes are never cached (the former is untrusted by
    /// definition, the latter is not a property of the job). Evicts the
    /// least-recently-used entry when at capacity.
    pub fn insert(&self, key: u64, outcome: &JobOutcome) {
        self.insert_with_version(key, outcome, CACHE_VERSION);
    }

    /// [`insert`](ResultCache::insert) with an explicit recorded
    /// version — exists so tests can prove the version check fires;
    /// production code always goes through `insert`.
    #[doc(hidden)]
    pub fn insert_with_version(&self, key: u64, outcome: &JobOutcome, version: u32) {
        if self.cap == 0 {
            return;
        }
        if matches!(outcome.status, JobStatus::Divergence | JobStatus::Internal) {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.cap {
            // LRU victim: smallest last-used tick (ticks are unique, so
            // this is deterministic regardless of map iteration order).
            if let Some(&victim) =
                inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k)
            {
                inner.map.remove(&victim);
                inner.evictions += 1;
            }
        }
        let mut stored = outcome.clone();
        stored.cached = false; // canonical form; lookup sets the flag
        inner.map.insert(key, Entry { version, outcome: stored, last_used: tick });
    }

    /// Current accounting.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag32::Engine;

    fn outcome(tag: u8) -> JobOutcome {
        JobOutcome {
            job_id: u64::from(tag),
            status: JobStatus::Exited(tag),
            message: String::new(),
            stdout: vec![tag; 3],
            stderr: Vec::new(),
            instructions: u64::from(tag) * 1000,
            engine: Engine::Jet,
            cached: false,
            shadowed: false,
            migrations: 0,
        }
    }

    #[test]
    fn hit_returns_the_stored_bytes_flagged_cached() {
        let c = ResultCache::new(4);
        assert!(c.lookup(1).is_none());
        c.insert(1, &outcome(7));
        let hit = c.lookup(1).expect("hit");
        assert!(hit.cached);
        assert!(hit.result_bytes_eq(&outcome(7)));
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1, evictions: 0, len: 1 });
    }

    #[test]
    fn lru_eviction_under_small_capacity() {
        let c = ResultCache::new(2);
        c.insert(1, &outcome(1));
        c.insert(2, &outcome(2));
        assert!(c.lookup(1).is_some(), "touch 1 so 2 becomes the LRU victim");
        c.insert(3, &outcome(3));
        assert!(c.lookup(2).is_none(), "2 was evicted");
        assert!(c.lookup(1).is_some());
        assert!(c.lookup(3).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().len, 2);
    }

    #[test]
    fn version_mismatch_is_never_served() {
        let c = ResultCache::new(4);
        c.insert_with_version(1, &outcome(1), CACHE_VERSION + 1);
        assert!(c.lookup(1).is_none(), "stale-version entry must not be served");
        assert_eq!(c.stats().len, 0, "stale entry is dropped on lookup");
    }

    #[test]
    fn divergence_and_zero_capacity_are_not_cached() {
        let c = ResultCache::new(4);
        let mut bad = outcome(1);
        bad.status = JobStatus::Divergence;
        c.insert(1, &bad);
        assert!(c.lookup(1).is_none());

        let off = ResultCache::new(0);
        off.insert(2, &outcome(2));
        assert!(off.lookup(2).is_none());
    }
}
