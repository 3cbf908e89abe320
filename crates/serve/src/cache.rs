//! Bounded LRU caches: one generic core, two caches built on it.
//!
//! [`Lru`] owns the single insert/refresh/evict path, the single
//! least- to most-recently-used export and the single restore path.
//! It stores the snapshot entry types themselves, so writing and
//! reading a cache snapshot is a copy, not a conversion:
//!
//! * [`SolutionCache`] wraps an `Lru<SnapshotEntry>` keyed by the
//!   `(full, declared)` fingerprint pair and adds the exact/warm lookup
//!   with its hit/miss/warm-start statistics:
//!   * **exact hit** — same canonical fingerprint *and* same declaration
//!     signature: the stored [`ScheduleExport`] is returned verbatim
//!     with zero solver work;
//!   * **warm hit** — a stored entry solves a structurally identical
//!     problem (same DAG, statistic and configuration; possibly permuted
//!     declarations or perturbed constraint bounds): its makespan seeds
//!     branch-and-bound pruning via the trail engine's injected bound;
//!   * **miss** — nothing usable; the solve runs cold.
//! * [`ModeCache`] is an `Lru<ModeSnapshotEntry>` keyed by the
//!   [`mode_fingerprint`](crate::fingerprint::mode_fingerprint) hash.
//!   It is exact-only: a joint multi-mode answer is reused solely on a
//!   verbatim repeat of the whole mode set (cross-mode coupling makes a
//!   cached per-mode makespan unsound as a pruning bound for a
//!   *different* mode set).
//!
//! Only complete solves are inserted (a deadline-truncated incumbent
//! must never be replayed as an answer). Capacity is enforced by
//! least-recently-used eviction over a monotonic touch stamp; with the
//! small bounded capacities the daemon uses, the linear scans here are
//! cheaper than maintaining an ordered index.

use netdag_core::spec::ScheduleExport;

use crate::fingerprint::Fingerprint;
use crate::snapshot::{ModeSnapshotEntry, SnapshotEntry};

/// A cache entry that knows its own lookup key.
pub trait Keyed {
    /// The identity a lookup matches on.
    type Key: PartialEq;
    /// This entry's key.
    fn key(&self) -> Self::Key;
}

impl Keyed for SnapshotEntry {
    type Key = (u64, u64);
    fn key(&self) -> (u64, u64) {
        (self.full, self.declared)
    }
}

impl Keyed for ModeSnapshotEntry {
    type Key = u64;
    fn key(&self) -> u64 {
        self.key
    }
}

/// A bounded LRU map over [`Keyed`] entries (see the module docs).
pub struct Lru<E> {
    capacity: usize,
    stamp: u64,
    /// `(last touch stamp, entry)`, in no particular order.
    entries: Vec<(u64, E)>,
    evictions: u64,
}

impl<E: Keyed + Clone> Lru<E> {
    /// An empty cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Lru<E> {
        Lru {
            capacity: capacity.max(1),
            stamp: 0,
            entries: Vec::new(),
            evictions: 0,
        }
    }

    fn touch(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// The entry under `key`, marked most recently used.
    pub fn get(&mut self, key: &E::Key) -> Option<&E> {
        let stamp = self.touch();
        let (s, e) = self.entries.iter_mut().find(|(_, e)| e.key() == *key)?;
        *s = stamp;
        Some(e)
    }

    /// Inserts `entry` as most recently used, replacing any entry with
    /// the same key in place, and evicts the least recently used entry
    /// when that takes the cache over capacity.
    pub fn insert(&mut self, entry: E) {
        let stamp = self.touch();
        let key = entry.key();
        if let Some(slot) = self.entries.iter_mut().find(|(_, e)| e.key() == key) {
            *slot = (stamp, entry);
            return;
        }
        self.entries.push((stamp, entry));
        if self.entries.len() > self.capacity {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (s, _))| *s)
                .map(|(i, _)| i)
                .expect("non-empty");
            self.entries.swap_remove(oldest);
            self.evictions += 1;
        }
    }

    /// Every live entry in least- to most-recently-used order, for the
    /// shutdown cache snapshot.
    pub fn export(&self) -> Vec<E> {
        let mut sorted: Vec<&(u64, E)> = self.entries.iter().collect();
        sorted.sort_by_key(|(s, _)| *s);
        sorted.into_iter().map(|(_, e)| e.clone()).collect()
    }

    /// Refills a freshly started cache from this cache's slice of a
    /// snapshot, given least- to most-recently used. Only the newest
    /// `capacity` entries are kept — a snapshot written by a larger
    /// fleet or a larger cache restores its most recent work — so a
    /// restore never evicts and replays the same recency order
    /// [`Lru::export`] wrote. Returns the number of entries replayed.
    pub fn restore(&mut self, mut entries: Vec<E>) -> u64 {
        entries.drain(..entries.len().saturating_sub(self.capacity));
        let restored = entries.len() as u64;
        for entry in entries {
            self.insert(entry);
        }
        restored
    }

    /// Every live entry, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.entries.iter().map(|(_, e)| e)
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries displaced by capacity since the cache was created.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// Outcome of a [`SolutionCache`] probe.
#[derive(Debug, Clone)]
pub enum Lookup {
    /// Exact hit: serve this document verbatim.
    Exact(ScheduleExport),
    /// Near miss: warm-start the solve; the payload is the best cached
    /// makespan (µs) among structurally matching entries.
    Warm(u64),
    /// Cold.
    Miss,
}

/// The solution cache: an [`Lru`] of solves plus the exact/warm lookup
/// and its statistics (see the module docs).
pub struct SolutionCache {
    /// The entries; snapshots export and restore through it directly.
    pub(crate) lru: Lru<SnapshotEntry>,
    /// Exact hits.
    pub(crate) hits: u64,
    /// Cold lookups.
    pub(crate) misses: u64,
    /// Warm-start lookups.
    pub(crate) warm_starts: u64,
}

impl SolutionCache {
    /// An empty cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> SolutionCache {
        SolutionCache {
            lru: Lru::new(capacity),
            hits: 0,
            misses: 0,
            warm_starts: 0,
        }
    }

    /// Probes the cache for `fp`, updating recency and hit statistics.
    pub fn lookup(&mut self, fp: &Fingerprint) -> Lookup {
        if let Some(e) = self.lru.get(&(fp.full, fp.declared)) {
            let export = e.export.clone();
            self.hits += 1;
            return Lookup::Exact(export);
        }
        if let Some(best) = self
            .lru
            .iter()
            .filter(|e| e.structural == fp.structural)
            .map(|e| e.makespan_us)
            .min()
        {
            self.warm_starts += 1;
            return Lookup::Warm(best);
        }
        self.misses += 1;
        Lookup::Miss
    }

    /// Inserts (or refreshes) a complete solve's result.
    pub fn insert(&mut self, fp: Fingerprint, export: ScheduleExport, makespan_us: u64) {
        self.lru.insert(SnapshotEntry {
            full: fp.full,
            structural: fp.structural,
            declared: fp.declared,
            makespan_us,
            export,
        });
    }
}

/// The `mode_solve` answer cache (exact-only; see the module docs).
pub type ModeCache = Lru<ModeSnapshotEntry>;

#[cfg(test)]
mod tests {
    use super::*;
    use netdag_core::modes::ModeScheduleExport;
    use netdag_core::schedule::Schedule;

    fn fp(full: u64, structural: u64, declared: u64) -> Fingerprint {
        Fingerprint {
            full,
            structural,
            declared,
        }
    }

    fn export(makespan: u64) -> ScheduleExport {
        ScheduleExport {
            schedule: Schedule::new(
                Vec::new(),
                Vec::new(),
                Vec::new(),
                netdag_glossy::GlossyTiming::telosb(),
            ),
            makespan_us: makespan,
            bus_us: 0,
            optimal: true,
        }
    }

    #[test]
    fn exact_warm_and_miss() {
        let mut c = SolutionCache::new(4);
        assert!(matches!(c.lookup(&fp(1, 10, 100)), Lookup::Miss));
        c.insert(fp(1, 10, 100), export(7), 7);
        assert!(matches!(c.lookup(&fp(1, 10, 100)), Lookup::Exact(e) if e.makespan_us == 7));
        // Same canonical problem, permuted declarations: warm only.
        assert!(matches!(c.lookup(&fp(1, 10, 101)), Lookup::Warm(7)));
        // Perturbed constraints (same structural): warm.
        assert!(matches!(c.lookup(&fp(2, 10, 102)), Lookup::Warm(7)));
        // Different structure: miss.
        assert!(matches!(c.lookup(&fp(3, 11, 103)), Lookup::Miss));
        assert_eq!((c.hits, c.warm_starts, c.misses), (1, 2, 2));
    }

    #[test]
    fn warm_uses_best_makespan() {
        let mut c = SolutionCache::new(4);
        c.insert(fp(1, 10, 1), export(9), 9);
        c.insert(fp(2, 10, 2), export(5), 5);
        assert!(matches!(c.lookup(&fp(3, 10, 3)), Lookup::Warm(5)));
    }

    #[test]
    fn lru_eviction() {
        let mut c = SolutionCache::new(2);
        c.insert(fp(1, 1, 1), export(1), 1);
        c.insert(fp(2, 2, 2), export(2), 2);
        // Touch entry 1 so entry 2 is the LRU victim.
        assert!(matches!(c.lookup(&fp(1, 1, 1)), Lookup::Exact(_)));
        c.insert(fp(3, 3, 3), export(3), 3);
        assert_eq!(c.lru.len(), 2);
        assert_eq!(c.lru.evictions(), 1);
        assert!(matches!(c.lookup(&fp(2, 2, 2)), Lookup::Miss));
        assert!(matches!(c.lookup(&fp(1, 1, 1)), Lookup::Exact(_)));
        assert!(matches!(c.lookup(&fp(3, 3, 3)), Lookup::Exact(_)));
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let mut c = SolutionCache::new(2);
        c.insert(fp(1, 1, 1), export(9), 9);
        c.insert(fp(1, 1, 1), export(8), 8);
        assert_eq!(c.lru.len(), 1);
        assert!(matches!(c.lookup(&fp(1, 1, 1)), Lookup::Exact(e) if e.makespan_us == 8));
    }

    fn mode_entry(key: u64, prefix: usize) -> ModeSnapshotEntry {
        ModeSnapshotEntry {
            key,
            export: ModeScheduleExport {
                modes: Vec::new(),
                shared_prefix_rounds: prefix,
                optimal: true,
            },
        }
    }

    fn prefix(c: &mut ModeCache, key: u64) -> Option<usize> {
        c.get(&key).map(|e| e.export.shared_prefix_rounds)
    }

    #[test]
    fn mode_cache_is_exact_only_with_lru_eviction() {
        let mut c = ModeCache::new(2);
        assert!(c.get(&1).is_none());
        c.insert(mode_entry(1, 1));
        c.insert(mode_entry(2, 2));
        assert_eq!(prefix(&mut c, 1), Some(1));
        // Entry 2 is now the LRU victim.
        c.insert(mode_entry(3, 3));
        assert!(c.get(&2).is_none());
        assert!(c.get(&1).is_some());
        assert!(c.get(&3).is_some());
        // Reinsert refreshes in place.
        c.insert(mode_entry(1, 9));
        assert_eq!(prefix(&mut c, 1), Some(9));
    }
}
