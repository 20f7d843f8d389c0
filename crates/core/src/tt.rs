//! Bounded two-level transposition table for the attack search.
//!
//! The greedy attacks re-evaluate heavily overlapping candidate sets:
//! every PGD iteration whose re-binarised graph matches a state already
//! visited (the long stretches where no Ż crosses ½, period-2 flip
//! oscillations near a fixed point) and every λ restart from the clean
//! graph re-derive the same `(graph state, candidate)` pair gradients. [`TransTable`] caches
//! those scalars the way chess engines cache position evaluations:
//!
//! * **Key** — the caller folds the session's Zobrist state hash (edge
//!   set ⊕ target set, see [`ba_graph::zobrist`]) with the candidate's
//!   dense index into one 64-bit key ([`TransTable::full_key`]). The
//!   full key is stored and compared, so a hit requires all 64 bits to
//!   match — bucket aliasing can evict, never corrupt.
//! * **Bucket layout** — entries live in power-of-two buckets of two
//!   slots, indexed by a caller-chosen *slot code* (`code & mask`).
//!   The memoized assembly passes the candidate index as the code, so
//!   a scan over the candidate space probes consecutive buckets —
//!   sequential, prefetch-friendly memory traffic instead of the
//!   random walk a conventional state-major table would do per
//!   candidate.
//! * **Two-level keyed replacement** — the two slots are recency
//!   tiers: a store whose key is already present updates in place;
//!   a new key enters slot 0, demoting slot 0 to slot 1 and evicting
//!   slot 1; a hit in slot 1 promotes the entry back to slot 0. Each
//!   bucket is therefore a 2-entry LRU, which is exactly what the
//!   search's revisit pattern needs: a PGD oscillation alternates
//!   between two states, and both stay resident while older states'
//!   values age out.
//!
//! Capacity is fixed at construction — the table never grows, never
//! rehashes, and evicts deterministically, so memory stays bounded on
//! arbitrarily long sessions and a cached run is reproducible to the
//! byte. Crucially the table only ever returns values *it was given*:
//! correctness never depends on hit rate, which is why the golden
//! tests can pin cached ≡ uncached bit-identity while the hit/miss/
//! eviction counters ([`TtStats`]) are free to drift with tuning.

use ba_graph::zobrist::splitmix64;

/// One cached scalar. `key == 0` marks an empty slot; [`TransTable::full_key`]
/// never produces 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Entry {
    key: u64,
    value: f64,
}

/// Hit/miss/eviction counters of a [`TransTable`] — surfaced through
/// `BENCH_search.json` so cache effectiveness is tracked per commit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TtStats {
    /// Probes that found their key.
    pub hits: u64,
    /// Probes that did not.
    pub misses: u64,
    /// Values written (first-time and in-place updates).
    pub stores: u64,
    /// Stores that displaced a live entry with a different key.
    pub evictions: u64,
    /// Total entry capacity (2 × bucket count).
    pub capacity: usize,
}

impl TtStats {
    /// Fraction of probes that hit, `0.0` when nothing was probed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Bounded-capacity two-level transposition table mapping 64-bit keys
/// to `f64` evaluations. See the module docs for the replacement
/// policy and bucket layout.
#[derive(Debug, Clone)]
pub struct TransTable {
    buckets: Vec<[Entry; 2]>,
    mask: u64,
    hits: u64,
    misses: u64,
    stores: u64,
    evictions: u64,
}

impl TransTable {
    /// A table holding at most `entries` values (rounded up to a
    /// power-of-two bucket count, two entries per bucket, minimum one
    /// bucket). Memory is allocated up front and never grows.
    pub fn new(entries: usize) -> Self {
        let buckets = (entries.div_ceil(2)).next_power_of_two().max(1);
        Self {
            buckets: vec![[Entry::default(); 2]; buckets],
            mask: buckets as u64 - 1,
            hits: 0,
            misses: 0,
            stores: 0,
            evictions: 0,
        }
    }

    /// Folds a session state hash and a per-entry code (candidate index
    /// or a reserved sentinel) into the stored 64-bit key. Never
    /// returns 0 (the empty-slot marker): the remap of 0 to 1 costs one
    /// key out of 2⁶⁴ and keeps slots branch-free.
    #[inline]
    pub fn full_key(state_hash: u64, code: u64) -> u64 {
        Self::full_key_premixed(state_hash, splitmix64(code))
    }

    /// [`TransTable::full_key`] with the code half already mixed
    /// (`mixed_code = splitmix64(code)`) — callers that probe a dense
    /// candidate range per state precompute the mix once per candidate
    /// instead of once per probe.
    #[inline]
    pub fn full_key_premixed(state_hash: u64, mixed_code: u64) -> u64 {
        let k = splitmix64(state_hash ^ mixed_code);
        if k == 0 {
            1
        } else {
            k
        }
    }

    /// Whether `key` is resident in the bucket selected by `code`,
    /// without touching counters or recency order — the sampling
    /// pre-probe callers use to route between the memoized and bulk
    /// assembly paths.
    #[inline]
    pub fn peek(&self, code: u64, key: u64) -> bool {
        let bucket = &self.buckets[(code & self.mask) as usize];
        bucket[0].key == key || bucket[1].key == key
    }

    /// Looks up `key` in the bucket selected by `code`. A hit in the
    /// older slot promotes the entry to the front (recency order).
    #[inline]
    pub fn probe(&mut self, code: u64, key: u64) -> Option<f64> {
        let bucket = &mut self.buckets[(code & self.mask) as usize];
        if bucket[0].key == key {
            self.hits += 1;
            return Some(bucket[0].value);
        }
        if bucket[1].key == key {
            self.hits += 1;
            bucket.swap(0, 1);
            return Some(bucket[0].value);
        }
        self.misses += 1;
        None
    }

    /// Inserts or updates `key → value` in the bucket selected by
    /// `code`: in-place if the key is present; otherwise the new entry
    /// takes slot 0, the previous front demotes to slot 1, and the
    /// oldest entry (if live) is evicted.
    #[inline]
    pub fn store(&mut self, code: u64, key: u64, value: f64) {
        debug_assert_ne!(key, 0, "key 0 is the empty-slot marker");
        let bucket = &mut self.buckets[(code & self.mask) as usize];
        self.stores += 1;
        if bucket[0].key == key {
            bucket[0].value = value;
            return;
        }
        if bucket[1].key == key {
            bucket[1].value = value;
            bucket.swap(0, 1);
            return;
        }
        if bucket[1].key != 0 && bucket[0].key != 0 {
            self.evictions += 1;
        }
        bucket[1] = bucket[0];
        bucket[0] = Entry { key, value };
    }

    /// Clears all entries (counters survive — they describe the
    /// session, not the resident set).
    pub fn clear(&mut self) {
        self.buckets.fill([Entry::default(); 2]);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TtStats {
        TtStats {
            hits: self.hits,
            misses: self.misses,
            stores: self.stores,
            evictions: self.evictions,
            capacity: self.buckets.len() * 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_miss_then_store_then_hit() {
        let mut tt = TransTable::new(64);
        let key = TransTable::full_key(0xdead_beef, 7);
        assert_eq!(tt.probe(7, key), None);
        tt.store(7, key, 1.25);
        assert_eq!(tt.probe(7, key), Some(1.25));
        let s = tt.stats();
        assert_eq!((s.hits, s.misses, s.stores, s.evictions), (1, 1, 1, 0));
        assert_eq!(s.capacity, 64);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn same_bucket_holds_two_keys_then_evicts_churn_slot() {
        // One bucket total: every code aliases to it.
        let mut tt = TransTable::new(2);
        let (k1, k2, k3) = (
            TransTable::full_key(1, 0),
            TransTable::full_key(2, 0),
            TransTable::full_key(3, 0),
        );
        tt.store(0, k1, 1.0);
        tt.store(0, k2, 2.0);
        assert_eq!(tt.stats().evictions, 0);
        // Third distinct key evicts the least recent (k1), keeping the
        // two newest resident.
        tt.store(0, k3, 3.0);
        assert_eq!(tt.stats().evictions, 1);
        assert_eq!(tt.probe(0, k2), Some(2.0));
        assert_eq!(tt.probe(0, k3), Some(3.0));
        assert_eq!(tt.probe(0, k1), None);
    }

    #[test]
    fn older_slot_hit_earns_recency() {
        let mut tt = TransTable::new(2);
        let (k1, k2, k3) = (
            TransTable::full_key(1, 0),
            TransTable::full_key(2, 0),
            TransTable::full_key(3, 0),
        );
        tt.store(0, k1, 1.0);
        tt.store(0, k2, 2.0);
        // Hitting k1 (the older slot) promotes it, so the next store
        // evicts k2 instead — the oscillation pattern's guarantee.
        assert_eq!(tt.probe(0, k1), Some(1.0));
        tt.store(0, k3, 3.0);
        assert_eq!(tt.probe(0, k1), Some(1.0));
        assert_eq!(tt.probe(0, k2), None);
    }

    #[test]
    fn in_place_update_is_not_an_eviction() {
        let mut tt = TransTable::new(8);
        let key = TransTable::full_key(5, 1);
        tt.store(1, key, 1.0);
        tt.store(1, key, 2.0);
        assert_eq!(tt.probe(1, key), Some(2.0));
        assert_eq!(tt.stats().evictions, 0);
        assert_eq!(tt.stats().stores, 2);
    }

    #[test]
    fn capacity_stays_bounded_and_clear_empties() {
        let mut tt = TransTable::new(16);
        for i in 0..10_000u64 {
            tt.store(i, TransTable::full_key(i, i), i as f64);
        }
        assert_eq!(tt.stats().capacity, 16);
        tt.clear();
        for i in 0..10_000u64 {
            assert_eq!(tt.probe(i, TransTable::full_key(i, i)), None);
        }
    }

    #[test]
    fn full_key_never_zero_and_mixes_both_inputs() {
        assert_ne!(TransTable::full_key(0, 0), 0);
        assert_ne!(TransTable::full_key(1, 0), TransTable::full_key(0, 1));
        assert_ne!(TransTable::full_key(7, 3), TransTable::full_key(7, 4));
    }
}
