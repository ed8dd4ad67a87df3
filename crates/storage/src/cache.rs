//! The secure outsourced cache `σ`.
//!
//! A secret-shared memory block holding newly generated (exhaustively padded) view
//! entries awaiting synchronization into the materialized view (Section 2.2). The
//! cache supports the three operations the view-update protocol needs: *write*
//! (append a padded ΔV), *read* (oblivious sort by `isView` + prefix cut of a DP-sized
//! number of entries), and *flush* (fixed-size prefix cut followed by recycling the
//! remainder).
//!
//! # Layout
//! The entries live in column lanes ([`SharedColumnsPair`]): one `u32` lane per field
//! and one `isView` lane per party. ΔV arrives record-major from Transform and is
//! transposed once, in `O(|ΔV|)`, by [`SecureCache::write`]. A read sorts the live
//! rows in place and copies out the first `read_size` of them; the cut itself only
//! advances a head offset. The dead prefix is compacted away once it reaches half the
//! lanes, so every row is moved at most once per cut that passes it and a read costs
//! amortized `O(read_size)` on top of the sort — the remainder is never copied per
//! cut.

use incshrink_mpc::cost::CostMeter;
use incshrink_oblivious::compact::cache_read;
use incshrink_secretshare::columns::SharedColumnsPair;
use incshrink_secretshare::PartyId;
use serde::{Deserialize, Serialize};

/// Statistics about cache activity, for experiment reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total padded entries ever written.
    pub written: u64,
    /// Total entries fetched by reads (DP-sized synchronizations).
    pub read: u64,
    /// Total entries fetched by flushes.
    pub flushed: u64,
    /// Total entries recycled (discarded) by flushes.
    pub recycled: u64,
    /// Number of flush operations performed.
    pub flush_count: u64,
}

/// The secure outsourced cache.
#[derive(Debug, Clone, Default)]
pub struct SecureCache {
    /// Rows `[head, len)` are the cached entries; rows before `head` were cut by
    /// earlier reads and wait for compaction.
    lanes: SharedColumnsPair,
    head: usize,
    stats: CacheStats,
}

impl SecureCache {
    /// Empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current (padded) length of the cache.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes.len() - self.head
    }

    /// True when the cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of real view entries currently cached. Protocol-internal / test use
    /// only: reconstructs the hidden flags.
    #[must_use]
    pub fn true_cardinality(&self) -> usize {
        let live = |party| &self.lanes.is_view_lane(party)[self.head..];
        live(PartyId::S0)
            .iter()
            .zip(live(PartyId::S1))
            .filter(|&(a, b)| a ^ b != 0)
            .count()
    }

    /// Activity statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Append a padded ΔV produced by Transform (`σ ← σ || ΔV`, Algorithm 1 line 7),
    /// transposing a record-major batch into the lanes.
    pub fn write(&mut self, delta: impl Into<SharedColumnsPair>) {
        let delta = delta.into();
        self.stats.written += delta.len() as u64;
        self.lanes
            .extend(delta)
            .expect("view entries share one arity");
    }

    /// The Shrink cache read: obliviously sort by `isView` and cut the first
    /// `read_size` entries (Figure 3). Returns the fetched entries.
    pub fn read(&mut self, read_size: usize, meter: &mut CostMeter) -> SharedColumnsPair {
        let fetched = cache_read(self.lanes.rows_mut(self.head), read_size, meter);
        self.cut(fetched.len());
        self.stats.read += fetched.len() as u64;
        fetched
    }

    /// The independent flush mechanism (Section 5.2.1): sort, cut a fixed `flush_size`
    /// prefix to be synchronized immediately, and recycle (drop) the remainder.
    /// Returns the fetched prefix.
    pub fn flush(&mut self, flush_size: usize, meter: &mut CostMeter) -> SharedColumnsPair {
        let fetched = cache_read(self.lanes.rows_mut(self.head), flush_size, meter);
        self.stats.flushed += fetched.len() as u64;
        self.stats.recycled += (self.len() - fetched.len()) as u64;
        self.stats.flush_count += 1;
        self.lanes.clear();
        self.head = 0;
        fetched
    }

    /// Cut the first `n` live rows: advance the head, and compact once the dead
    /// prefix reaches half the lanes. Compaction moves the live rows, which are no
    /// more than the rows cut since the previous compaction, so cuts stay amortized
    /// `O(n)`.
    fn cut(&mut self, n: usize) {
        self.head += n;
        if 2 * self.head >= self.lanes.len() {
            self.lanes.drain_front(self.head);
            self.head = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_oblivious::sort::{batcher_pairs, charge_sort_network};
    use incshrink_secretshare::arrays::SharedArrayPair;
    use incshrink_secretshare::tuple::PlainRecord;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The record-major cache the columnar one replaced, kept as its oracle: the
    /// read walks the Batcher network comparator by comparator over whole records
    /// and cuts with `split_front`.
    #[derive(Default)]
    struct ReferenceAosCache {
        entries: SharedArrayPair,
        stats: CacheStats,
    }

    impl ReferenceAosCache {
        fn write(&mut self, delta: SharedArrayPair) {
            self.stats.written += delta.len() as u64;
            self.entries.extend(delta).unwrap();
        }

        fn sort_and_cut(&mut self, size: usize, meter: &mut CostMeter) -> SharedArrayPair {
            let n = self.entries.len();
            let width = self.entries.arity().unwrap_or(1) as u64 + 1;
            charge_sort_network(n, width, meter);
            let entries = self.entries.entries_mut();
            for (lo, hi) in batcher_pairs(n) {
                let dummy = |i: usize| entries[i].is_view.recover() == 0;
                if dummy(lo) && !dummy(hi) {
                    entries.swap(lo, hi);
                }
            }
            let width = self.entries.arity().unwrap_or(0) as u64 + 1;
            meter.bytes(size.min(n) as u64 * width * 4);
            meter.round();
            self.entries.split_front(size)
        }

        fn read(&mut self, size: usize, meter: &mut CostMeter) -> SharedArrayPair {
            let fetched = self.sort_and_cut(size, meter);
            self.stats.read += fetched.len() as u64;
            fetched
        }

        fn flush(&mut self, size: usize, meter: &mut CostMeter) -> SharedArrayPair {
            let fetched = self.sort_and_cut(size, meter);
            self.stats.flushed += fetched.len() as u64;
            self.stats.recycled += self.entries.len() as u64;
            self.stats.flush_count += 1;
            self.entries.clear();
            fetched
        }
    }

    /// About `real` real records spread among `real + dummy` slots, each carrying a
    /// unique id in its first field, so equal share words mean the same records in
    /// the same places.
    fn identified_delta(
        next_id: &mut u32,
        real: usize,
        dummy: usize,
        seed: u64,
    ) -> SharedArrayPair {
        let n = real + dummy;
        let records: Vec<PlainRecord> = (0..n)
            .map(|i| {
                *next_id += 1;
                PlainRecord {
                    fields: vec![*next_id, 7],
                    is_view: (i * 7) % n < real,
                }
            })
            .collect();
        SharedArrayPair::share_records(&records, &mut StdRng::seed_from_u64(seed))
    }

    /// One cache operation: `0` writes `(a real, b dummy)`, `1` reads `a`, `2` flushes `b`.
    type Op = (u8, usize, usize);

    /// Apply `ops` to the columnar cache and to the oracle; after every operation the
    /// fetched batch, the live arrangement, the charged cost and the stats must agree.
    fn assert_cache_matches_oracle(ops: &[Op], seed: u64) -> usize {
        let (mut cache, mut oracle) = (SecureCache::new(), ReferenceAosCache::default());
        let (mut meter, mut oracle_meter) = (CostMeter::new(), CostMeter::new());
        let mut next_id = 0;
        let mut compactions = 0;
        for (step, &(op, a, b)) in ops.iter().enumerate() {
            let fetched = match op {
                0 => {
                    let delta = identified_delta(&mut next_id, a, b, seed ^ step as u64);
                    cache.write(delta.clone());
                    oracle.write(delta);
                    None
                }
                1 => Some((cache.read(a, &mut meter), oracle.read(a, &mut oracle_meter))),
                _ => Some((
                    cache.flush(b, &mut meter),
                    oracle.flush(b, &mut oracle_meter),
                )),
            };
            if let Some((columns, records)) = fetched {
                assert_eq!(columns.len(), records.len(), "op {step}");
                if !records.is_empty() {
                    assert_eq!(columns, SharedColumnsPair::from_pair(&records), "op {step}");
                }
            }
            let mut live = cache.lanes.clone();
            live.drain_front(cache.head);
            assert_eq!(live.len(), oracle.entries.len(), "op {step}");
            if !live.is_empty() {
                assert_eq!(
                    live,
                    SharedColumnsPair::from_pair(&oracle.entries),
                    "op {step}"
                );
            }
            assert_eq!(cache.true_cardinality(), oracle.entries.true_cardinality());
            assert_eq!(meter.report(), oracle_meter.report(), "op {step}");
            assert_eq!(cache.stats(), oracle.stats, "op {step}");
            if op == 1 && cache.head == 0 && a > 0 {
                compactions += 1;
            }
        }
        compactions
    }

    #[test]
    fn consecutive_cuts_compact_and_match_the_oracle() {
        // One large write, then 60 small cuts in a row: the head passes half the
        // lanes several times, so the compaction path runs between cuts.
        let mut ops = vec![(0u8, 40usize, 200usize)];
        ops.extend((0..60).map(|i| (1u8, 1 + i % 5, 0)));
        assert!(assert_cache_matches_oracle(&ops, 11) >= 2);
    }

    proptest! {
        #[test]
        fn prop_columnar_cache_matches_aos_oracle(
            first in (0usize..40, 0usize..160),
            cuts in proptest::collection::vec(0usize..12, 50..60),
            mixed in proptest::collection::vec((0u8..10, 0usize..12, 0usize..30), 0..40),
            seed: u64,
        ) {
            let mut ops: Vec<Op> = vec![(0, first.0, first.1)];
            ops.extend(cuts.iter().map(|&a| (1, a, 0)));
            // Mixed tail: 40% writes, 50% reads, 10% flushes.
            ops.extend(mixed.iter().map(|&(kind, a, b)| match kind {
                0..=3 => (0, a, b),
                4..=8 => (1, a, 0),
                _ => (2, 0, b),
            }));
            assert_cache_matches_oracle(&ops, seed);
        }
    }

    fn delta(real: usize, dummy: usize) -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64(7);
        let mut records: Vec<PlainRecord> = (0..real)
            .map(|i| PlainRecord::real(vec![i as u32]))
            .collect();
        records.extend((0..dummy).map(|_| PlainRecord::dummy(1)));
        SharedArrayPair::share_records(&records, &mut rng)
    }

    #[test]
    fn write_read_cycle() {
        let mut cache = SecureCache::new();
        let mut meter = CostMeter::new();
        assert!(cache.is_empty());
        cache.write(delta(3, 5));
        cache.write(delta(2, 6));
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.true_cardinality(), 5);

        let fetched = cache.read(4, &mut meter);
        assert_eq!(fetched.len(), 4);
        assert_eq!(fetched.true_cardinality(), 4, "real entries fetched first");
        assert_eq!(cache.true_cardinality(), 1);
        assert_eq!(cache.len(), 12);

        let stats = cache.stats();
        assert_eq!(stats.written, 16);
        assert_eq!(stats.read, 4);
        assert_eq!(stats.flush_count, 0);
    }

    #[test]
    fn flush_fetches_prefix_and_recycles_rest() {
        let mut cache = SecureCache::new();
        let mut meter = CostMeter::new();
        cache.write(delta(2, 10));
        let fetched = cache.flush(5, &mut meter);
        assert_eq!(fetched.len(), 5);
        assert_eq!(fetched.true_cardinality(), 2);
        assert!(cache.is_empty(), "remainder recycled");
        let stats = cache.stats();
        assert_eq!(stats.flushed, 5);
        assert_eq!(stats.recycled, 7);
        assert_eq!(stats.flush_count, 1);
    }

    #[test]
    fn read_more_than_cache_size_drains() {
        let mut cache = SecureCache::new();
        let mut meter = CostMeter::new();
        cache.write(delta(1, 2));
        let fetched = cache.read(10, &mut meter);
        assert_eq!(fetched.len(), 3);
        assert!(cache.is_empty());
    }

    #[test]
    fn flush_with_larger_size_than_cache() {
        let mut cache = SecureCache::new();
        let mut meter = CostMeter::new();
        cache.write(delta(2, 2));
        let fetched = cache.flush(100, &mut meter);
        assert_eq!(fetched.len(), 4);
        assert_eq!(cache.stats().recycled, 0);
    }
}
