//! The Shrink cache-read operation (Figure 3).
//!
//! The Shrink protocols fetch a DP-noised number of tuples from the exhaustively
//! padded secure cache. To guarantee that real tuples are always fetched before
//! dummies, the cache is first obliviously sorted on the `isView` bit, then the first
//! `sz` slots are cut off; the remainder stays in the cache.
//!
//! The cache is column-major ([`SharedColumnsPair`]) and the read runs over a window
//! of its live rows ([`ColumnsMut`]), so the caller can consume the cache from the
//! front by advancing an offset instead of moving the remainder on every cut. The
//! sort is [`oblivious_sort_by_is_view`]: the Batcher network swept level by level
//! over a bitset of the window's `isView` lanes, 64 slots per word, swapping only the
//! records whose comparator fires. The simulated MPC is charged for every
//! comparator, but the host cost of a read grows with `levels · n/64` plus the
//! number of records that actually move — small on the sparse, exhaustively padded
//! caches Shrink reads — not with the comparator count or the record width.

use crate::sort::oblivious_sort_by_is_view;
use incshrink_mpc::cost::CostMeter;
use incshrink_secretshare::columns::{ColumnsMut, SharedColumnsPair};

/// The secure cache read of Figure 3: obliviously sort the live cache rows `live` by
/// `isView` in place and return a copy of the first `read_size` of them (all of them
/// when `read_size` exceeds the window). The caller cuts the returned rows off the
/// cache. The servers observe only `read_size` (which the
/// calling Shrink protocol derives from a DP mechanism) — never the true cardinality.
///
/// Cost: one Batcher sort of the whole cache on the `isView` key —
/// [`crate::sort::batcher_pair_count`]`(n)` secure comparisons and record-wide swaps
/// — plus the `read_size` record transfer. Leakage: none beyond the public length
/// `n` and `read_size`. This sort over the cache length is why keeping ΔV at the
/// `ω·|delta|` nested-loop output contract (rather than Example 5.1's
/// `ω·(|T1|+|T2|)`) matters: the cache, and with it every synchronization, would
/// otherwise grow with the accumulated relation.
pub fn cache_read(
    mut live: ColumnsMut<'_>,
    read_size: usize,
    meter: &mut CostMeter,
) -> SharedColumnsPair {
    oblivious_sort_by_is_view(&mut live, meter);
    let width = live.arity() as u64 + 1;
    meter.bytes(read_size.min(live.len()) as u64 * width * 4);
    meter.round();
    live.front(read_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_secretshare::arrays::SharedArrayPair;
    use incshrink_secretshare::tuple::PlainRecord;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mixed_cache(real: usize, dummy: usize) -> SharedColumnsPair {
        let mut rng = StdRng::seed_from_u64(21);
        let mut records = Vec::new();
        // Interleave real and dummy entries.
        let mut r = 0;
        let mut d = 0;
        while r < real || d < dummy {
            if r < real {
                records.push(PlainRecord::real(vec![r as u32, 100 + r as u32]));
                r += 1;
            }
            if d < dummy {
                records.push(PlainRecord::dummy(2));
                d += 1;
            }
        }
        SharedColumnsPair::from_pair(&SharedArrayPair::share_records(&records, &mut rng))
    }

    /// Read `read_size` rows and cut them off the cache, as the Shrink cache does.
    fn read_and_cut(
        cache: &mut SharedColumnsPair,
        read_size: usize,
        meter: &mut CostMeter,
    ) -> SharedColumnsPair {
        let fetched = cache_read(cache.rows_mut(0), read_size, meter);
        cache.drain_front(fetched.len());
        fetched
    }

    #[test]
    fn cache_read_sorts_real_tuples_to_the_front() {
        // A read of the exact true cardinality fetches every real tuple and leaves
        // only dummies behind: the sort moved all reals ahead of all dummies.
        let mut meter = CostMeter::new();
        let mut cache = mixed_cache(4, 6);
        let fetched = read_and_cut(&mut cache, 4, &mut meter);
        assert!(fetched.recover_all().iter().all(|r| r.is_view));
        assert!(cache.recover_all().iter().all(|r| !r.is_view));
        assert_eq!(cache.len(), 6);
        assert!(meter.report().secure_compares > 0);
    }

    #[test]
    fn cache_read_fetches_real_before_dummy() {
        let mut meter = CostMeter::new();
        let mut cache = mixed_cache(5, 10);
        // Read fewer entries than there are real tuples: everything fetched is real,
        // the rest stays deferred in the cache.
        let fetched = read_and_cut(&mut cache, 3, &mut meter);
        assert_eq!(fetched.len(), 3);
        assert_eq!(fetched.true_cardinality(), 3);
        assert_eq!(cache.true_cardinality(), 2);
        assert_eq!(cache.len(), 12);
    }

    #[test]
    fn cache_read_larger_than_true_cardinality_includes_dummies() {
        let mut meter = CostMeter::new();
        let mut cache = mixed_cache(2, 8);
        let fetched = read_and_cut(&mut cache, 6, &mut meter);
        assert_eq!(fetched.len(), 6);
        assert_eq!(fetched.true_cardinality(), 2);
        assert_eq!(cache.true_cardinality(), 0);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn cache_read_larger_than_cache_drains_it() {
        let mut meter = CostMeter::new();
        let mut cache = mixed_cache(3, 3);
        let fetched = read_and_cut(&mut cache, 100, &mut meter);
        assert_eq!(fetched.len(), 6);
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_read_zero_returns_nothing() {
        let mut meter = CostMeter::new();
        let mut cache = mixed_cache(3, 3);
        let fetched = read_and_cut(&mut cache, 0, &mut meter);
        assert!(fetched.is_empty());
        assert_eq!(cache.len(), 6);
    }

    proptest! {
        #[test]
        fn prop_cache_read_never_skips_real_tuples(
            real in 0usize..20, dummy in 0usize..20, read in 0usize..50) {
            let mut meter = CostMeter::new();
            let mut cache = mixed_cache(real, dummy);
            let fetched = read_and_cut(&mut cache, read, &mut meter);
            // Every fetched dummy implies no real tuple was left behind.
            let fetched_real = fetched.true_cardinality();
            let left_real = cache.true_cardinality();
            prop_assert_eq!(fetched_real + left_real, real);
            if fetched_real < fetched.len() {
                // A dummy was fetched, so all real tuples must have been fetched.
                prop_assert_eq!(left_real, 0);
            }
            prop_assert_eq!(fetched.len(), read.min(real + dummy));
        }
    }
}
