//! Crate-boundary smoke test: oblivious sort and cache read over secret shares.

use incshrink_mpc::cost::CostMeter;
use incshrink_oblivious::{cache_read, oblivious_sort_by_field, SortOrder};
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::columns::SharedColumnsPair;
use incshrink_secretshare::tuple::PlainRecord;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn sort_and_cache_read_through_public_api() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut records: Vec<PlainRecord> = [9u32, 3, 7, 1, 5]
        .iter()
        .map(|&v| PlainRecord::real(vec![v]))
        .collect();
    records.push(PlainRecord::dummy(1));
    let mut arr = SharedArrayPair::share_records(&records, &mut rng);

    let mut meter = CostMeter::new();
    oblivious_sort_by_field(&mut arr, 0, SortOrder::Ascending, &mut meter);
    let sorted: Vec<u32> = arr
        .recover_all()
        .iter()
        .filter(|r| r.is_view)
        .map(|r| r.fields[0])
        .collect();
    assert_eq!(sorted, vec![1, 3, 5, 7, 9]);

    // Cache read fetches real tuples before dummies.
    let mut cache = SharedColumnsPair::from_pair(&arr);
    let fetched = cache_read(cache.rows_mut(0), 3, &mut meter);
    assert_eq!(fetched.len(), 3);
    assert_eq!(fetched.true_cardinality(), 3, "reals come first");
}
