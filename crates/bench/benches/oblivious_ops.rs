//! Criterion micro-benchmarks for the oblivious operators (host-side execution cost of
//! the simulation; the *simulated* MPC cost is reported by the figure binaries).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use incshrink_mpc::cost::CostMeter;
use incshrink_oblivious::{
    cache_read, oblivious_sort_by_field, truncated_nested_loop_join, JoinSpec, PlainTable,
    SortOrder,
};
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::columns::SharedColumnsPair;
use incshrink_secretshare::tuple::PlainRecord;
use incshrink_storage::SecureCache;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_array(n: usize, arity: usize, seed: u64) -> SharedArrayPair {
    let mut rng = StdRng::seed_from_u64(seed);
    let records: Vec<PlainRecord> = (0..n)
        .map(|_| PlainRecord::real((0..arity).map(|_| rng.gen()).collect()))
        .collect();
    SharedArrayPair::share_records(&records, &mut rng)
}

/// A cache of `n` entries, each real with probability `real_per_mille / 1000`
/// and a dummy otherwise — the shape of a DP-padded secure cache.
fn padded_cache(n: usize, arity: usize, real_per_mille: u64, seed: u64) -> SharedArrayPair {
    let mut rng = StdRng::seed_from_u64(seed);
    let records: Vec<PlainRecord> = (0..n)
        .map(|_| {
            if rng.gen_range(0..1000u64) < real_per_mille {
                PlainRecord::real((0..arity).map(|_| rng.gen()).collect())
            } else {
                PlainRecord::dummy(arity)
            }
        })
        .collect();
    SharedArrayPair::share_records(&records, &mut rng)
}

fn bench_oblivious_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("oblivious_sort");
    for &n in &[64usize, 256, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let base = random_array(n, 2, 7);
            b.iter(|| {
                let mut arr = base.clone();
                let mut meter = CostMeter::new();
                oblivious_sort_by_field(&mut arr, 0, SortOrder::Ascending, &mut meter);
                arr.len()
            });
        });
    }
    group.finish();
}

fn bench_truncated_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("truncated_nested_loop_join");
    for &(outer, inner) in &[(8usize, 64usize), (8, 256), (16, 256)] {
        let mut left = PlainTable::new(&["k", "t"]);
        let mut right = PlainTable::new(&["k", "t"]);
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..outer {
            left.push_row(vec![i as u32 % 32, rng.gen_range(0..100)]);
        }
        for i in 0..inner {
            right.push_row(vec![i as u32 % 32, rng.gen_range(0..100)]);
        }
        let left = left.share(&mut rng);
        let right = right.share(&mut rng);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{outer}x{inner}")),
            &(outer, inner),
            |b, _| {
                b.iter(|| {
                    let mut meter = CostMeter::new();
                    let mut rng = StdRng::seed_from_u64(3);
                    let spec = JoinSpec::equi(0, 0);
                    truncated_nested_loop_join(&left, &right, &spec, 2, &mut meter, &mut rng).len()
                });
            },
        );
    }
    group.finish();
}

fn bench_cache_read(c: &mut Criterion) {
    // Cache sizes the Shrink workloads actually sort per synchronization
    // (roughly 10K–30K entries), not just toy arrays, at three real-entry
    // densities: the exhaustively padded caches the workloads produce hold
    // ~0.3 % real entries, 50 % real maximizes the swaps, and the all-real rows
    // are kept for comparison with earlier measurements. Reads run over the
    // column lanes the cache stores.
    let mut group = c.benchmark_group("cache_read");
    for &n in &[1024usize, 8192, 32768] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let base = SharedColumnsPair::from_pair(&random_array(n, 4, 13));
            b.iter(|| {
                let mut cache = base.clone();
                let mut meter = CostMeter::new();
                cache_read(cache.rows_mut(0), n / 4, &mut meter).len()
            });
        });
    }
    for (label, real_per_mille) in [("0.3%", 3u64), ("50%", 500)] {
        for &n in &[1024usize, 8192, 32768] {
            let id = BenchmarkId::new(format!("{label}_real"), n);
            group.bench_with_input(id, &n, |b, &n| {
                let base = SharedColumnsPair::from_pair(&padded_cache(n, 4, real_per_mille, 13));
                let real = base.true_cardinality();
                b.iter(|| {
                    let mut cache = base.clone();
                    let mut meter = CostMeter::new();
                    cache_read(cache.rows_mut(0), real, &mut meter).len()
                });
            });
        }
    }
    // The Shrink steady state: each iteration writes a 64-entry padded ΔV into a
    // cache of `n` entries and cuts 64 entries back off, so the cache length stays
    // at `n`. Measures the sort plus the amortized O(read) cut and write; no clone
    // of the cache per iteration.
    for &n in &[1024usize, 8192, 32768] {
        let id = BenchmarkId::new("write_cut_cycle", n);
        group.bench_with_input(id, &n, |b, &n| {
            let mut cache = SecureCache::new();
            cache.write(padded_cache(n, 4, 3, 13));
            let delta = SharedColumnsPair::from_pair(&padded_cache(64, 4, 30, 17));
            let mut meter = CostMeter::new();
            b.iter(|| {
                cache.write(delta.clone());
                cache.read(64, &mut meter).len()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_oblivious_sort,
    bench_truncated_join,
    bench_cache_read
);
criterion_main!(benches);
