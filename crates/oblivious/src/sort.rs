//! Oblivious sorting via Batcher's odd-even merge sorting network.
//!
//! The comparison/swap schedule of a sorting network depends only on the input
//! *length*, never on the data, which is what makes it oblivious: executed inside a
//! 2PC, the servers learn nothing beyond the (public) array size. The paper uses
//! Batcher networks for both the truncated sort-merge join (Example 5.1) and the cache
//! read of the Shrink protocols (Figure 3, `ObliSort(σ, key = isView)`).
//!
//! The network is generated for arbitrary lengths by conceptually padding to the next
//! power of two with `+∞` keys at the tail and dropping comparators that touch the
//! padding — a standard, correctness-preserving specialisation of Batcher's
//! construction.
//!
//! Three physical-layer notes:
//!
//! * The network is **walked as runs**, not comparator by comparator: every pruned
//!   `(p, k)` level is a handful of contiguous `(lo, hi, cnt)` runs — the two halves
//!   of each 2p-block when `k = p`, the 2k-chunks of `[b + k, b + 2p − k)` when
//!   `k < p`, clipped at `hi < n` — emitted in exactly the pair order of
//!   [`batcher_pairs`]. A kernel sweeps each run as two disjoint slices with a
//!   branch-free loop the compiler vectorizes; no division or pruning test is left
//!   per comparator.
//! * The sorts execute as **struct-of-arrays kernels**: each record's key is
//!   extracted once into contiguous `u64` lanes (primary key, tie-breaker, original
//!   position), the runs sweep those lanes with xor-mask conditional swaps, and the
//!   record shares are gathered through the index lane in a single final pass. Swap
//!   decisions depend only on the keys, which travel with their indices, so the
//!   final arrangement — and the metered cost, charged up front from the input
//!   length — is bit-identical to swapping whole records at every comparator.
//! * The `isView` sort of the Shrink cache read has a one-bit key and no
//!   tie-breaker, so [`oblivious_sort_by_is_view`] is **bit-sliced**: it runs over
//!   the column lanes of the cache, reads the two `isView` lanes once into a dummy
//!   bitset and sweeps each network level as 64-bit words of it, swapping only the
//!   records whose comparator fires, one word per lane. Its host
//!   cost grows with `levels · n/64 + swaps`; the charged cost is still every
//!   comparator of the network.
//! * For merging two *already sorted* runs (the delta sort-merge join's cache ‖
//!   delta union) a full Batcher re-sort is overkill: [`bitonic_merge_pairs`] is the
//!   `O(n log n)`-comparator bitonic merge network for that case, and
//!   [`bitonic_merge_pair_count`] prices it.

use incshrink_mpc::cost::CostMeter;
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::columns::{eq_word, lt_word, ColumnsMut};
use incshrink_secretshare::tuple::PlainRecord;
use serde::{Deserialize, Serialize};

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SortOrder {
    /// Smallest key first.
    Ascending,
    /// Largest key first.
    Descending,
}

/// A key extracted from a record for comparison purposes.
///
/// Keys are compared lexicographically: primary value first, then the tie-breaker.
/// The tie-breaker implements the paper's "T1 records are ordered before T2 records"
/// rule in the sort-merge join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SortKey {
    pub primary: u64,
    pub tie: u64,
}

/// Enumerate the compare-exchange pairs of Batcher's odd-even merge sort for `n`
/// elements (indices `i < j`), in execution order. Exposed so cost estimators can
/// price sorting networks they never physically execute.
///
/// Cost note: materialising the schedule is `O(n log² n)` host time and memory; the
/// physical sorts walk the same schedule as contiguous runs instead
/// (`for_each_batcher_run`), and when only the comparator *count* is needed (join
/// cost models, the adaptive planner), use [`batcher_pair_count`], which computes the
/// same number without allocating.
pub fn batcher_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for_each_batcher_run(n, |lo, hi, cnt| {
        pairs.extend((0..cnt).map(|i| (lo + i, hi + i)));
    });
    pairs
}

/// Walk the pruned Batcher network for `n` elements as contiguous runs: each call
/// `run(lo, hi, cnt)` stands for the comparators `(lo + i, hi + i)` for
/// `i ∈ 0..cnt`, and the runs arrive in exactly the execution order of
/// [`batcher_pairs`]. Within a run `hi − lo = k ≥ cnt`, so its low and high slices
/// are disjoint and a kernel can sweep them as two plain slices.
///
/// Each `(p, k)` level of the network, over the array conceptually padded to the
/// next power of two with `+∞` keys, is
///
/// * `k = p`: the two halves of every 2p-block compared element-wise —
///   `[b, b + p)` against `[b + p, b + 2p)`;
/// * `k < p`: the window `[b + k, b + 2p − k)` of every 2p-block, in 2k-chunks whose
///   first half is compared against their second half;
///
/// with every comparator whose high end falls in the padding (`hi ≥ n`) dropped.
/// No division or per-comparator test is left in the walk: the pruning collapses to
/// clipping each run at `n`.
pub(crate) fn for_each_batcher_run(n: usize, mut run: impl FnMut(usize, usize, usize)) {
    if n < 2 {
        return;
    }
    let padded = n.next_power_of_two();
    let mut p = 1usize;
    while p < padded {
        let mut b = 0;
        while b + p < n {
            run(b, b + p, p.min(n - b - p));
            b += 2 * p;
        }
        let mut k = p / 2;
        while k >= 1 {
            // Runs only move right, so the first one clipped to nothing ends the level.
            let mut b = 0;
            'blocks: loop {
                let mut lo = b + k;
                while lo < b + 2 * p - k {
                    let hi = lo + k;
                    if hi >= n {
                        break 'blocks;
                    }
                    run(lo, hi, k.min(n - hi));
                    lo += 2 * k;
                }
                b += 2 * p;
            }
            k /= 2;
        }
        p *= 2;
    }
}

/// The low and high slices of one [`for_each_batcher_run`] run over `lane`.
fn run_halves(lane: &mut [u64], lo: usize, hi: usize, cnt: usize) -> (&mut [u64], &mut [u64]) {
    let (head, tail) = lane.split_at_mut(hi);
    (&mut head[lo..lo + cnt], &mut tail[..cnt])
}

/// Exact number of compare-exchange gates in the pruned Batcher odd-even merge
/// network for `n` elements — always equal to `batcher_pairs(n).len()`, but computed
/// arithmetically in `O(log² n)` time with no allocation: one O(1) closed form per
/// `(p, k)` network level.
///
/// This is the primitive every join cost model in this crate is built on: the
/// comparator count is a *public* function of the (public) input length, so pricing a
/// network — or letting the adaptive planner compare two candidate networks — leaks
/// nothing beyond what the array sizes already reveal. Cost-model callers invoke it
/// several times per Transform flush with arguments as large as the padded emission
/// (`bound · n`), so it must never pay a near-linear walk.
#[must_use]
pub fn batcher_pair_count(n: usize) -> u64 {
    if n < 2 {
        return 0;
    }
    let padded = n.next_power_of_two();
    let mut count: u64 = 0;
    let mut p = 1usize;
    while p < padded {
        let mut k = p;
        while k >= 1 {
            count += pruned_level_pair_count(n, padded, p, k);
            k /= 2;
        }
        p *= 2;
    }
    count
}

/// Comparator count of one `(p, k)` level of the pruned Batcher network: the sum of
/// `count_mod_below(j, m, 2p, 2p − k)` over block origins `j ∈ {k mod p, +2k, …}`
/// with `j + k < padded` and `m = min(k, padded − j − k, n − j − k)` — exactly what
/// the materialising iterator visits — collapsed to O(1) instead of `O(padded / k)`
/// loop iterations.
fn pruned_level_pair_count(n: usize, padded: usize, p: usize, k: usize) -> u64 {
    if k == p {
        // First merge level: j ∈ {0, 2p, 4p, …} starts every block on a 2p
        // boundary, so all m counted values satisfy `v mod 2p < p` and a block
        // contributes m = min(p, n − j − p) outright (the padding bound
        // `padded − j − p` is ≥ p for every visited j and never clips).
        if n < 2 * p {
            return n.saturating_sub(p) as u64;
        }
        // Blocks with the full m = p run while j ≤ n − 2p; their loop bound
        // `j + p < padded` holds a fortiori because n ≤ padded.
        let full = (n - 2 * p) / (2 * p) + 1;
        let mut total = (full as u64) * (p as u64);
        let j = full * 2 * p;
        if j + p < padded && n > j + p {
            total += (n - j - p) as u64;
        }
        return total;
    }
    // Later levels (k < p): j ∈ {k, 3k, 5k, …}; the largest visited origin is
    // padded − 3k, so `padded − j − k ≥ 2k` and the padding bound never clips m.
    // A full block (m = k) spans [j, j + k) mod 2p with j an odd multiple of k;
    // the window is pruned to zero exactly when j ≡ 2p − k (mod 2p) — it then
    // coincides with the dropped zone [2p − k, 2p) — and contributes k otherwise.
    // Those zero residues recur once every r = p/k blocks, starting at block r − 1.
    let r = p / k;
    let full = match n.checked_sub(2 * k) {
        Some(by_n) => {
            let last = by_n.min(padded - 3 * k);
            if last >= k {
                (last - k) / (2 * k) + 1
            } else {
                0
            }
        }
        None => 0,
    };
    let zeroed = if full >= r { (full - r) / r + 1 } else { 0 };
    let mut total = ((full - zeroed) as u64) * (k as u64);
    // At most one partial block (0 < m < k) follows the full ones; everything
    // after it has m = 0.
    let j = k * (2 * full + 1);
    if j + k < padded {
        let m = k.min(n.saturating_sub(j + k));
        total += count_mod_below(j, m, 2 * p, 2 * p - k);
    }
    total
}

/// Number of `v ∈ [start, start + len)` with `(v mod modulus) < limit`.
fn count_mod_below(start: usize, len: usize, modulus: usize, limit: usize) -> u64 {
    if len == 0 || limit == 0 {
        return 0;
    }
    let limit = limit.min(modulus);
    let mut count = (len / modulus * limit) as u64;
    let rem = len % modulus;
    let s = start % modulus;
    let e = s + rem;
    if e <= modulus {
        count += limit.min(e).saturating_sub(s.min(limit)) as u64;
    } else {
        count += limit.saturating_sub(s.min(limit)) as u64;
        count += limit.min(e - modulus) as u64;
    }
    count
}

/// Analytic comparator bound `p·k·(k+1)/4` for the Batcher network padded to
/// `p = 2^k ≥ n`, saturating at `u64::MAX`. This is the paper-faithful upper bound
/// the non-materialized baseline in `incshrink-core` prices secure joins with (its
/// analysis uses the closed form, never the pruned schedule); it dominates
/// [`batcher_pair_count`] for every `n`. Kept next to the exact count so the two
/// Batcher formulas live in one crate.
#[must_use]
pub fn batcher_padded_pair_count(n: u64) -> u64 {
    let p = u128::from(n).next_power_of_two();
    let k = u128::from(p.trailing_zeros());
    u64::try_from(p * k * (k + 1) / 4).unwrap_or(u64::MAX)
}

/// Compare-exchange pairs (indices `lo < hi`, in execution order) of the bitonic
/// merge network for `n` elements in **valley form**: the array must hold a
/// descending run followed by an ascending run (any split point, including empty
/// runs). The network is the standard bitonic cleaner — stages of stride
/// `k = p/2, p/4, …, 1` over the array padded to `p = 2^⌈log n⌉` with `+∞` keys at
/// the tail, comparing `(l, l+k)` whenever `l mod 2k < k`, with comparators that
/// touch the padding dropped (they are no-ops: `+∞` never moves down).
///
/// To merge two *ascending* runs `A ‖ B`, first reverse `A` in place — a fixed,
/// data-independent permutation of `⌊|A|/2⌋` swaps with no comparators — which puts
/// the array in valley form; the cleaner then yields the fully ascending merge.
/// This replaces a full `O(n log² n)`-comparator Batcher re-sort of a nearly-sorted
/// union with `O(n log n)` comparators.
pub fn bitonic_merge_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    if n < 2 {
        return pairs;
    }
    let padded = n.next_power_of_two();
    let mut k = padded / 2;
    while k >= 1 {
        for l in 0..n - k {
            if l % (2 * k) < k {
                pairs.push((l, l + k));
            }
        }
        k /= 2;
    }
    pairs
}

/// Exact comparator count of [`bitonic_merge_pairs`]`(n)`, computed in `O(log n)`
/// arithmetic without materialising the schedule. Depends only on the total length
/// `n`, never on where the valley sits — the count is a public function of the
/// public size, exactly like [`batcher_pair_count`].
#[must_use]
pub fn bitonic_merge_pair_count(n: usize) -> u64 {
    if n < 2 {
        return 0;
    }
    let padded = n.next_power_of_two();
    let mut count = 0u64;
    let mut k = padded / 2;
    while k >= 1 {
        count += count_mod_below(0, n - k, 2 * k, k);
        k /= 2;
    }
    count
}

/// Charge one Batcher network pass over `n` records of `width` shared words —
/// `batcher_pair_count(n)` secure comparisons and record-wide swaps in one round —
/// without executing it. The single place the network's price is defined: the
/// physical sorts below, the shuffle operator's permutation, and callers that must
/// permute side-band metadata alongside the shares (the cluster's destination-side
/// compaction) all charge through here, so the pricing cannot drift between them.
pub fn charge_sort_network(n: usize, width: u64, meter: &mut CostMeter) {
    if n < 2 {
        return;
    }
    let pairs = batcher_pair_count(n);
    meter.compares(pairs);
    meter.swaps(pairs, width);
    meter.round();
}

/// Oblivious sort of `array` by the key produced from each record by `key_fn`.
///
/// `key_fn` receives the record index and the recovered record fields (reconstruction
/// happens *inside* the simulated MPC, mirroring how a garbled-circuit comparator sees
/// the joint value without either party learning it). Costs one secure comparison and
/// one record-wide oblivious swap per network comparator.
pub(crate) fn oblivious_sort_by_key<F>(
    array: &mut SharedArrayPair,
    order: SortOrder,
    meter: &mut CostMeter,
    key_fn: F,
) where
    F: Fn(&PlainRecord) -> SortKey,
{
    let n = array.len();
    if n < 2 {
        return;
    }
    let width = array.arity().unwrap_or(1) as u64 + 1;
    charge_sort_network(n, width, meter);

    // SoA kernel: reconstruct each record once into a reused scratch row to extract
    // its key (n reconstructions instead of one per comparator), run the network
    // branch-free over three contiguous u64 lanes, then gather the record shares
    // through the index lane in one pass. The comparisons see exactly the keys the
    // record-at-a-time loop saw, and the keys travel with their indices, so the
    // final arrangement is identical.
    let mut primary = Vec::with_capacity(n);
    let mut tie = Vec::with_capacity(n);
    let mut scratch = PlainRecord {
        fields: Vec::new(),
        is_view: false,
    };
    for entry in array.entries() {
        entry.recover_into(&mut scratch);
        let key = key_fn(&scratch);
        primary.push(key.primary);
        tie.push(key.tie);
    }
    let mut idx: Vec<u64> = (0..n as u64).collect();
    match order {
        SortOrder::Ascending => sort_lanes::<true>(&mut primary, &mut tie, &mut idx),
        SortOrder::Descending => sort_lanes::<false>(&mut primary, &mut tie, &mut idx),
    }

    let perm: Vec<usize> = idx.into_iter().map(|i| i as usize).collect();
    array.permute_gather(&perm);
}

/// Run the Batcher network over the `(primary, tie)` key lanes, carrying `idx`
/// along: one branch-free slice sweep per run, the direction fixed at compile time.
fn sort_lanes<const ASCENDING: bool>(primary: &mut [u64], tie: &mut [u64], idx: &mut [u64]) {
    for_each_batcher_run(primary.len(), |lo, hi, cnt| {
        let (pa, pb) = run_halves(primary, lo, hi, cnt);
        let (ta, tb) = run_halves(tie, lo, hi, cnt);
        let (ia, ib) = run_halves(idx, lo, hi, cnt);
        for i in 0..cnt {
            let (x, y, tx, ty) = if ASCENDING {
                (pa[i], pb[i], ta[i], tb[i])
            } else {
                (pb[i], pa[i], tb[i], ta[i])
            };
            // Strictly out of order for the requested direction, lexicographically
            // on (primary, tie) — computed with borrow arithmetic, not jumps.
            let out_of_order = lt_word(y, x) | (eq_word(x, y) & lt_word(ty, tx));
            let mask = out_of_order.wrapping_neg();
            let dp = (pa[i] ^ pb[i]) & mask;
            pa[i] ^= dp;
            pb[i] ^= dp;
            let dt = (ta[i] ^ tb[i]) & mask;
            ta[i] ^= dt;
            tb[i] ^= dt;
            let di = (ia[i] ^ ib[i]) & mask;
            ia[i] ^= di;
            ib[i] ^= di;
        }
    });
}

/// Oblivious sort by a single attribute column (ascending or descending). Dummy
/// records (`isView = 0`) are ordered after real records for ascending sorts and are
/// given the maximum key, so they collect at the tail.
pub fn oblivious_sort_by_field(
    array: &mut SharedArrayPair,
    field: usize,
    order: SortOrder,
    meter: &mut CostMeter,
) {
    oblivious_sort_by_key(array, order, meter, |rec| {
        let dummy_rank = u64::from(!rec.is_view);
        let value = rec.fields.get(field).copied().unwrap_or(u32::MAX);
        SortKey {
            primary: match order {
                // Dummies always sink to the tail regardless of direction.
                SortOrder::Ascending => (dummy_rank << 32) | u64::from(value),
                SortOrder::Descending => {
                    if rec.is_view {
                        u64::from(value)
                    } else {
                        0
                    }
                }
            },
            tie: 0,
        }
    });
}

/// Oblivious sort by the `isView` bit so that all real tuples precede all dummies —
/// the first step of the Shrink cache read (`ObliSort(σ, key = isView)`).
///
/// The key is a single bit with no tie-breaker, so a comparator `(i, i + k)` swaps
/// exactly when slot `i` holds a dummy and slot `i + k` a real entry. The kernel
/// reads the window's two `isView` lanes once into a dummy bitset `D`, then sweeps the
/// network level by level (`for_each_batcher_level`) as 64-bit words: the swap
/// mask of word `w` is `L_w & D_w & !(D >> k)_w`, with `L_w` the level's low-end
/// mask. Only the set bits of a swap mask touch records (one word per lane each), and
/// `D` is updated in place — every slot meets at most one comparator per
/// level, so the level's comparators commute. The arrangement equals swapping whole
/// records at every comparator of the network, and the charge is taken up front from
/// the length: the simulated MPC still pays for every comparator, while the host
/// pays `O(levels · n/64 + swaps)`.
pub fn oblivious_sort_by_is_view(rows: &mut ColumnsMut<'_>, meter: &mut CostMeter) {
    let n = rows.len();
    if n < 2 {
        return;
    }
    charge_sort_network(n, rows.arity() as u64 + 1, meter);

    // Bit i of `dummy` is set iff slot i holds a dummy; the spare zero word keeps the
    // shifted reads and writes of the last word in bounds.
    let mut dummy = vec![0u64; n.div_ceil(64) + 1];
    let (view0, view1) = rows.is_view_lanes();
    for ((word, s0), s1) in dummy.iter_mut().zip(view0.chunks(64)).zip(view1.chunks(64)) {
        *word = s0
            .iter()
            .zip(s1)
            .enumerate()
            .fold(0, |bits, (j, (a, b))| bits | u64::from(a ^ b == 0) << j);
    }
    for_each_batcher_level(n, |level| {
        let k = level.k();
        let (q, r) = (k / 64, k % 64);
        level.for_each_word(|w, low| {
            // Bit j: slot 64w + j + k holds a dummy. The upper word shifts in two
            // steps so that r = 0 stays in range and contributes nothing.
            let high_dummy = (dummy[w + q] >> r) | ((dummy[w + q + 1] << 1) << (63 - r));
            let swap = low & dummy[w] & !high_dummy;
            if swap == 0 {
                return;
            }
            dummy[w] &= !swap;
            dummy[w + q] |= swap << r;
            dummy[w + q + 1] |= (swap >> 1) >> (63 - r);
            let mut bits = swap;
            while bits != 0 {
                let i = 64 * w + bits.trailing_zeros() as usize;
                rows.swap(i, i + k);
                bits &= bits - 1;
            }
        });
    });
}

/// The low ends of one `(p, k)` level of the pruned Batcher network as 64-bit words
/// of slot bits: slot `i` is compared against `i + k` when
///
/// * `k = p`: `i mod 2p < p`;
/// * `k < p`: `i mod 2k ≥ k` and `i mod 2p < 2p − k`;
///
/// and `i + k < n` — the same comparators [`for_each_batcher_run`] emits for the
/// level. No slot is both a low and a high end, so each slot meets at most one
/// comparator per level.
pub(crate) struct LevelMask {
    p: usize,
    k: usize,
    /// Low ends lie below `n − k`.
    limit: usize,
    /// Bits `j < 64` that are low ends, ignoring the clip: every word's mask when
    /// `2p ≤ 64`, the periodic `2k` pattern when `k < 64 < 2p`.
    pattern: u64,
}

impl LevelMask {
    fn new(n: usize, p: usize, k: usize) -> Self {
        let pattern = (0..64)
            .filter(|&j| is_low_end(j, p, k))
            .fold(0u64, |mask, j| mask | 1 << j);
        Self {
            p,
            k,
            limit: n - k,
            pattern,
        }
    }

    /// The level's comparator distance: low end `i` meets high end `i + k`.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Call `f(w, mask)` with the low-end mask of slots `[64w, 64w + 64)`, in
    /// ascending `w`, for every word whose mask is not zero.
    pub(crate) fn for_each_word(&self, mut f: impl FnMut(usize, u64)) {
        let words = self.limit.div_ceil(64);
        let clip = u64::MAX >> (64 * words - self.limit);
        let (p, k, pattern) = (self.p, self.k, self.pattern);
        if 2 * p <= 64 {
            // The period 2p divides 64: every word has the same mask.
            for_each_nonzero(words, clip, |_| pattern, &mut f);
        } else if k >= 64 {
            // Both moduli are multiples of 64: a word is wholly in or out.
            let whole = |w: usize| 0u64.wrapping_sub(u64::from(is_low_end(64 * w, p, k)));
            for_each_nonzero(words, clip, whole, &mut f);
        } else {
            // The periodic 2k pattern, except that the top k slots of a 2p-block's
            // last word fall in [2p − k, 2p).
            let block_end = 2 * p / 64 - 1;
            let tail = pattern & (u64::MAX >> k);
            let periodic = |w: usize| {
                if w & block_end == block_end {
                    tail
                } else {
                    pattern
                }
            };
            for_each_nonzero(words, clip, periodic, &mut f);
        }
    }
}

/// Call `f(w, mask(w))` for every word `w < words` whose mask is not zero, the
/// last one clipped by `clip`. Generic over `mask` so that each level shape
/// compiles to its own loop with no per-word test of the shape or the clip.
fn for_each_nonzero(
    words: usize,
    clip: u64,
    mask: impl Fn(usize) -> u64,
    f: &mut impl FnMut(usize, u64),
) {
    let last = words - 1;
    for w in 0..last {
        let m = mask(w);
        if m != 0 {
            f(w, m);
        }
    }
    let m = mask(last) & clip;
    if m != 0 {
        f(last, m);
    }
}

/// Whether slot `i` is a low end of level `(p, k)`, ignoring the clip at `n`.
fn is_low_end(i: usize, p: usize, k: usize) -> bool {
    if k == p {
        i & p == 0
    } else {
        i & k != 0 && i & (2 * p - 1) < 2 * p - k
    }
}

/// Walk the pruned Batcher network for `n` elements level by level, in the
/// execution order of [`for_each_batcher_run`]: `p = 1, 2, 4, …` and, within each
/// `p`, `k = p, p/2, …, 1`.
pub(crate) fn for_each_batcher_level(n: usize, mut level: impl FnMut(LevelMask)) {
    if n < 2 {
        return;
    }
    let padded = n.next_power_of_two();
    let mut p = 1usize;
    while p < padded {
        let mut k = p;
        while k >= 1 {
            level(LevelMask::new(n, p, k));
            k /= 2;
        }
        p *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_secretshare::columns::SharedColumnsPair;
    use incshrink_secretshare::tuple::PlainRecord;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn share_values(values: &[u32], dummies: usize) -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64(17);
        let mut records: Vec<PlainRecord> =
            values.iter().map(|&v| PlainRecord::real(vec![v])).collect();
        records.extend((0..dummies).map(|_| PlainRecord::dummy(1)));
        SharedArrayPair::share_records(&records, &mut rng)
    }

    #[test]
    fn batcher_pairs_sort_arbitrary_lengths() {
        for n in 0..33usize {
            let pairs = batcher_pairs(n);
            // Apply the network to a worst-case (reverse sorted) plain array.
            let mut data: Vec<usize> = (0..n).rev().collect();
            for (lo, hi) in &pairs {
                assert!(lo < hi && *hi < n);
                if data[*lo] > data[*hi] {
                    data.swap(*lo, *hi);
                }
            }
            let expect: Vec<usize> = (0..n).collect();
            assert_eq!(data, expect, "network failed for n={n}");
        }
    }

    #[test]
    fn pair_count_matches_materialized_network() {
        for n in 0..=400usize {
            assert_eq!(
                batcher_pair_count(n),
                batcher_pairs(n).len() as u64,
                "n={n}"
            );
        }
        for n in [1000usize, 4096, 5000] {
            assert_eq!(
                batcher_pair_count(n),
                batcher_pairs(n).len() as u64,
                "n={n}"
            );
        }
    }

    /// The pre-closed-form count: per-block `count_mod_below` over every block
    /// origin the materialising iterator visits. Kept as the test oracle for the
    /// O(1)-per-level collapse in [`pruned_level_pair_count`].
    fn block_walk_pair_count(n: usize) -> u64 {
        if n < 2 {
            return 0;
        }
        let padded = n.next_power_of_two();
        let mut count: u64 = 0;
        let mut p = 1usize;
        while p < padded {
            let mut k = p;
            while k >= 1 {
                let mut j = k % p;
                while j + k < padded {
                    let m = k.min(padded - j - k).min(n.saturating_sub(j + k));
                    count += count_mod_below(j, m, 2 * p, 2 * p - k);
                    j += 2 * k;
                }
                k /= 2;
            }
            p *= 2;
        }
        count
    }

    #[test]
    fn closed_form_pair_count_matches_block_walk() {
        for n in 0..=5000usize {
            assert_eq!(batcher_pair_count(n), block_walk_pair_count(n), "n={n}");
        }
        // Straddle every power-of-two boundary up to 2^20.
        for shift in 11..=20u32 {
            let p = 1usize << shift;
            for n in [p - 3, p - 1, p, p + 1, p + 7, p + p / 2] {
                assert_eq!(batcher_pair_count(n), block_walk_pair_count(n), "n={n}");
            }
        }
    }

    /// The pre-run-walker streaming enumeration of the pruned Batcher network,
    /// kept verbatim as the oracle the run walker must reproduce pair for pair.
    fn reference_pairs(n: usize) -> ReferencePairs {
        if n < 2 {
            return ReferencePairs {
                n,
                padded: 1,
                p: 1,
                k: 0,
                j: 0,
                i: 0,
                i_end: 0,
            };
        }
        let padded = n.next_power_of_two();
        ReferencePairs {
            n,
            padded,
            p: 1,
            k: 1,
            j: 0,
            i: 0,
            i_end: 1.min(padded - 1),
        }
    }

    /// Replicates the nested `(p, k, j, i)` loop of the materialising generator as
    /// explicit state, skipping candidates pruned by the padding rule.
    struct ReferencePairs {
        n: usize,
        padded: usize,
        p: usize,
        k: usize,
        j: usize,
        i: usize,
        i_end: usize,
    }

    impl Iterator for ReferencePairs {
        type Item = (usize, usize);

        fn next(&mut self) -> Option<(usize, usize)> {
            loop {
                if self.p >= self.padded {
                    return None;
                }
                if self.i < self.i_end {
                    let lo = self.i + self.j;
                    let hi = lo + self.k;
                    self.i += 1;
                    // Keep the comparator when both ends fall in the same 2p-block and
                    // the high end is not conceptual +∞ padding.
                    if (lo / (self.p * 2)) == (hi / (self.p * 2)) && hi < self.n {
                        return Some((lo, hi));
                    }
                    continue;
                }
                // Advance the j offset; j < p and k <= p keep j + k < padded valid.
                self.j += 2 * self.k;
                if self.j + self.k < self.padded {
                    self.i = 0;
                    self.i_end = self.k.min(self.padded - self.j - self.k);
                    continue;
                }
                // Advance the k stride.
                self.k /= 2;
                if self.k >= 1 {
                    self.j = self.k % self.p;
                    self.i = 0;
                    self.i_end = self.k.min(self.padded - self.j - self.k);
                    continue;
                }
                // Advance the p phase.
                self.p *= 2;
                if self.p >= self.padded {
                    return None;
                }
                self.k = self.p;
                self.j = 0;
                self.i = 0;
                self.i_end = self.k.min(self.padded - self.k);
            }
        }
    }

    /// The pre-run-walker three-lane kernel, kept verbatim (one comparator at a
    /// time over [`reference_pairs`]) as the permutation oracle for the run-walking
    /// and bit-sliced kernels.
    fn reference_lane_sort<F>(
        array: &mut SharedArrayPair,
        order: SortOrder,
        meter: &mut CostMeter,
        key_fn: F,
    ) where
        F: Fn(&PlainRecord) -> SortKey,
    {
        let n = array.len();
        if n < 2 {
            return;
        }
        let width = array.arity().unwrap_or(1) as u64 + 1;
        charge_sort_network(n, width, meter);

        let mut primary = Vec::with_capacity(n);
        let mut tie = Vec::with_capacity(n);
        let mut scratch = PlainRecord {
            fields: Vec::new(),
            is_view: false,
        };
        for entry in array.entries() {
            entry.recover_into(&mut scratch);
            let key = key_fn(&scratch);
            primary.push(key.primary);
            tie.push(key.tie);
        }
        let mut idx: Vec<u64> = (0..n as u64).collect();
        let ascending = matches!(order, SortOrder::Ascending);

        for (lo, hi) in reference_pairs(n) {
            let (pa, pb) = (primary[lo], primary[hi]);
            let (ta, tb) = (tie[lo], tie[hi]);
            let (x, y, tx, ty) = if ascending {
                (pa, pb, ta, tb)
            } else {
                (pb, pa, tb, ta)
            };
            let out_of_order = lt_word(y, x) | (eq_word(x, y) & lt_word(ty, tx));
            let mask = out_of_order.wrapping_neg();
            let dp = (pa ^ pb) & mask;
            primary[lo] = pa ^ dp;
            primary[hi] = pb ^ dp;
            let dt = (ta ^ tb) & mask;
            tie[lo] = ta ^ dt;
            tie[hi] = tb ^ dt;
            let di = (idx[lo] ^ idx[hi]) & mask;
            idx[lo] ^= di;
            idx[hi] ^= di;
        }

        let perm: Vec<usize> = idx.into_iter().map(|i| i as usize).collect();
        array.permute_gather(&perm);
    }

    /// Assert the run walker emits exactly the reference pair sequence for `n`,
    /// streaming both sides so large `n` allocate nothing.
    fn assert_walker_matches_reference(n: usize) {
        let mut reference = reference_pairs(n);
        for_each_batcher_run(n, |lo, hi, cnt| {
            assert!(cnt >= 1 && cnt <= hi - lo, "n={n}: run ({lo}, {hi}, {cnt})");
            for i in 0..cnt {
                assert_eq!(reference.next(), Some((lo + i, hi + i)), "n={n}");
            }
        });
        assert_eq!(reference.next(), None, "n={n}: walker stopped early");
    }

    #[test]
    fn run_walker_matches_reference_pairs_for_every_small_n() {
        for n in 0..=4096usize {
            assert_walker_matches_reference(n);
        }
    }

    /// Run the columnar `isView` kernel over a record-major array: transpose, sort
    /// every row, transpose back.
    fn sort_by_is_view_through_columns(array: &mut SharedArrayPair, meter: &mut CostMeter) {
        let mut columns = SharedColumnsPair::from_pair(array);
        oblivious_sort_by_is_view(&mut columns.rows_mut(0), meter);
        if !array.is_empty() {
            *array = columns.to_pair();
        }
    }

    /// `len` records carrying their position as a field (so equal arrays mean equal
    /// permutations), real where `is_real(i)` holds.
    fn indexed_records(len: usize, is_real: impl Fn(usize) -> bool) -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64(29);
        let records: Vec<PlainRecord> = (0..len)
            .map(|i| PlainRecord {
                fields: vec![i as u32, 7],
                is_view: is_real(i),
            })
            .collect();
        SharedArrayPair::share_records(&records, &mut rng)
    }

    /// Sort `array` with the bit-sliced isView kernel and with the reference
    /// three-lane kernel on the same key; both the arrangement and the CostReport
    /// must agree.
    fn assert_is_view_sort_matches_reference(array: &SharedArrayPair) {
        let (mut packed, mut reference) = (array.clone(), array.clone());
        let (mut m_packed, mut m_reference) = (CostMeter::new(), CostMeter::new());
        sort_by_is_view_through_columns(&mut packed, &mut m_packed);
        reference_lane_sort(
            &mut reference,
            SortOrder::Ascending,
            &mut m_reference,
            |rec| SortKey {
                primary: u64::from(!rec.is_view),
                tie: 0,
            },
        );
        assert_eq!(packed, reference, "n={}", array.len());
        assert_eq!(m_packed.report(), m_reference.report(), "n={}", array.len());
    }

    #[test]
    fn packed_is_view_sort_equals_reference_on_edges() {
        let mut lengths = vec![0usize, 1, 2, 3];
        for shift in 2..=11u32 {
            let p = 1usize << shift;
            lengths.extend([p - 1, p, p + 1]);
        }
        for n in lengths {
            assert_is_view_sort_matches_reference(&indexed_records(n, |_| true));
            assert_is_view_sort_matches_reference(&indexed_records(n, |_| false));
            assert_is_view_sort_matches_reference(&indexed_records(n, |i| i % 3 == 1));
            assert_is_view_sort_matches_reference(&indexed_records(n, |i| i >= n / 2));
        }
    }

    /// The pre-bit-sliced packed-lane `isView` kernel, kept verbatim as the oracle
    /// the bit-sliced sweep must reproduce permutation for permutation.
    fn reference_packed_is_view_sort(array: &mut SharedArrayPair, meter: &mut CostMeter) {
        let n = array.len();
        if n < 2 {
            return;
        }
        let width = array.arity().unwrap_or(1) as u64 + 1;
        charge_sort_network(n, width, meter);

        let mut lane: Vec<u64> = array
            .entries()
            .iter()
            .enumerate()
            .map(|(i, entry)| (u64::from(entry.is_view.recover() == 0) << 63) | i as u64)
            .collect();
        for_each_batcher_run(n, |lo, hi, cnt| {
            let (low, high) = run_halves(&mut lane, lo, hi, cnt);
            for (x, y) in low.iter_mut().zip(high.iter_mut()) {
                let mask = ((*x & !*y) >> 63).wrapping_neg();
                let d = (*x ^ *y) & mask;
                *x ^= d;
                *y ^= d;
            }
        });

        // Clear the dummy bit to recover each slot's source index.
        let perm: Vec<usize> = lane.iter().map(|&w| (w & !(1 << 63)) as usize).collect();
        array.permute_gather(&perm);
    }

    /// Sort `array` with the bit-sliced kernel and with the packed-lane reference;
    /// the arrangement (records carry their position) and the CostReport must agree.
    fn assert_bit_sliced_matches_packed(array: &SharedArrayPair) {
        let (mut sliced, mut packed) = (array.clone(), array.clone());
        let (mut m_sliced, mut m_packed) = (CostMeter::new(), CostMeter::new());
        sort_by_is_view_through_columns(&mut sliced, &mut m_sliced);
        reference_packed_is_view_sort(&mut packed, &mut m_packed);
        assert_eq!(sliced, packed, "n={}", array.len());
        assert_eq!(m_sliced.report(), m_packed.report(), "n={}", array.len());
    }

    /// A seeded real/dummy pattern of `len` slots with each slot real with
    /// probability `real_per_mille / 1000`.
    fn random_pattern(len: usize, real_per_mille: u64, seed: u64) -> Vec<bool> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| rng.gen_range(0..1000u64) < real_per_mille)
            .collect()
    }

    #[test]
    fn bit_sliced_is_view_sort_equals_packed_reference_for_every_small_n() {
        for n in 0..=2048usize {
            let seed = n as u64;
            let one = StdRng::seed_from_u64(seed).gen_range(0..n.max(1));
            let sparse = random_pattern(n, 3, seed);
            let half = random_pattern(n, 500, seed);
            assert_bit_sliced_matches_packed(&indexed_records(n, |_| false));
            assert_bit_sliced_matches_packed(&indexed_records(n, |i| i == one));
            assert_bit_sliced_matches_packed(&indexed_records(n, |i| i != one));
            assert_bit_sliced_matches_packed(&indexed_records(n, |i| sparse[i]));
            assert_bit_sliced_matches_packed(&indexed_records(n, |i| half[i]));
            assert_bit_sliced_matches_packed(&indexed_records(n, |_| true));
        }
    }

    #[test]
    fn level_masks_enumerate_exactly_the_run_walker_pairs() {
        for n in 0..=4096usize {
            // Per level, the low ends in ascending order, then the next level —
            // the walker's order, since its runs within a level move right.
            let mut from_masks = Vec::new();
            for_each_batcher_level(n, |level| {
                let k = level.k();
                let words = n.div_ceil(64) + 1;
                let (mut lows, mut highs) = (vec![0u64; words], vec![0u64; words]);
                let mut previous = None;
                level.for_each_word(|w, mask| {
                    assert!(previous < Some(w), "n={n} k={k}: word {w} out of order");
                    previous = Some(w);
                    lows[w] = mask;
                    let mut bits = mask;
                    while bits != 0 {
                        let i = 64 * w + bits.trailing_zeros() as usize;
                        assert!(i + k < n, "n={n} k={k}: high end {} past n", i + k);
                        from_masks.push((i, i + k));
                        highs[(i + k) / 64] |= 1 << ((i + k) % 64);
                        bits &= bits - 1;
                    }
                });
                // No slot is both a low and a high end of one level.
                for w in 0..words {
                    assert_eq!(lows[w] & highs[w], 0, "n={n} k={k} w={w}");
                }
            });
            let mut from_runs = Vec::with_capacity(from_masks.len());
            for_each_batcher_run(n, |lo, hi, cnt| {
                from_runs.extend((0..cnt).map(|i| (lo + i, hi + i)));
            });
            assert_eq!(from_masks, from_runs, "n={n}");
        }
    }

    #[test]
    fn padded_count_dominates_exact_count_and_saturates() {
        for n in 0..=4096u64 {
            assert!(
                batcher_padded_pair_count(n) >= batcher_pair_count(n as usize),
                "n={n}"
            );
        }
        // The analytic formula saturates rather than overflowing for huge n.
        assert_eq!(batcher_padded_pair_count(u64::MAX), u64::MAX);
        assert_eq!(batcher_padded_pair_count(0), 0);
        assert_eq!(batcher_padded_pair_count(1), 0);
    }

    /// Reverse the first `a` elements (valley form), apply the bitonic cleaner.
    fn bitonic_merge_runs(mut data: Vec<u32>, a: usize) -> Vec<u32> {
        data[..a].reverse();
        for (lo, hi) in bitonic_merge_pairs(data.len()) {
            if data[lo] > data[hi] {
                data.swap(lo, hi);
            }
        }
        data
    }

    #[test]
    fn bitonic_merge_sorts_all_01_run_pairs() {
        // Exhaustive over 0-1 inputs: an ascending 0-1 run of length m is determined
        // by its number of zeros, so (a+1)(b+1) inputs cover every 0-1 run pair. By
        // the 0-1 principle (restricted to the monotone-closed class of two-run
        // inputs), sorting all of these proves the network merges arbitrary runs of
        // these lengths.
        for n in 0..=33usize {
            for a in 0..=n {
                let b = n - a;
                for za in 0..=a {
                    for zb in 0..=b {
                        let mut input = vec![0u32; za];
                        input.extend(std::iter::repeat(1).take(a - za));
                        input.extend(std::iter::repeat(0).take(zb));
                        input.extend(std::iter::repeat(1).take(b - zb));
                        let merged = bitonic_merge_runs(input.clone(), a);
                        let mut expect = input;
                        expect.sort_unstable();
                        assert_eq!(merged, expect, "n={n} a={a} za={za} zb={zb}");
                    }
                }
            }
        }
    }

    #[test]
    fn bitonic_count_matches_pairs_and_is_cheaper_than_batcher() {
        for n in 0..=400usize {
            assert_eq!(
                bitonic_merge_pair_count(n),
                bitonic_merge_pairs(n).len() as u64,
                "n={n}"
            );
        }
        // The merge must beat the full re-sort once the union is non-trivial.
        for n in [8usize, 64, 1000, 4096] {
            assert!(bitonic_merge_pair_count(n) < batcher_pair_count(n), "n={n}");
        }
    }

    /// The pre-SoA record-at-a-time sort loop, kept as a reference implementation for
    /// the extensional-equality proptests below.
    fn reference_aos_sort(array: &mut SharedArrayPair, order: SortOrder, meter: &mut CostMeter) {
        let n = array.len();
        if n < 2 {
            return;
        }
        let width = array.arity().unwrap_or(1) as u64 + 1;
        charge_sort_network(n, width, meter);
        let key = |rec: &PlainRecord| {
            let dummy_rank = u64::from(!rec.is_view);
            let value = rec.fields.first().copied().unwrap_or(u32::MAX);
            SortKey {
                primary: match order {
                    SortOrder::Ascending => (dummy_rank << 32) | u64::from(value),
                    SortOrder::Descending => {
                        if rec.is_view {
                            u64::from(value)
                        } else {
                            0
                        }
                    }
                },
                tie: 0,
            }
        };
        let entries = array.entries_mut();
        for (lo, hi) in reference_pairs(n) {
            let key_lo = key(&entries[lo].recover());
            let key_hi = key(&entries[hi].recover());
            let out_of_order = match order {
                SortOrder::Ascending => key_lo > key_hi,
                SortOrder::Descending => key_lo < key_hi,
            };
            if out_of_order {
                entries.swap(lo, hi);
            }
        }
    }

    #[test]
    fn soa_sort_equals_aos_sort_on_edges() {
        for (values, dummies) in [(vec![], 0usize), (vec![7], 0), (vec![], 1), (vec![3, 3], 2)] {
            for order in [SortOrder::Ascending, SortOrder::Descending] {
                let mut soa = share_values(&values, dummies);
                let mut aos = soa.clone();
                let (mut m_soa, mut m_aos) = (CostMeter::new(), CostMeter::new());
                oblivious_sort_by_field(&mut soa, 0, order, &mut m_soa);
                reference_aos_sort(&mut aos, order, &mut m_aos);
                assert_eq!(soa, aos);
                assert_eq!(m_soa.report(), m_aos.report());
            }
        }
    }

    #[test]
    fn sort_by_field_ascending_and_descending() {
        let mut meter = CostMeter::new();
        let mut arr = share_values(&[5, 1, 9, 3, 7], 0);
        oblivious_sort_by_field(&mut arr, 0, SortOrder::Ascending, &mut meter);
        let keys: Vec<u32> = arr.recover_all().iter().map(|r| r.fields[0]).collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);

        let mut arr = share_values(&[5, 1, 9, 3, 7], 0);
        oblivious_sort_by_field(&mut arr, 0, SortOrder::Descending, &mut meter);
        let keys: Vec<u32> = arr.recover_all().iter().map(|r| r.fields[0]).collect();
        assert_eq!(keys, vec![9, 7, 5, 3, 1]);
        assert!(meter.report().secure_compares > 0);
        assert!(meter.report().secure_swaps > 0);
    }

    #[test]
    fn dummies_sink_to_tail_in_both_directions() {
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let mut meter = CostMeter::new();
            let mut arr = share_values(&[4, 2, 8], 3);
            oblivious_sort_by_field(&mut arr, 0, order, &mut meter);
            let plain = arr.recover_all();
            assert!(plain[..3].iter().all(|r| r.is_view));
            assert!(plain[3..].iter().all(|r| !r.is_view));
        }
    }

    #[test]
    fn sort_by_is_view_moves_real_tuples_first() {
        let mut rng = StdRng::seed_from_u64(3);
        // Interleave dummies and real records.
        let mut records = Vec::new();
        for i in 0..10u32 {
            if i % 2 == 0 {
                records.push(PlainRecord::dummy(2));
            } else {
                records.push(PlainRecord::real(vec![i, i * 10]));
            }
        }
        let mut arr = SharedArrayPair::share_records(&records, &mut rng);
        let mut meter = CostMeter::new();
        sort_by_is_view_through_columns(&mut arr, &mut meter);
        let plain = arr.recover_all();
        assert!(plain[..5].iter().all(|r| r.is_view));
        assert!(plain[5..].iter().all(|r| !r.is_view));
    }

    #[test]
    fn cost_depends_only_on_length() {
        // Two arrays of equal length but very different contents must cost the same.
        let mut m1 = CostMeter::new();
        let mut a1 = share_values(&[1, 2, 3, 4, 5, 6, 7, 8], 0);
        oblivious_sort_by_field(&mut a1, 0, SortOrder::Ascending, &mut m1);

        let mut m2 = CostMeter::new();
        let mut a2 = share_values(&[8, 8, 8, 8, 1, 1, 1, 1], 0);
        oblivious_sort_by_field(&mut a2, 0, SortOrder::Ascending, &mut m2);

        assert_eq!(m1.report(), m2.report());
    }

    #[test]
    fn empty_and_singleton_are_noops() {
        let mut meter = CostMeter::new();
        let mut empty = share_values(&[], 0);
        oblivious_sort_by_field(&mut empty, 0, SortOrder::Ascending, &mut meter);
        assert!(meter.report().is_empty());

        let mut single = share_values(&[9], 0);
        oblivious_sort_by_field(&mut single, 0, SortOrder::Ascending, &mut meter);
        assert!(meter.report().is_empty());
        assert_eq!(single.recover_all()[0].fields[0], 9);
    }

    proptest! {
        #[test]
        fn prop_sort_matches_std_sort(values in proptest::collection::vec(any::<u32>(), 0..64)) {
            let mut meter = CostMeter::new();
            let mut arr = share_values(&values, 0);
            oblivious_sort_by_field(&mut arr, 0, SortOrder::Ascending, &mut meter);
            let got: Vec<u32> = arr.recover_all().iter().map(|r| r.fields[0]).collect();
            let mut expect = values.clone();
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn prop_soa_sort_extensionally_equals_aos_sort(
            values in proptest::collection::vec(any::<u32>(), 0..48),
            dummies in 0usize..6,
            descending: bool,
        ) {
            // Same share words out (not just same plaintext), same meter deltas.
            // Neither implementation draws randomness, so rng consumption is
            // trivially identical as well.
            let order = if descending { SortOrder::Descending } else { SortOrder::Ascending };
            let mut soa = share_values(&values, dummies);
            let mut aos = soa.clone();
            let (mut m_soa, mut m_aos) = (CostMeter::new(), CostMeter::new());
            oblivious_sort_by_field(&mut soa, 0, order, &mut m_soa);
            reference_aos_sort(&mut aos, order, &mut m_aos);
            prop_assert_eq!(soa, aos);
            prop_assert_eq!(m_soa.report(), m_aos.report());
        }

        #[test]
        fn prop_run_walker_matches_reference_pairs(n in 0usize..=65_536) {
            assert_walker_matches_reference(n);
        }

        #[test]
        fn prop_packed_is_view_sort_equals_reference(
            len in 0usize..600,
            real_share in 0u64..=100,
            seed: u64,
        ) {
            // A seeded real/dummy pattern at a random density, from all-dummy
            // (share 0) to all-real (share 100).
            let mut rng = StdRng::seed_from_u64(seed);
            let pattern: Vec<bool> = (0..len).map(|_| rng.gen_range(0..100u64) < real_share).collect();
            assert_is_view_sort_matches_reference(&indexed_records(len, |i| pattern[i]));
        }

        #[test]
        fn prop_bit_sliced_is_view_sort_equals_packed_reference(
            len in 0usize..=65_536,
            real_per_mille in 0u64..=1000,
            seed: u64,
        ) {
            let pattern = random_pattern(len, real_per_mille, seed);
            assert_bit_sliced_matches_packed(&indexed_records(len, |i| pattern[i]));
        }

        #[test]
        fn prop_run_kernel_equals_reference_with_tie_breaks(
            keys in proptest::collection::vec((0u32..8, 0u32..3), 0..200),
            descending: bool,
        ) {
            // Few distinct keys so the tie lane decides many comparators — the
            // path the sort-merge join's "T1 before T2" rule relies on.
            let order = if descending { SortOrder::Descending } else { SortOrder::Ascending };
            let array = indexed_records(keys.len(), |_| true);
            let key = |rec: &PlainRecord| {
                let (primary, tie) = keys[rec.fields[0] as usize];
                SortKey { primary: u64::from(primary), tie: u64::from(tie) }
            };
            let (mut runs, mut reference) = (array.clone(), array);
            let (mut m_runs, mut m_reference) = (CostMeter::new(), CostMeter::new());
            oblivious_sort_by_key(&mut runs, order, &mut m_runs, key);
            reference_lane_sort(&mut reference, order, &mut m_reference, key);
            prop_assert_eq!(runs, reference);
            prop_assert_eq!(m_runs.report(), m_reference.report());
        }

        #[test]
        fn prop_bitonic_merge_equals_batcher_sort(
            run_a in proptest::collection::vec(any::<u32>(), 0..40),
            run_b in proptest::collection::vec(any::<u32>(), 0..40),
        ) {
            let mut a = run_a;
            let mut b = run_b;
            a.sort_unstable();
            b.sort_unstable();
            let split = a.len();
            let mut input = a;
            input.extend_from_slice(&b);

            let merged = bitonic_merge_runs(input.clone(), split);

            let mut batcher = input;
            for (lo, hi) in batcher_pairs(batcher.len()) {
                if batcher[lo] > batcher[hi] {
                    batcher.swap(lo, hi);
                }
            }
            prop_assert_eq!(merged, batcher);
        }

        #[test]
        fn prop_network_size_is_data_independent(
            a in proptest::collection::vec(any::<u32>(), 2..40),
            seed: u64,
        ) {
            let mut shuffled = a.clone();
            // Deterministic permutation based on seed.
            let mut rng = StdRng::seed_from_u64(seed);
            use rand::seq::SliceRandom;
            shuffled.shuffle(&mut rng);

            let mut m1 = CostMeter::new();
            let mut arr1 = share_values(&a, 0);
            oblivious_sort_by_field(&mut arr1, 0, SortOrder::Ascending, &mut m1);

            let mut m2 = CostMeter::new();
            let mut arr2 = share_values(&shuffled, 0);
            oblivious_sort_by_field(&mut arr2, 0, SortOrder::Ascending, &mut m2);

            prop_assert_eq!(m1.report(), m2.report());
        }
    }
}
