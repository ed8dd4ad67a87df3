//! Struct-of-arrays (column-major) share layout.
//!
//! [`crate::SharedArrayPair`] stores an array of records as a `Vec` of per-record structs,
//! each holding its own small `Vec` of field shares — convenient for building a batch
//! record by record, terrible for scans: every secure compare/add/mux chases a pointer
//! and branches per field. [`SharedColumnsPair`] is the transposed layout: one
//! contiguous `u32` lane per field per party plus one `isView` lane per party, so a scan
//! over a column is a linear walk the autovectorizer can chew on. It is the storage
//! format of the Shrink cache and the materialized view, and the input of the oblivious
//! scans; record-major batches (Transform's ΔV, upload batches) are transposed once
//! when they enter it.
//!
//! Lanes hold the `u32` share words of `Z_2^32` as they are. Kernels that need
//! headroom (index bookkeeping, composite sort keys, branch-free masks) recover lanes
//! into `u64` words ([`SharedColumnsPair::recovered_field_lane`]); the widening is
//! lossless, and `SharedColumnsPair::from_pair(&a).to_pair() == a` for every
//! well-formed array.
//!
//! [`ColumnsMut`] is a mutable window over the rows from some position on — the live
//! rows of a cache consumed from the front — through which in-place operators permute
//! rows one word per lane.
//!
//! The lane kernels at the bottom ([`mux_lane`], [`cswap_lane`], [`lt_lane`], ...) are
//! branch-free: selection is arithmetic (`b ^ ((a ^ b) & mask)` with an all-ones/all-
//! zeros mask), never a data-dependent jump, mirroring how a real garbled-circuit
//! backend would evaluate the same gates in constant time.

use crate::tuple::{PlainRecord, SharedRecord, SharedRecordPair};
use crate::value::{PartyId, SharePair};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One party's column-major view of a shared array: one lane per field plus the
/// `isView` lane. Mirrors [`crate::SharedArray`] the way [`SharedColumnsPair`]
/// mirrors [`crate::SharedArrayPair`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedColumns {
    /// `lanes[f][i]` is this party's share word of field `f` of record `i`.
    pub lanes: Vec<Vec<u32>>,
    /// `is_view[i]` is this party's share word of record `i`'s `isView` flag.
    pub is_view: Vec<u32>,
    /// Holder of these shares.
    pub holder: PartyId,
}

impl SharedColumns {
    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.is_view.len()
    }

    /// True when no records are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.is_view.is_empty()
    }

    /// Number of attribute lanes.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.lanes.len()
    }
}

/// Both parties' shares of an array in column-major layout.
///
/// Invariant: all lanes (every field lane of both parties, and both `isView` lanes)
/// have the same length.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedColumnsPair {
    /// `S0`'s field lanes: `lanes0[f][i]` shares field `f` of record `i`.
    lanes0: Vec<Vec<u32>>,
    /// `S1`'s field lanes.
    lanes1: Vec<Vec<u32>>,
    /// `S0`'s `isView` lane.
    view0: Vec<u32>,
    /// `S1`'s `isView` lane.
    view1: Vec<u32>,
}

impl SharedColumnsPair {
    /// Empty array with `arity` field lanes.
    #[must_use]
    pub fn with_arity(arity: usize) -> Self {
        Self {
            lanes0: vec![Vec::new(); arity],
            lanes1: vec![Vec::new(); arity],
            view0: Vec::new(),
            view1: Vec::new(),
        }
    }

    /// Transpose a record-major array into lanes. Lossless: `to_pair` restores an
    /// array equal to the input (including the arity tag when at least one record
    /// exists — an empty untyped array round-trips to an empty array of arity 0
    /// lanes, see [`Self::to_pair`]).
    #[must_use]
    pub fn from_pair(pair: &crate::SharedArrayPair) -> Self {
        let n = pair.len();
        let arity = pair.arity().unwrap_or(0);
        let mut out = Self {
            lanes0: vec![Vec::with_capacity(n); arity],
            lanes1: vec![Vec::with_capacity(n); arity],
            view0: Vec::with_capacity(n),
            view1: Vec::with_capacity(n),
        };
        for entry in pair.entries() {
            for (f, share) in entry.fields.iter().enumerate() {
                out.lanes0[f].push(share.s0);
                out.lanes1[f].push(share.s1);
            }
            out.view0.push(entry.is_view.s0);
            out.view1.push(entry.is_view.s1);
        }
        out
    }

    /// Transpose back to the record-major layout.
    #[must_use]
    pub fn to_pair(&self) -> crate::SharedArrayPair {
        let mut out = crate::SharedArrayPair::with_arity(self.arity());
        for i in 0..self.len() {
            out.push(self.row(i)).expect("lanes have uniform arity");
        }
        out
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.view0.len()
    }

    /// True when no records are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.view0.is_empty()
    }

    /// Number of attribute lanes.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.lanes0.len()
    }

    /// `party`'s field lanes: `lanes(p)[f][i]` is its share of field `f` of record `i`.
    #[must_use]
    pub fn lanes(&self, party: PartyId) -> &[Vec<u32>] {
        match party {
            PartyId::S0 => &self.lanes0,
            PartyId::S1 => &self.lanes1,
        }
    }

    /// `party`'s `isView` lane.
    #[must_use]
    pub fn is_view_lane(&self, party: PartyId) -> &[u32] {
        match party {
            PartyId::S0 => &self.view0,
            PartyId::S1 => &self.view1,
        }
    }

    /// Both parties' shares of record `i`, in the record-major form.
    ///
    /// # Panics
    /// Panics when `i >= len`.
    #[must_use]
    pub fn row(&self, i: usize) -> SharedRecordPair {
        SharedRecordPair {
            fields: self
                .lanes0
                .iter()
                .zip(&self.lanes1)
                .map(|(l0, l1)| SharePair {
                    s0: l0[i],
                    s1: l1[i],
                })
                .collect(),
            is_view: SharePair {
                s0: self.view0[i],
                s1: self.view1[i],
            },
        }
    }

    /// Recover record `i` to plaintext (protocol-internal / test use only, exactly
    /// like [`SharedRecordPair::recover`]).
    ///
    /// # Panics
    /// Panics when `i >= len`.
    #[must_use]
    pub fn recover_row(&self, i: usize) -> PlainRecord {
        PlainRecord {
            fields: self
                .lanes0
                .iter()
                .zip(&self.lanes1)
                .map(|(l0, l1)| l0[i] ^ l1[i])
                .collect(),
            is_view: self.view0[i] ^ self.view1[i] != 0,
        }
    }

    /// Recover every record to plaintext, in row order (test / in-protocol use only).
    #[must_use]
    pub fn recover_all(&self) -> Vec<PlainRecord> {
        (0..self.len()).map(|i| self.recover_row(i)).collect()
    }

    /// Count records whose recovered `isView` bit is set. Only protocol-internal code
    /// (and tests) may call this: it reconstructs the flag.
    #[must_use]
    pub fn true_cardinality(&self) -> usize {
        self.view0
            .iter()
            .zip(&self.view1)
            .filter(|&(a, b)| a ^ b != 0)
            .count()
    }

    /// Recover field `f` of every record into one plaintext lane of `u64` words
    /// (`s0 ^ s1` per position; values fit in 32 bits). Protocol-internal / test use
    /// only, exactly like [`SharedRecordPair::recover`].
    ///
    /// # Panics
    /// Panics when `f >= arity`.
    #[must_use]
    pub fn recovered_field_lane(&self, f: usize) -> Vec<u64> {
        let mut out = Vec::new();
        self.recover_field_lane_into(f, &mut out);
        out
    }

    /// Recover the `isView` lane to plaintext 0/1 words.
    #[must_use]
    pub fn recovered_is_view_lane(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.recover_is_view_lane_into(&mut out);
        out
    }

    /// Buffer-reusing variant of [`Self::recovered_field_lane`]: recover field `f`
    /// into `out`, clearing it first. Hot loops that recover lanes every iteration
    /// use this to avoid re-allocating lane-sized buffers (large lanes otherwise hit
    /// the allocator's mmap path and pay page faults per call).
    ///
    /// # Panics
    /// Panics when `f >= arity`.
    pub fn recover_field_lane_into(&self, f: usize, out: &mut Vec<u64>) {
        recover_lane_into(&self.lanes0[f], &self.lanes1[f], out);
    }

    /// Buffer-reusing variant of [`Self::recovered_is_view_lane`].
    pub fn recover_is_view_lane_into(&self, out: &mut Vec<u64>) {
        recover_lane_into(&self.view0, &self.view1, out);
    }

    /// Append `other`'s records after this array's records (the `σ ← σ || ΔV` step of
    /// Algorithm 1, and every view synchronization). A record-major batch is
    /// transposed once on the way in. An array with neither records nor lanes adopts
    /// `other`'s arity; an empty batch without lanes appends nothing.
    ///
    /// # Errors
    /// Returns [`crate::ShareError::ShapeMismatch`] when the arities differ.
    pub fn extend(&mut self, other: impl Into<SharedColumnsPair>) -> crate::Result<()> {
        let other = other.into();
        if other.is_empty() && other.arity() == 0 {
            return Ok(());
        }
        if self.is_empty() && (self.arity() == 0 || self.arity() == other.arity()) {
            *self = other;
            return Ok(());
        }
        if self.arity() != other.arity() {
            return Err(crate::ShareError::ShapeMismatch {
                detail: format!(
                    "array arity {}, batch arity {}",
                    self.arity(),
                    other.arity()
                ),
            });
        }
        for (lane, add) in self.all_lanes_mut().zip(other.all_lanes()) {
            lane.extend_from_slice(add);
        }
        Ok(())
    }

    /// Share one plaintext row into the lanes, drawing mask words in exactly the
    /// order [`SharedRecordPair::share_row`] draws them — one per field in field
    /// order, then one for `isView` — so building an array row by row here replays
    /// the rng stream of building it record-major.
    ///
    /// # Panics
    /// Panics when `fields.len()` differs from the arity.
    pub fn push_share_row<R: Rng + ?Sized>(&mut self, fields: &[u32], is_view: bool, rng: &mut R) {
        assert_eq!(fields.len(), self.arity(), "row arity mismatch");
        for ((l0, l1), &word) in self.lanes0.iter_mut().zip(&mut self.lanes1).zip(fields) {
            let share = SharePair::share(word, rng);
            l0.push(share.s0);
            l1.push(share.s1);
        }
        let flag = SharePair::share(u32::from(is_view), rng);
        self.view0.push(flag.s0);
        self.view1.push(flag.s1);
    }

    /// Remove the first `n` records (all of them when `n >= len`), moving the rest
    /// to the front of each lane.
    pub fn drain_front(&mut self, n: usize) {
        let n = n.min(self.len());
        for lane in self.all_lanes_mut() {
            lane.drain(..n);
        }
    }

    /// Keep the records whose `keep[i]` is set, preserving order.
    ///
    /// # Panics
    /// Panics when `keep.len()` differs from the number of records.
    pub fn retain_rows(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.len(), "retain mask length mismatch");
        for lane in self.all_lanes_mut() {
            let mut i = 0;
            lane.retain(|_| {
                i += 1;
                keep[i - 1]
            });
        }
    }

    /// Drop every record, keeping the lanes (and their arity).
    pub fn clear(&mut self) {
        for lane in self.all_lanes_mut() {
            lane.clear();
        }
    }

    /// A mutable window over the records `[from, len)`.
    ///
    /// # Panics
    /// Panics when `from > len`.
    pub fn rows_mut(&mut self, from: usize) -> ColumnsMut<'_> {
        ColumnsMut {
            fields: self
                .lanes0
                .iter_mut()
                .chain(&mut self.lanes1)
                .map(|lane| &mut lane[from..])
                .collect(),
            view0: &mut self.view0[from..],
            view1: &mut self.view1[from..],
        }
    }

    /// Every lane of both parties: the field lanes, then the two `isView` lanes.
    fn all_lanes(&self) -> impl Iterator<Item = &Vec<u32>> {
        self.lanes0
            .iter()
            .chain(&self.lanes1)
            .chain([&self.view0, &self.view1])
    }

    fn all_lanes_mut(&mut self) -> impl Iterator<Item = &mut Vec<u32>> {
        self.lanes0
            .iter_mut()
            .chain(&mut self.lanes1)
            .chain([&mut self.view0, &mut self.view1])
    }

    /// The column view held by one party.
    #[must_use]
    pub fn for_party(&self, party: PartyId) -> SharedColumns {
        SharedColumns {
            lanes: self.lanes(party).to_vec(),
            is_view: self.is_view_lane(party).to_vec(),
            holder: party,
        }
    }

    /// Rebuild the pair from both parties' column views.
    ///
    /// # Errors
    /// Returns [`crate::ShareError::ShapeMismatch`] when shapes disagree or both
    /// views belong to the same party.
    pub fn from_columns(a: &SharedColumns, b: &SharedColumns) -> crate::Result<Self> {
        if a.holder == b.holder {
            return Err(crate::ShareError::ShapeMismatch {
                detail: format!("both column views held by {}", a.holder),
            });
        }
        if a.arity() != b.arity() || a.len() != b.len() {
            return Err(crate::ShareError::ShapeMismatch {
                detail: format!(
                    "column shapes {}x{} vs {}x{}",
                    a.arity(),
                    a.len(),
                    b.arity(),
                    b.len()
                ),
            });
        }
        let (lo, hi) = if a.holder == PartyId::S0 {
            (a, b)
        } else {
            (b, a)
        };
        Ok(Self {
            lanes0: lo.lanes.clone(),
            lanes1: hi.lanes.clone(),
            view0: lo.is_view.clone(),
            view1: hi.is_view.clone(),
        })
    }
}

impl From<&crate::SharedArrayPair> for SharedColumnsPair {
    fn from(pair: &crate::SharedArrayPair) -> Self {
        Self::from_pair(pair)
    }
}

impl From<crate::SharedArrayPair> for SharedColumnsPair {
    fn from(pair: crate::SharedArrayPair) -> Self {
        Self::from_pair(&pair)
    }
}

/// `out[i] = a[i] ^ b[i]`, widened to `u64`.
fn recover_lane_into(a: &[u32], b: &[u32], out: &mut Vec<u64>) {
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| u64::from(x ^ y)));
}

/// A mutable window over the records `[from, len)` of a [`SharedColumnsPair`]
/// ([`SharedColumnsPair::rows_mut`]): every lane of both parties sliced at the same
/// position. In-place operators — the Shrink cache read's `isView` sort — permute
/// records through it, one word per lane, without touching the records before
/// the window.
#[derive(Debug)]
pub struct ColumnsMut<'a> {
    /// Both parties' field lanes (`S0`'s, then `S1`'s).
    fields: Vec<&'a mut [u32]>,
    view0: &'a mut [u32],
    view1: &'a mut [u32],
}

impl ColumnsMut<'_> {
    /// Number of records in the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.view0.len()
    }

    /// True when the window holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.view0.is_empty()
    }

    /// Number of attribute lanes per party.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.fields.len() / 2
    }

    /// Both parties' `isView` lanes over the window.
    #[must_use]
    pub fn is_view_lanes(&self) -> (&[u32], &[u32]) {
        (self.view0, self.view1)
    }

    /// Swap records `i` and `j` of the window: one word per lane.
    ///
    /// # Panics
    /// Panics when either index is out of range.
    #[inline]
    pub fn swap(&mut self, i: usize, j: usize) {
        for lane in &mut self.fields {
            lane.swap(i, j);
        }
        self.view0.swap(i, j);
        self.view1.swap(i, j);
    }

    /// A copy of the window's first `n` records (all of them when `n > len`).
    #[must_use]
    pub fn front(&self, n: usize) -> SharedColumnsPair {
        let n = n.min(self.len());
        let (lanes0, lanes1) = self.fields.split_at(self.arity());
        let copy = |lanes: &[&mut [u32]]| lanes.iter().map(|lane| lane[..n].to_vec()).collect();
        SharedColumnsPair {
            lanes0: copy(lanes0),
            lanes1: copy(lanes1),
            view0: self.view0[..n].to_vec(),
            view1: self.view1[..n].to_vec(),
        }
    }
}

/// Per-party record view reconstructed from a [`SharedColumns`] position (used by
/// code that needs to hand a single lane row back to record-major consumers).
#[must_use]
pub fn column_row(cols: &SharedColumns, i: usize) -> SharedRecord {
    SharedRecord {
        fields: cols.lanes.iter().map(|lane| lane[i]).collect(),
        is_view: cols.is_view[i],
        holder: cols.holder,
    }
}

// ---------------------------------------------------------------------------
// Branch-free lane kernels.
//
// Every kernel below is straight-line code over u64 words: no data-dependent
// branches, no data-dependent memory addressing. Comparison results are produced
// as 0/1 words via carry/borrow arithmetic and turned into all-ones / all-zeros
// masks with wrapping negation; selection and swapping are XOR algebra over those
// masks. This is the host-side analogue of constant-time gate evaluation, and it
// is what lets the autovectorizer emit SIMD lanes for the hot loops.
// ---------------------------------------------------------------------------

/// Branch-free unsigned `a < b` for full-width `u64` words, returned as 0 or 1.
/// Computes the borrow bit of `a - b`: `((!a & b) | ((!a | b) & (a - b))) >> 63`.
#[inline]
#[must_use]
pub fn lt_word(a: u64, b: u64) -> u64 {
    ((!a & b) | ((!a | b) & a.wrapping_sub(b))) >> 63
}

/// Branch-free `a == b`, returned as 0 or 1: `x | -x` has its top bit set exactly
/// when `x = a ^ b` is non-zero.
#[inline]
#[must_use]
pub fn eq_word(a: u64, b: u64) -> u64 {
    let x = a ^ b;
    ((x | x.wrapping_neg()) >> 63) ^ 1
}

/// Branch-free select: returns `a` when `sel == 1`, `b` when `sel == 0`.
/// `sel` must be 0 or 1; wrapping negation turns it into an all-ones/all-zeros
/// mask and the result is `b ^ ((a ^ b) & mask)` — the arithmetic mux.
#[inline]
#[must_use]
pub fn mux_word(sel: u64, a: u64, b: u64) -> u64 {
    debug_assert!(sel <= 1, "mux selector must be a 0/1 word");
    b ^ ((a ^ b) & sel.wrapping_neg())
}

/// Branch-free conditional swap of `x` and `y` when `sel == 1` (`sel` must be 0/1):
/// the xor-mask trick `d = (x ^ y) & mask; x ^= d; y ^= d`.
#[inline]
pub fn cswap_word(sel: u64, x: &mut u64, y: &mut u64) {
    debug_assert!(sel <= 1, "cswap selector must be a 0/1 word");
    let d = (*x ^ *y) & sel.wrapping_neg();
    *x ^= d;
    *y ^= d;
}

/// Lane-wise less-than: `out[i] = (a[i] < b[i]) as u64`.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn lt_lane(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    assert_eq!(a.len(), b.len(), "lane length mismatch");
    out.clear();
    out.extend(a.iter().zip(b.iter()).map(|(&x, &y)| lt_word(x, y)));
}

/// Lane-wise equality: `out[i] = (a[i] == b[i]) as u64`.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn eq_lane(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    assert_eq!(a.len(), b.len(), "lane length mismatch");
    out.clear();
    out.extend(a.iter().zip(b.iter()).map(|(&x, &y)| eq_word(x, y)));
}

/// Lane-wise wrapping add: `out[i] = a[i] + b[i] (mod 2^64)`.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn add_lane(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    assert_eq!(a.len(), b.len(), "lane length mismatch");
    out.clear();
    out.extend(a.iter().zip(b.iter()).map(|(&x, &y)| x.wrapping_add(y)));
}

/// Lane-wise mux: `out[i] = if sel[i] == 1 { a[i] } else { b[i] }` without branching.
/// Selector words must be 0 or 1.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn mux_lane(sel: &[u64], a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    assert_eq!(sel.len(), a.len(), "lane length mismatch");
    assert_eq!(a.len(), b.len(), "lane length mismatch");
    out.clear();
    out.extend(
        sel.iter()
            .zip(a.iter().zip(b.iter()))
            .map(|(&s, (&x, &y))| mux_word(s, x, y)),
    );
}

/// Lane-wise conditional swap: where `sel[i] == 1`, swap `a[i]` and `b[i]` in place.
/// Selector words must be 0 or 1.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn cswap_lane(sel: &[u64], a: &mut [u64], b: &mut [u64]) {
    assert_eq!(sel.len(), a.len(), "lane length mismatch");
    assert_eq!(a.len(), b.len(), "lane length mismatch");
    for i in 0..sel.len() {
        cswap_word(sel[i], &mut a[i], &mut b[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::PlainRecord;
    use crate::SharedArrayPair;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_pair(n_real: usize, n_dummy: usize, arity: usize, seed: u64) -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut records: Vec<PlainRecord> = (0..n_real)
            .map(|i| PlainRecord::real((0..arity).map(|f| (i * 31 + f) as u32).collect()))
            .collect();
        records.extend((0..n_dummy).map(|_| PlainRecord::dummy(arity)));
        SharedArrayPair::share_records(&records, &mut rng)
    }

    #[test]
    fn roundtrip_is_lossless() {
        for (r, d, a) in [(0, 0, 3), (4, 2, 3), (1, 0, 1), (0, 3, 5)] {
            let pair = sample_pair(r, d, a, 7);
            let cols = SharedColumnsPair::from_pair(&pair);
            assert_eq!(cols.len(), pair.len());
            assert_eq!(cols.arity(), pair.arity().unwrap_or(0));
            assert_eq!(cols.to_pair().recover_all(), pair.recover_all());
            // Share words, not just plaintext, survive the transpose.
            assert_eq!(
                cols.to_pair().for_party(PartyId::S0),
                pair.for_party(PartyId::S0)
            );
        }
    }

    #[test]
    fn recovered_lanes_match_record_major_recover() {
        let pair = sample_pair(5, 3, 4, 11);
        let cols = SharedColumnsPair::from_pair(&pair);
        let plain = pair.recover_all();
        for f in 0..4 {
            let lane = cols.recovered_field_lane(f);
            let expect: Vec<u64> = plain.iter().map(|r| u64::from(r.fields[f])).collect();
            assert_eq!(lane, expect);
        }
        let views = cols.recovered_is_view_lane();
        let expect: Vec<u64> = plain.iter().map(|r| u64::from(r.is_view)).collect();
        assert_eq!(views, expect);

        // The buffer-reusing variants agree and clear any stale contents.
        let mut buf = vec![u64::MAX; 100];
        for f in 0..4 {
            cols.recover_field_lane_into(f, &mut buf);
            assert_eq!(buf, cols.recovered_field_lane(f));
        }
        cols.recover_is_view_lane_into(&mut buf);
        assert_eq!(buf, views);
    }

    #[test]
    fn per_party_columns_reassemble() {
        let pair = sample_pair(3, 1, 2, 13);
        let cols = SharedColumnsPair::from_pair(&pair);
        let a = cols.for_party(PartyId::S1);
        let b = cols.for_party(PartyId::S0);
        assert_eq!(a.len(), 4);
        assert_eq!(a.arity(), 2);
        assert!(!a.is_empty());
        let rebuilt = SharedColumnsPair::from_columns(&a, &b).unwrap();
        assert_eq!(rebuilt, cols);
        // Row extraction matches the record-major per-party view.
        let rec_view = pair.for_party(PartyId::S1);
        for i in 0..cols.len() {
            assert_eq!(column_row(&a, i), rec_view.records[i]);
        }
    }

    #[test]
    fn from_columns_rejects_bad_shapes() {
        let cols = SharedColumnsPair::from_pair(&sample_pair(2, 0, 2, 17));
        let a = cols.for_party(PartyId::S0);
        assert!(SharedColumnsPair::from_columns(&a, &a).is_err());
        let other = SharedColumnsPair::from_pair(&sample_pair(3, 0, 2, 17));
        let b = other.for_party(PartyId::S1);
        assert!(SharedColumnsPair::from_columns(&a, &b).is_err());
    }

    #[test]
    fn word_kernels_agree_with_operators() {
        let samples = [
            0u64,
            1,
            2,
            u64::MAX,
            u64::MAX - 1,
            1 << 63,
            (1 << 63) - 1,
            0xDEAD_BEEF_CAFE_F00D,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(lt_word(a, b), u64::from(a < b), "lt {a} {b}");
                assert_eq!(eq_word(a, b), u64::from(a == b), "eq {a} {b}");
                assert_eq!(mux_word(1, a, b), a);
                assert_eq!(mux_word(0, a, b), b);
                let (mut x, mut y) = (a, b);
                cswap_word(1, &mut x, &mut y);
                assert_eq!((x, y), (b, a));
                cswap_word(0, &mut x, &mut y);
                assert_eq!((x, y), (b, a));
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane length mismatch")]
    fn lane_kernels_reject_length_mismatch() {
        let mut out = Vec::new();
        lt_lane(&[1, 2], &[3], &mut out);
    }

    #[test]
    fn extend_adopts_arity_and_appends_rows() {
        let mut cols = SharedColumnsPair::default();
        cols.extend(SharedArrayPair::new()).unwrap();
        assert_eq!(
            (cols.len(), cols.arity()),
            (0, 0),
            "empty untyped batch is a no-op"
        );
        let a = sample_pair(2, 1, 3, 1);
        let b = sample_pair(1, 2, 3, 2);
        cols.extend(&a).unwrap();
        cols.extend(SharedColumnsPair::with_arity(3)).unwrap();
        cols.extend(SharedColumnsPair::from_pair(&b)).unwrap();
        let mut expect = a.clone();
        expect.extend(b).unwrap();
        assert_eq!(cols, SharedColumnsPair::from_pair(&expect));
        assert_eq!(cols.true_cardinality(), 3);
        assert!(cols.extend(sample_pair(1, 0, 2, 3)).is_err());
    }

    #[test]
    fn row_edits_match_record_major_edits() {
        let pair = sample_pair(4, 3, 2, 5);
        let mut cols = SharedColumnsPair::from_pair(&pair);
        for i in 0..pair.len() {
            assert_eq!(cols.row(i), pair.entries()[i]);
        }
        assert_eq!(cols.recover_all(), pair.recover_all());

        let keep: Vec<bool> = (0..pair.len()).map(|i| i % 3 != 1).collect();
        let mut kept = pair.clone();
        kept.retain_with(|i, _| keep[i]);
        let mut retained = cols.clone();
        retained.retain_rows(&keep);
        assert_eq!(retained, SharedColumnsPair::from_pair(&kept));

        cols.drain_front(3);
        assert_eq!(cols.len(), pair.len() - 3);
        assert_eq!(cols.row(0), pair.entries()[3]);
        cols.clear();
        assert!(cols.is_empty());
        assert_eq!(cols.arity(), 2, "clear keeps the lanes");
    }

    #[test]
    fn window_swaps_and_copies_rows() {
        let pair = sample_pair(3, 3, 2, 9);
        let mut cols = SharedColumnsPair::from_pair(&pair);
        let mut window = cols.rows_mut(2);
        assert_eq!((window.len(), window.arity()), (4, 2));
        window.swap(0, 3);
        let (v0, v1) = window.is_view_lanes();
        assert_eq!(
            v0[0] ^ v1[0],
            u32::from(pair.entries()[5].is_view.recover() != 0)
        );
        let front = window.front(2);
        assert_eq!(front.row(0), pair.entries()[5]);
        assert_eq!(front.row(1), pair.entries()[3]);
        assert_eq!(window.front(99).len(), 4);
        assert_eq!(
            cols.row(0),
            pair.entries()[0],
            "rows before the window stay put"
        );
        assert_eq!(cols.row(5), pair.entries()[2]);
    }

    #[test]
    fn push_share_row_replays_record_major_sharing() {
        let rows = [(vec![1u32, 2], true), (vec![3, 4], false)];
        let mut rng_cols = StdRng::seed_from_u64(4);
        let mut rng_pair = StdRng::seed_from_u64(4);
        let mut cols = SharedColumnsPair::with_arity(2);
        let mut pair = SharedArrayPair::new();
        for (fields, real) in &rows {
            cols.push_share_row(fields, *real, &mut rng_cols);
            pair.push(SharedRecordPair::share_row(fields, *real, &mut rng_pair))
                .unwrap();
        }
        assert_eq!(cols, SharedColumnsPair::from_pair(&pair));
        assert_eq!(rng_cols.gen::<u64>(), rng_pair.gen::<u64>());
    }

    proptest! {
        #[test]
        fn prop_columns_roundtrip(records in proptest::collection::vec(
            (proptest::collection::vec(any::<u32>(), 3), any::<bool>()), 0..20), seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let plain: Vec<PlainRecord> = records.into_iter()
                .map(|(fields, is_view)| PlainRecord { fields, is_view })
                .collect();
            let pair = SharedArrayPair::share_records(&plain, &mut rng);
            let cols = SharedColumnsPair::from_pair(&pair);
            prop_assert_eq!(cols.to_pair().recover_all(), plain);
        }

        #[test]
        fn prop_lane_kernels_match_scalar(a in proptest::collection::vec(any::<u64>(), 0..32),
                                          seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let b: Vec<u64> = a.iter().map(|_| rng.gen()).collect();
            let sel: Vec<u64> = a.iter().map(|_| u64::from(rng.gen::<bool>())).collect();
            let mut out = Vec::new();

            lt_lane(&a, &b, &mut out);
            prop_assert_eq!(&out, &a.iter().zip(&b).map(|(&x, &y)| u64::from(x < y)).collect::<Vec<_>>());
            eq_lane(&a, &b, &mut out);
            prop_assert_eq!(&out, &a.iter().zip(&b).map(|(&x, &y)| u64::from(x == y)).collect::<Vec<_>>());
            add_lane(&a, &b, &mut out);
            prop_assert_eq!(&out, &a.iter().zip(&b).map(|(&x, &y)| x.wrapping_add(y)).collect::<Vec<_>>());
            mux_lane(&sel, &a, &b, &mut out);
            prop_assert_eq!(&out, &sel.iter().zip(a.iter().zip(&b))
                .map(|(&s, (&x, &y))| if s == 1 { x } else { y }).collect::<Vec<_>>());

            let (mut x, mut y) = (a.clone(), b.clone());
            cswap_lane(&sel, &mut x, &mut y);
            for i in 0..a.len() {
                if sel[i] == 1 {
                    prop_assert_eq!((x[i], y[i]), (b[i], a[i]));
                } else {
                    prop_assert_eq!((x[i], y[i]), (a[i], b[i]));
                }
            }
        }
    }
}
