//! The Transform protocol (Algorithm 1), executed incrementally.
//!
//! Invoked whenever owners submit new data, Transform:
//!
//! 1. converts the newly outsourced data into its corresponding view entries using a
//!    **truncated** oblivious join (each record contributes at most ω rows, Eq. 3),
//! 2. writes the exhaustively padded result ΔV to the secure cache, and
//! 3. maintains a secret-shared cardinality counter of how many real view entries have
//!    been cached since the last synchronization, re-sharing it with fresh joint
//!    randomness (Section 5.1, "Secret-sharing inside MPC").
//!
//! Lifetime contribution budgets (Section 5.1, "Contribution over time") are enforced
//! here: every record used as Transform input is charged ω against its budget `b`;
//! retired records are excluded from future invocations, which is what makes the
//! composed transformation `b`-stable and the total privacy loss bounded.
//!
//! # Incremental execution
//!
//! Two mechanisms make the hot path *incremental* rather than recompute-from-scratch:
//!
//! * **Delta share cache** — the secret-shared encodings of the accumulated active
//!   relations are kept across invocations ([`DeltaShareCache`]); each step only the
//!   new delta is shared and appended, and encodings are evicted in lockstep with
//!   contribution-budget expiry. This mirrors the real protocol, where the servers
//!   already hold the outsourced shares and `σ ← σ || ΔV` is an append, never a
//!   re-share. Cached encodings recover to exactly what a from-scratch re-share
//!   would produce (property-tested), so trajectories are unchanged.
//! * **`k`-step batching** — [`TransformProtocol::invoke_batched`] replays up to `k`
//!   deferred upload steps as one invocation: the per-step plaintext functionality
//!   (ledger charges, truncated matching via
//!   [`incshrink_oblivious::truncated_match`], per-step counter reshares) is
//!   reproduced *exactly*, while the oblivious join work is priced once over the
//!   combined delta by the adaptive planner ([`incshrink_oblivious::planner`]).
//!   Upload epochs are public metadata (the servers observe every batch arrival), so
//!   restricting the batched join to the same cross-epoch pairs the per-step
//!   invocations would produce costs no extra oblivious work. DP-relevant state —
//!   counter values, reshare cadence, ΔV contents — is invariant in `k`.

use crate::config::JoinPlanMode;
use crate::view::ViewDefinition;
use incshrink_dp::accountant::ContributionLedger;
use incshrink_mpc::cost::{CostReport, SimDuration};
use incshrink_mpc::PartyExec;
use incshrink_oblivious::planner::{
    charge_planned_join, plan_join, plan_join_calibrated, Calibration, JoinAlgorithm,
};
use incshrink_oblivious::{
    push_padded, truncated_match_rows, truncated_nested_loop_join_over, KeyIndex, RowRef,
};
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::{PlainRecord, SharedRecordPair};
use incshrink_storage::{RecordId, UploadBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Name under which the cardinality counter is secret-shared on the two servers.
pub const CARDINALITY_SHARE: &str = "cardinality";

/// A record currently eligible to participate in view transformations (it still has
/// contribution budget). The framework keeps these as the plaintext mirror of the
/// secret-shared outsourced store; the joins themselves run over shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveRecord {
    /// The record's id, used for contribution accounting.
    pub id: RecordId,
    /// The record's column values.
    pub fields: Vec<u32>,
}

/// An active record bundled with its remaining contribution budget — the unit
/// shipped between shards during elastic migration ([`TransformProtocol::export_active`]
/// / [`TransformProtocol::import_active`]).
pub type BudgetedRecord = (ActiveRecord, u64);

/// One owner upload step deferred for batched Transform execution: the padded upload
/// batches plus the *unpruned* outsourced-relation sizes at that step (the quantities
/// [`TransformProtocol::invoke`] takes as arguments).
#[derive(Debug, Clone)]
pub struct StepInputs {
    /// The left relation's padded upload batch.
    pub delta_left: UploadBatch,
    /// The right relation's padded upload batch (absent when the right is public).
    pub delta_right: Option<UploadBatch>,
    /// Unpruned size of the right relation the left delta joins against.
    pub full_right_len: usize,
    /// Unpruned size of the left relation the right delta joins against.
    pub full_left_len: usize,
}

/// The secret-shared encodings of one accumulated active relation, kept across
/// Transform invocations so only the per-step delta ever needs sharing.
///
/// Invariant: `records[i]` is the plaintext mirror of `shares[i]` — appends and
/// evictions move in lockstep, and the recovered share sequence always equals what a
/// full `share_active`-style re-share of `records` would produce.
#[derive(Debug, Default)]
pub struct DeltaShareCache {
    records: Vec<ActiveRecord>,
    shares: SharedArrayPair,
}

impl DeltaShareCache {
    /// Number of active records in the cache.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The plaintext mirror of the cached relation.
    #[must_use]
    pub fn records(&self) -> &[ActiveRecord] {
        &self.records
    }

    /// The cached secret-shared encodings (index-aligned with [`Self::records`]).
    #[must_use]
    pub fn shares(&self) -> &SharedArrayPair {
        &self.shares
    }

    /// Clone of the field vectors, in cache order (the plaintext inner relation the
    /// truncated matching runs over).
    #[must_use]
    pub fn fields(&self) -> Vec<Vec<u32>> {
        self.records.iter().map(|r| r.fields.clone()).collect()
    }

    /// Fix the share array's arity before the first append so empty caches still
    /// describe the relation shape the joins expect.
    fn ensure_arity(&mut self, arity: usize) {
        if self.shares.arity().is_none() {
            self.shares = SharedArrayPair::with_arity(arity);
        }
    }

    /// Charge ω to every cached record and evict the ones whose budget expired
    /// (`tuples expire` eviction): the plaintext mirror and the share encoding are
    /// dropped together so indices stay aligned.
    fn charge_and_evict(&mut self, ledger: &mut ContributionLedger, omega: u64) {
        let keep: Vec<bool> = self
            .records
            .iter()
            .map(|rec| ledger.charge(rec.id, omega))
            .collect();
        if keep.iter().all(|k| *k) {
            return;
        }
        let mut record_keep = keep.iter();
        self.records
            .retain(|_| *record_keep.next().expect("aligned"));
        self.shares.retain_with(|i, _| keep[i]);
    }

    /// Remove and return the records satisfying `moved`, dropping the plaintext
    /// mirror and the share encoding in lockstep (elastic migration: the
    /// selected records leave for another shard, where [`Self::append`] re-shares
    /// them with fresh randomness).
    fn extract(&mut self, moved: &mut dyn FnMut(&ActiveRecord) -> bool) -> Vec<ActiveRecord> {
        let take: Vec<bool> = self.records.iter().map(&mut *moved).collect();
        if take.iter().all(|t| !t) {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut flags = take.iter();
        self.records.retain(|rec| {
            if *flags.next().expect("aligned") {
                out.push(rec.clone());
                false
            } else {
                true
            }
        });
        self.shares.retain_with(|i, _| !take[i]);
        out
    }

    /// Append freshly arrived records: share each one once (the incremental delta —
    /// this is the only place sharing happens) and extend both sides in lockstep.
    fn append<R: Rng + ?Sized>(&mut self, new: Vec<ActiveRecord>, arity: usize, rng: &mut R) {
        self.ensure_arity(arity);
        for rec in &new {
            self.shares
                .push(SharedRecordPair::share(
                    &PlainRecord::real(rec.fields.clone()),
                    rng,
                ))
                .expect("uniform arity");
        }
        self.records.extend(new);
    }
}

/// Lazily shared encodings of a *public* right relation (CPDB's Award table): each
/// row is shared at most once over the protocol lifetime, then window-pruned
/// selections reuse the cached encoding instead of re-sharing per step. Public rows
/// carry no contribution budget, so nothing ever needs eviction.
#[derive(Debug, Default)]
struct PublicShareCache {
    shares: Vec<Option<SharedRecordPair>>,
}

impl PublicShareCache {
    fn select<R: Rng + ?Sized>(
        &mut self,
        public: &[Vec<u32>],
        indices: &[usize],
        arity: usize,
        rng: &mut R,
    ) -> SharedArrayPair {
        if self.shares.len() < public.len() {
            self.shares.resize_with(public.len(), || None);
        }
        let mut out = SharedArrayPair::with_arity(arity);
        for &i in indices {
            let entry = self.shares[i].get_or_insert_with(|| {
                SharedRecordPair::share(&PlainRecord::real(public[i].clone()), rng)
            });
            out.push(entry.clone()).expect("uniform arity");
        }
        out
    }
}

/// Result of one Transform invocation (single-step or batched).
#[derive(Debug, Clone)]
pub struct TransformOutcome {
    /// The exhaustively padded ΔV to append to the secure cache.
    pub delta: SharedArrayPair,
    /// Number of real view entries in ΔV (protocol-internal).
    pub new_entries: usize,
    /// Oblivious-operation counts of this invocation.
    pub report: CostReport,
    /// Simulated execution time of this invocation.
    pub duration: SimDuration,
    /// How many owner upload steps this invocation covered (1 for the per-step path,
    /// up to `k` for batched execution).
    pub steps_covered: usize,
}

/// The Transform protocol state.
///
/// # Leakage
/// Everything the servers observe — upload batch sizes, ΔV sizes, the counter
/// reshare cadence, the join operation schedule — is a deterministic function of
/// public quantities (batch sizes, relation lengths, ω, the plan mode and `k`).
/// Batched execution defers join *work*, never messages: the counter is still
/// reshared once per covered upload step.
pub struct TransformProtocol {
    view: ViewDefinition,
    omega: u64,
    ledger: ContributionLedger,
    active_left: DeltaShareCache,
    active_right: DeltaShareCache,
    /// Full public right relation (CPDB's Award table), when the right side is public.
    public_right: Option<Vec<Vec<u32>>>,
    public_cache: PublicShareCache,
    join_plan: JoinPlanMode,
    calibration: Option<Calibration>,
    initialized: bool,
    total_truncation_losses: u64,
}

impl TransformProtocol {
    /// Create the protocol. `public_right` carries the full public relation when the
    /// right side is public (its records are not privacy-tracked).
    #[must_use]
    pub fn new(
        view: ViewDefinition,
        truncation_bound: u64,
        contribution_budget: u64,
        public_right: Option<Vec<Vec<u32>>>,
    ) -> Self {
        assert!(truncation_bound >= 1);
        assert!(contribution_budget >= truncation_bound);
        Self {
            view,
            omega: truncation_bound,
            ledger: ContributionLedger::new(contribution_budget),
            active_left: DeltaShareCache::default(),
            active_right: DeltaShareCache::default(),
            public_right,
            public_cache: PublicShareCache::default(),
            join_plan: JoinPlanMode::NestedLoop,
            calibration: None,
            initialized: false,
            total_truncation_losses: 0,
        }
    }

    /// Builder-style override of the truncated-join plan mode (default: nested loop,
    /// which preserves the original cost accounting bit for bit).
    #[must_use]
    pub fn with_join_plan(mut self, mode: JoinPlanMode) -> Self {
        self.join_plan = mode;
        self
    }

    /// Builder-style override of the planner's cost weights with a measured
    /// [`Calibration`] (e.g. loaded from `kernel_throughput` output). Only affects
    /// the [`JoinPlanMode::Adaptive`] mode; `None` (the default) keeps the exact
    /// integer compare-count planner, so default trajectories are unchanged.
    #[must_use]
    pub fn with_calibration(mut self, calibration: Option<Calibration>) -> Self {
        self.set_calibration(calibration);
        self
    }

    /// In-place variant of [`Self::with_calibration`] for drivers holding the
    /// protocol inside a pipeline.
    pub fn set_calibration(&mut self, calibration: Option<Calibration>) {
        self.calibration = calibration;
    }

    /// The contribution ledger (exposed for privacy-accounting inspection).
    #[must_use]
    pub fn ledger(&self) -> &ContributionLedger {
        &self.ledger
    }

    /// Number of currently active (non-retired) records on each side.
    #[must_use]
    pub fn active_counts(&self) -> (usize, usize) {
        (self.active_left.len(), self.active_right.len())
    }

    /// The delta share caches `(left, right)` — exposed so tests can verify the
    /// cached encodings stay equivalent to a from-scratch re-share of the active
    /// relations.
    #[must_use]
    pub fn share_caches(&self) -> (&DeltaShareCache, &DeltaShareCache) {
        (&self.active_left, &self.active_right)
    }

    /// Cumulative number of real join pairs dropped because of the ω truncation.
    #[must_use]
    pub fn truncation_losses(&self) -> u64 {
        self.total_truncation_losses
    }

    /// Extract the active records whose join key satisfies `moved`, together
    /// with each record's remaining contribution budget (elastic migration:
    /// future arrivals for that key range route to another shard, so its
    /// active records must follow or cross-time join pairs would be lost).
    /// The records stop being tracked here; the destination's
    /// [`Self::import_active`] resumes the budgets, so the lifetime `b`-bound
    /// is preserved across the move.
    pub fn export_active(
        &mut self,
        moved: &dyn Fn(u32) -> bool,
    ) -> (Vec<BudgetedRecord>, Vec<BudgetedRecord>) {
        let left_key = self.view.left_key;
        let right_key = self.view.right_key;
        let left = self
            .active_left
            .extract(&mut |rec| rec.fields.get(left_key).is_some_and(|&k| moved(k)));
        let right = self
            .active_right
            .extract(&mut |rec| rec.fields.get(right_key).is_some_and(|&k| moved(k)));
        let mut carry = |recs: Vec<ActiveRecord>| -> Vec<BudgetedRecord> {
            recs.into_iter()
                .map(|rec| {
                    let remaining = self.ledger.forget(rec.id);
                    (rec, remaining)
                })
                .collect()
        };
        (carry(left), carry(right))
    }

    /// Adopt active records migrated from another shard: resume each record's
    /// contribution budget and re-share its encoding with fresh randomness
    /// (`rng` is the migration protocol's randomness, not party randomness, so
    /// trajectories stay identical across party execution modes).
    pub fn import_active<R: Rng + ?Sized>(
        &mut self,
        left: Vec<BudgetedRecord>,
        right: Vec<BudgetedRecord>,
        left_arity: usize,
        right_arity: usize,
        rng: &mut R,
    ) {
        let adopt = |ledger: &mut ContributionLedger,
                     cache: &mut DeltaShareCache,
                     batch: Vec<BudgetedRecord>,
                     arity: usize,
                     rng: &mut R| {
            if batch.is_empty() {
                return;
            }
            let mut records = Vec::with_capacity(batch.len());
            for (rec, remaining) in batch {
                ledger.import(rec.id, remaining);
                records.push(rec);
            }
            cache.append(records, arity, rng);
        };
        adopt(
            &mut self.ledger,
            &mut self.active_left,
            left,
            left_arity,
            rng,
        );
        adopt(
            &mut self.ledger,
            &mut self.active_right,
            right,
            right_arity,
            rng,
        );
    }

    fn batch_real_records(batch: &UploadBatch) -> Vec<ActiveRecord> {
        batch
            .ids
            .iter()
            .zip(batch.records.entries().iter())
            .filter_map(|(id, rec)| {
                id.map(|id| ActiveRecord {
                    id,
                    fields: rec.recover().fields,
                })
            })
            .collect()
    }

    /// Indices of the public rows inside the join window of the given left delta
    /// (host-side pruning; the cost of the skipped rows is charged separately so
    /// simulated time reflects a join against the entire relation).
    fn public_window_indices(
        view: &ViewDefinition,
        public: &[Vec<u32>],
        new_left: &[ActiveRecord],
    ) -> Vec<usize> {
        let times: Vec<u32> = new_left
            .iter()
            .filter_map(|r| r.fields.get(view.left_time).copied())
            .collect();
        let (lo, hi) = match (times.iter().min(), times.iter().max()) {
            (Some(&lo), Some(&hi)) => (lo, hi.saturating_add(view.window)),
            _ => (u32::MAX, 0),
        };
        public
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                let t = r.get(view.right_time).copied().unwrap_or(0);
                t >= lo && t <= hi
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Count the real join pairs that exist among this invocation's inputs *before*
    /// truncation. The difference between this and the emitted entries is the
    /// truncation loss tracked for the ω-sweep experiment of Section 7.4.
    ///
    /// Host-side bookkeeping over plaintext mirrors: `index` is the [`KeyIndex`]
    /// over the inner rows' join-key column (`right_key` normally, `left_key` under
    /// the reversed orientation) — the same index the truncated-match replay walks,
    /// built once per snapshot and shared. Walking only index candidates turns the
    /// former `O(|outer|·|inner|)` scan into `O(|outer| + matches)`; the count is
    /// order-independent, so the result is exactly the quadratic scan's.
    fn count_potential_pairs(
        &self,
        outer: &[ActiveRecord],
        inner: &[RowRef<'_>],
        index: &KeyIndex,
        reversed: bool,
    ) -> u64 {
        // Under the reversed orientation the inner rows sit on the join's left side.
        let outer_key = if reversed {
            self.view.right_key
        } else {
            self.view.left_key
        };
        let mut pairs = 0u64;
        for o in outer {
            let Some(&key) = o.fields.get(outer_key) else {
                continue;
            };
            for &ii in index.candidates(key) {
                // Key equality holds by index construction; what remains is the
                // temporal window condition of the view definition.
                let row = inner[ii].fields;
                let (l, r) = if reversed {
                    (row, o.fields.as_slice())
                } else {
                    (o.fields.as_slice(), row)
                };
                let lt = l.get(self.view.left_time).copied().unwrap_or(0);
                let rt = r.get(self.view.right_time).copied().unwrap_or(0);
                if rt >= lt && rt - lt <= self.view.window {
                    pairs += 1;
                }
            }
        }
        pairs
    }

    /// Resolve the plan mode to a concrete algorithm for the given public sizes.
    fn choose_algorithm(&self, outer_len: usize, inner_len: usize) -> JoinAlgorithm {
        match self.join_plan {
            JoinPlanMode::NestedLoop => JoinAlgorithm::NestedLoop,
            JoinPlanMode::SortMerge => JoinAlgorithm::SortMerge,
            JoinPlanMode::Adaptive => match &self.calibration {
                Some(cal) => {
                    plan_join_calibrated(outer_len, inner_len, self.omega as usize, cal).algorithm
                }
                None => plan_join(outer_len, inner_len, self.omega as usize).algorithm,
            },
        }
    }

    /// Run one Transform invocation over the owner deltas submitted at this time step.
    ///
    /// `delta_left` is the left relation's padded upload; `delta_right` is the right
    /// relation's padded upload (absent when the right relation is public).
    /// `full_right_len` / `full_left_len` are the *unpruned* sizes of the relation the
    /// deltas are joined against; the difference between those and the active sets is
    /// charged to the cost meter so simulated time reflects a join against the entire
    /// outsourced relation even though retired records are (correctly) excluded from
    /// the plaintext matching.
    ///
    /// This is the exact per-step path (`k = 1`, nested-loop accounting): its meter
    /// and server-randomness trace is unchanged from the original implementation, so
    /// default-configuration trajectories replay bit for bit. The only difference is
    /// that the inner relations come from the [`DeltaShareCache`] instead of being
    /// re-shared from scratch — share randomness, which nothing downstream observes.
    pub fn invoke(
        &mut self,
        ctx: &mut impl PartyExec,
        delta_left: &UploadBatch,
        delta_right: Option<&UploadBatch>,
        full_right_len: usize,
        full_left_len: usize,
    ) -> TransformOutcome {
        // Algorithm 1 line 1-2: on the first invocation, initialise and share c = 0.
        if !self.initialized {
            ctx.reshare_and_store(CARDINALITY_SHARE, 0);
            self.initialized = true;
        }

        let left_arity = delta_left.records.arity().unwrap_or(2);
        let right_arity = delta_right
            .and_then(|d| d.records.arity())
            .or_else(|| {
                self.public_right
                    .as_ref()
                    .and_then(|p| p.first().map(Vec::len))
            })
            .unwrap_or(left_arity);

        // Contribution accounting: charge ω to every record used as input.
        let new_left = Self::batch_real_records(delta_left);
        for rec in &new_left {
            self.ledger.register(rec.id);
            let charged = self.ledger.charge(rec.id, self.omega);
            debug_assert!(charged, "fresh records always have budget >= omega");
        }
        let new_right: Vec<ActiveRecord> = delta_right
            .map(Self::batch_real_records)
            .unwrap_or_default();
        for rec in &new_right {
            self.ledger.register(rec.id);
            let charged = self.ledger.charge(rec.id, self.omega);
            debug_assert!(charged, "fresh records always have budget >= omega");
        }
        self.active_left
            .charge_and_evict(&mut self.ledger, self.omega);
        self.active_right
            .charge_and_evict(&mut self.ledger, self.omega);
        self.active_left.ensure_arity(left_arity);
        self.active_right.ensure_arity(right_arity);

        // Build the inner relations the deltas join against: cached encodings plus
        // fresh shares for whatever arrived since the last invocation — never a full
        // re-share of the accumulated relation.
        let omega = self.omega as usize;
        let mut rng = StdRng::seed_from_u64(0xA11CE ^ ctx.time_step());
        let mut share_rng =
            StdRng::seed_from_u64(0x5EED_0000 ^ ctx.time_step().wrapping_mul(0x9E37_79B9));

        let (public_inner, public_indices): (Option<SharedArrayPair>, Vec<usize>) =
            if let Some(public) = &self.public_right {
                // Public right relation: prune to the join window for host-side speed;
                // the skipped records are charged to the meter below.
                let indices = Self::public_window_indices(&self.view, public, &new_left);
                let shared =
                    self.public_cache
                        .select(public, &indices, right_arity, &mut share_rng);
                (Some(shared), indices)
            } else {
                (None, Vec::new())
            };
        let inner_right_records: &SharedArrayPair = public_inner
            .as_ref()
            .unwrap_or_else(|| self.active_right.shares());
        let inner_left_records: &SharedArrayPair = self.active_left.shares();

        // Borrowed row views over the plaintext mirrors of the inner relations — no
        // field clones — plus one key index per side, shared by the truncation-loss
        // bookkeeping (evaluation metric, not protocol state) and the joins below,
        // which therefore never recover the accumulated relations from their shares.
        let inner_right_rows: Vec<RowRef<'_>> = match &self.public_right {
            Some(public) => public_indices
                .iter()
                .map(|&i| RowRef {
                    fields: &public[i],
                    is_view: true,
                })
                .collect(),
            None => self
                .active_right
                .records()
                .iter()
                .map(|r| RowRef {
                    fields: &r.fields,
                    is_view: true,
                })
                .collect(),
        };
        let inner_left_rows: Vec<RowRef<'_>> = self
            .active_left
            .records()
            .iter()
            .map(|r| RowRef {
                fields: &r.fields,
                is_view: true,
            })
            .collect();
        let right_index = KeyIndex::build(&inner_right_rows, self.view.right_key);
        let left_index = KeyIndex::build(&inner_left_rows, self.view.left_key);
        let potential_pairs =
            self.count_potential_pairs(&new_left, &inner_right_rows, &right_index, false)
                + self.count_potential_pairs(&new_right, &inner_left_rows, &left_index, true);

        // ΔV part 1: new left records ⋈ accumulated right relation.
        let spec = self.view.join_spec();
        let join_left = truncated_nested_loop_join_over(
            &delta_left.records,
            inner_right_records,
            &inner_right_rows,
            &right_index,
            &spec,
            omega,
            ctx.meter(),
            &mut rng,
        );
        // Charge the records the plaintext pruning skipped, so simulated time matches
        // an oblivious join against the full outsourced relation.
        let skipped_right = full_right_len.saturating_sub(inner_right_records.len()) as u64;
        ctx.meter()
            .compares(delta_left.records.len() as u64 * skipped_right);
        ctx.meter()
            .ands(2 * delta_left.records.len() as u64 * skipped_right);

        // ΔV part 2: new right records ⋈ accumulated left relation (private-right
        // workloads only).
        let join_right = delta_right.map(|d| {
            let spec_rev = self.view.join_spec_reversed();
            let joined = truncated_nested_loop_join_over(
                &d.records,
                inner_left_records,
                &inner_left_rows,
                &left_index,
                &spec_rev,
                omega,
                ctx.meter(),
                &mut rng,
            );
            let skipped_left = full_left_len.saturating_sub(inner_left_records.len()) as u64;
            ctx.meter().compares(d.records.len() as u64 * skipped_left);
            ctx.meter().ands(2 * d.records.len() as u64 * skipped_left);
            joined
        });

        // Assemble ΔV.
        let mut delta = SharedArrayPair::with_arity(left_arity + right_arity);
        delta.extend(join_left).expect("arity");
        if let Some(j) = join_right {
            delta.extend(j).expect("arity");
        }

        // Algorithm 1 lines 4-6: recover the counter, add the new cardinality, and
        // re-share it with fresh joint randomness.
        let new_entries = delta.true_cardinality();
        self.total_truncation_losses += potential_pairs.saturating_sub(new_entries as u64);
        ctx.meter().ands(delta.len() as u64);
        let counter = ctx.recover_named(CARDINALITY_SHARE).unwrap_or(0);
        ctx.reshare_and_store(CARDINALITY_SHARE, counter + new_entries as u32);

        // The new records become part of the accumulated relations for future steps
        // (they retain budget b − ω); their encodings enter the delta share cache.
        self.active_left
            .append(new_left, left_arity, &mut share_rng);
        self.active_right
            .append(new_right, right_arity, &mut share_rng);

        let (report, duration) = ctx.charge();
        ctx.advance_time_step();
        TransformOutcome {
            delta,
            new_entries,
            report,
            duration,
            steps_covered: 1,
        }
    }

    /// Run one *batched* Transform invocation over up to `k` deferred upload steps.
    ///
    /// The plaintext functionality is the exact sequential composition of the
    /// per-step [`Self::invoke`] calls — identical ΔV contents (per-step slices in
    /// order), ledger charges, active-set evolution, truncation losses, and one
    /// cardinality recover/reshare *per covered step* (the counter message cadence
    /// the servers observe is part of the update-pattern leakage and must not change
    /// with `k`). Only the oblivious join work differs: it is priced once over the
    /// combined delta against the relation size at flush time, using the operator the
    /// plan mode selects. With `steps.len() == 1` and nested-loop planning this
    /// delegates to [`Self::invoke`], so `k = 1` runs are bit-for-bit unchanged.
    pub fn invoke_batched(
        &mut self,
        ctx: &mut impl PartyExec,
        steps: &[StepInputs],
    ) -> TransformOutcome {
        if steps.is_empty() {
            return TransformOutcome {
                delta: SharedArrayPair::new(),
                new_entries: 0,
                report: CostReport::default(),
                duration: SimDuration::ZERO,
                steps_covered: 0,
            };
        }
        if steps.len() == 1 && self.join_plan == JoinPlanMode::NestedLoop {
            let step = &steps[0];
            return self.invoke(
                ctx,
                &step.delta_left,
                step.delta_right.as_ref(),
                step.full_right_len,
                step.full_left_len,
            );
        }

        if !self.initialized {
            ctx.reshare_and_store(CARDINALITY_SHARE, 0);
            self.initialized = true;
        }

        // Relation arities are uniform across a batch; derive them like the per-step
        // path does, falling back across steps for all-empty deltas.
        let left_arity = steps
            .iter()
            .find_map(|s| s.delta_left.records.arity())
            .unwrap_or(2);
        let right_arity = steps
            .iter()
            .find_map(|s| s.delta_right.as_ref().and_then(|d| d.records.arity()))
            .or_else(|| {
                self.public_right
                    .as_ref()
                    .and_then(|p| p.first().map(Vec::len))
            })
            .unwrap_or(left_arity);
        let out_arity = left_arity + right_arity;
        let merged_arity = left_arity.max(right_arity) + 2;
        let omega = self.omega as usize;

        let mut rng = StdRng::seed_from_u64(0xA11CE ^ ctx.time_step());
        let mut share_rng =
            StdRng::seed_from_u64(0x5EED_0000 ^ ctx.time_step().wrapping_mul(0x9E37_79B9));

        let mut delta = SharedArrayPair::with_arity(out_arity);
        let mut total_new_entries = 0usize;
        let mut outer_left_total = 0usize;
        let mut outer_right_total = 0usize;
        let mut has_private_right = false;

        for step in steps {
            // --- Per-step contribution accounting, exactly as the per-step path.
            let new_left = Self::batch_real_records(&step.delta_left);
            for rec in &new_left {
                self.ledger.register(rec.id);
                let charged = self.ledger.charge(rec.id, self.omega);
                debug_assert!(charged, "fresh records always have budget >= omega");
            }
            let new_right: Vec<ActiveRecord> = step
                .delta_right
                .as_ref()
                .map(Self::batch_real_records)
                .unwrap_or_default();
            for rec in &new_right {
                self.ledger.register(rec.id);
                let charged = self.ledger.charge(rec.id, self.omega);
                debug_assert!(charged, "fresh records always have budget >= omega");
            }
            self.active_left
                .charge_and_evict(&mut self.ledger, self.omega);
            self.active_right
                .charge_and_evict(&mut self.ledger, self.omega);

            // --- Per-step inner snapshots (active sets as of this step): borrowed
            // row views over the plaintext mirrors — no field clones — plus one key
            // index per side, shared by the pair count and the truncated-match
            // replay below.
            let inner_right_rows: Vec<RowRef<'_>> = if let Some(public) = &self.public_right {
                let indices = Self::public_window_indices(&self.view, public, &new_left);
                indices
                    .iter()
                    .map(|&i| RowRef {
                        fields: &public[i],
                        is_view: true,
                    })
                    .collect()
            } else {
                self.active_right
                    .records()
                    .iter()
                    .map(|r| RowRef {
                        fields: &r.fields,
                        is_view: true,
                    })
                    .collect()
            };
            let inner_left_rows: Vec<RowRef<'_>> = self
                .active_left
                .records()
                .iter()
                .map(|r| RowRef {
                    fields: &r.fields,
                    is_view: true,
                })
                .collect();
            let right_index = KeyIndex::build(&inner_right_rows, self.view.right_key);
            let left_index = KeyIndex::build(&inner_left_rows, self.view.left_key);

            let potential_pairs =
                self.count_potential_pairs(&new_left, &inner_right_rows, &right_index, false)
                    + self.count_potential_pairs(&new_right, &inner_left_rows, &left_index, true);

            // --- Replay this step's truncated joins on plaintext; the oblivious work
            // is priced once, after the loop, over the combined delta.
            let mut step_entries = 0usize;
            let outer_plain = batch_plain_records(&step.delta_left);
            let outer_rows: Vec<RowRef<'_>> = outer_plain.iter().map(RowRef::from).collect();
            let spec = self.view.join_spec();
            for produced in
                truncated_match_rows(&outer_rows, &inner_right_rows, &right_index, &spec, omega)
            {
                step_entries += produced.len();
                push_padded(&mut delta, produced, omega, out_arity, &mut rng);
            }
            outer_left_total += outer_plain.len();

            if let Some(d) = &step.delta_right {
                has_private_right = true;
                let outer_plain = batch_plain_records(d);
                let outer_rows: Vec<RowRef<'_>> = outer_plain.iter().map(RowRef::from).collect();
                let spec_rev = self.view.join_spec_reversed();
                for produced in truncated_match_rows(
                    &outer_rows,
                    &inner_left_rows,
                    &left_index,
                    &spec_rev,
                    omega,
                ) {
                    step_entries += produced.len();
                    push_padded(&mut delta, produced, omega, out_arity, &mut rng);
                }
                outer_right_total += outer_plain.len();
            }

            self.total_truncation_losses += potential_pairs.saturating_sub(step_entries as u64);

            // --- Per-step counter cadence: the AND-scan of this step's ΔV slice plus
            // one recover/reshare, exactly like a per-step invocation.
            let step_delta_len = (step.delta_left.records.len()
                + step.delta_right.as_ref().map_or(0, |d| d.records.len()))
                * omega;
            ctx.meter().ands(step_delta_len as u64);
            let counter = ctx.recover_named(CARDINALITY_SHARE).unwrap_or(0);
            ctx.reshare_and_store(CARDINALITY_SHARE, counter + step_entries as u32);
            total_new_entries += step_entries;

            // --- The step's arrivals become active (and cached) for later steps of
            // this very batch, which is how cross-step pairs inside the batch appear.
            self.active_left
                .append(new_left, left_arity, &mut share_rng);
            self.active_right
                .append(new_right, right_arity, &mut share_rng);
        }

        // --- Price the amortized joins: one planned oblivious join per direction
        // over the combined delta against the full relation as of flush time.
        let last = steps.last().expect("non-empty batch");
        let algo_left = self.choose_algorithm(outer_left_total, last.full_right_len);
        charge_planned_join(
            ctx.meter(),
            algo_left,
            outer_left_total,
            last.full_right_len,
            omega,
            out_arity,
            merged_arity,
        );
        if has_private_right {
            let algo_right = self.choose_algorithm(outer_right_total, last.full_left_len);
            charge_planned_join(
                ctx.meter(),
                algo_right,
                outer_right_total,
                last.full_left_len,
                omega,
                out_arity,
                merged_arity,
            );
        }

        let (report, duration) = ctx.charge();
        for _ in steps {
            ctx.advance_time_step();
        }
        TransformOutcome {
            delta,
            new_entries: total_new_entries,
            report,
            duration,
            steps_covered: steps.len(),
        }
    }
}

/// Recover an upload batch's padded records (dummies included — they participate in
/// the oblivious join shape but never match).
fn batch_plain_records(batch: &UploadBatch) -> Vec<PlainRecord> {
    batch
        .records
        .entries()
        .iter()
        .map(|e| e.recover())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_mpc::cost::CostModel;
    use incshrink_mpc::TwoPartyContext;
    use incshrink_storage::{LogicalUpdate, Relation, UploadBatch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn view_def() -> ViewDefinition {
        ViewDefinition {
            left_key: 0,
            left_time: 1,
            right_key: 0,
            right_time: 1,
            window: 10,
        }
    }

    fn batch(
        relation: Relation,
        time: u64,
        rows: &[(u64, u32, u32)],
        padded: usize,
    ) -> UploadBatch {
        let mut rng = StdRng::seed_from_u64(time ^ 0xBA7C4);
        let updates: Vec<LogicalUpdate> = rows
            .iter()
            .map(|&(id, key, t)| LogicalUpdate {
                id,
                relation,
                arrival: time,
                fields: vec![key, t],
            })
            .collect();
        let refs: Vec<&LogicalUpdate> = updates.iter().collect();
        UploadBatch::from_updates(relation, time, &refs, 2, padded, &mut rng)
    }

    #[test]
    fn transform_produces_padded_delta_and_counts_entries() {
        let mut ctx = TwoPartyContext::new(1, CostModel::default());
        let mut transform = TransformProtocol::new(view_def(), 1, 10, None);

        // Step 1: two sales arrive, no returns yet.
        let left = batch(Relation::Left, 1, &[(1, 100, 1), (2, 200, 1)], 4);
        let right = batch(Relation::Right, 1, &[], 4);
        let out = transform.invoke(&mut ctx, &left, Some(&right), 0, 0);
        assert_eq!(out.new_entries, 0);
        // ΔV padded size = ω·(|deltaL| + |deltaR|).
        assert_eq!(out.delta.len(), 4 + 4);
        assert!(out.duration.as_secs_f64() > 0.0);
        assert_eq!(out.steps_covered, 1);

        // Step 2: a matching return for pid 100 arrives within the window.
        let left2 = batch(Relation::Left, 2, &[], 4);
        let right2 = batch(Relation::Right, 2, &[(3, 100, 3)], 4);
        let out2 = transform.invoke(&mut ctx, &left2, Some(&right2), 8, 8);
        assert_eq!(out2.new_entries, 1);
        assert_eq!(out2.delta.true_cardinality(), 1);

        // The shared cardinality counter accumulated 0 + 1.
        assert_eq!(ctx.recover_named(CARDINALITY_SHARE), Some(1));
        assert_eq!(transform.active_counts(), (2, 1));
    }

    #[test]
    fn truncation_bound_limits_per_record_contribution() {
        let mut ctx = TwoPartyContext::new(2, CostModel::default());
        // ω = 2 but three matching right records exist for the same left key.
        let mut transform = TransformProtocol::new(view_def(), 2, 4, None);
        let left = batch(Relation::Left, 1, &[(1, 7, 1)], 2);
        let right = batch(Relation::Right, 1, &[(2, 7, 2), (3, 7, 3), (4, 7, 4)], 4);
        // Right delta joins against active left — but left only becomes active after
        // its own invocation, so feed left first, then right in the next invocation.
        let _ = transform.invoke(
            &mut ctx,
            &left,
            Some(&batch(Relation::Right, 1, &[], 4)),
            0,
            0,
        );
        let out = transform.invoke(
            &mut ctx,
            &batch(Relation::Left, 2, &[], 2),
            Some(&right),
            4,
            2,
        );
        assert_eq!(out.new_entries, 2, "ω=2 caps the pairs generated");
        assert_eq!(transform.truncation_losses(), 1);
    }

    #[test]
    fn records_retire_after_budget_exhaustion() {
        let mut ctx = TwoPartyContext::new(3, CostModel::default());
        // b = 2, ω = 1: a record may participate in two invocations then retires.
        let mut transform = TransformProtocol::new(view_def(), 1, 2, None);
        let left = batch(Relation::Left, 1, &[(1, 9, 1)], 2);
        let empty_r = |t| batch(Relation::Right, t, &[], 2);
        let empty_l = |t| batch(Relation::Left, t, &[], 2);

        let _ = transform.invoke(&mut ctx, &left, Some(&empty_r(1)), 0, 0);
        assert_eq!(transform.active_counts().0, 1);
        // Second invocation: the record is charged again and hits its budget.
        let _ = transform.invoke(&mut ctx, &empty_l(2), Some(&empty_r(2)), 2, 2);
        // Third invocation: it is excluded (retired) before any join — and its cached
        // share encoding is evicted with it.
        let _ = transform.invoke(&mut ctx, &empty_l(3), Some(&empty_r(3)), 2, 2);
        assert_eq!(transform.active_counts().0, 0);
        assert!(transform.share_caches().0.shares().is_empty());

        // A matching return arriving now can no longer produce a view entry.
        let right = batch(Relation::Right, 4, &[(5, 9, 4)], 2);
        let out = transform.invoke(&mut ctx, &empty_l(4), Some(&right), 2, 2);
        assert_eq!(out.new_entries, 0);
    }

    #[test]
    fn public_right_relation_joins_without_budget_tracking() {
        let mut ctx = TwoPartyContext::new(4, CostModel::default());
        let public: Vec<Vec<u32>> = vec![vec![5, 12], vec![5, 30], vec![6, 14]];
        let mut transform = TransformProtocol::new(view_def(), 10, 20, Some(public));
        // One allegation for officer 5 at time 10: award at 12 is in window, at 30 not.
        let left = batch(Relation::Left, 10, &[(1, 5, 10)], 3);
        let out = transform.invoke(&mut ctx, &left, None, 3, 0);
        assert_eq!(out.new_entries, 1);
        assert_eq!(out.delta.len(), 30, "ω·|deltaL| exhaustive padding");
        assert_eq!(transform.active_counts(), (1, 0));
    }

    #[test]
    fn cardinality_counter_is_secret_shared_between_servers() {
        let mut ctx = TwoPartyContext::new(5, CostModel::default());
        let mut transform = TransformProtocol::new(view_def(), 1, 10, None);
        let left = batch(Relation::Left, 1, &[(1, 1, 1)], 2);
        let right = batch(Relation::Right, 1, &[(2, 1, 1)], 2);
        let _ = transform.invoke(&mut ctx, &left, Some(&right), 0, 0);

        let s0 = ctx.servers.s0.load_share(CARDINALITY_SHARE).unwrap();
        let s1 = ctx.servers.s1.load_share(CARDINALITY_SHARE).unwrap();
        let true_counter = ctx.recover_named(CARDINALITY_SHARE).unwrap();
        assert_eq!(s0.word ^ s1.word, true_counter);
        // Overwhelmingly, neither share alone equals the counter.
        assert!(s0.word != true_counter || s1.word != true_counter);
    }

    #[test]
    fn delta_size_is_data_independent() {
        // Two runs with identical batch sizes but different data must produce ΔV of
        // identical length and identical operation counts.
        let run = |rows_l: &[(u64, u32, u32)], rows_r: &[(u64, u32, u32)]| {
            let mut ctx = TwoPartyContext::new(6, CostModel::default());
            let mut transform = TransformProtocol::new(view_def(), 1, 10, None);
            let left = batch(Relation::Left, 1, rows_l, 4);
            let right = batch(Relation::Right, 1, rows_r, 4);
            let out = transform.invoke(&mut ctx, &left, Some(&right), 0, 0);
            (out.delta.len(), out.report)
        };
        let (len_a, rep_a) = run(&[(1, 1, 1), (2, 2, 1)], &[(3, 1, 2)]);
        let (len_b, rep_b) = run(&[(10, 99, 1)], &[]);
        assert_eq!(len_a, len_b);
        assert_eq!(rep_a, rep_b);
    }

    #[test]
    fn share_cache_tracks_active_relations_exactly() {
        let mut ctx = TwoPartyContext::new(7, CostModel::default());
        let mut transform = TransformProtocol::new(view_def(), 1, 3, None);
        for t in 1..=5u64 {
            let left = batch(Relation::Left, t, &[(t * 10, t as u32, t as u32)], 2);
            let right = batch(Relation::Right, t, &[(t * 10 + 1, t as u32, t as u32)], 2);
            let _ = transform.invoke(
                &mut ctx,
                &left,
                Some(&right),
                2 * t as usize,
                2 * t as usize,
            );
            let (lc, rc) = transform.share_caches();
            for cache in [lc, rc] {
                assert_eq!(cache.shares().len(), cache.records().len());
                let recovered: Vec<Vec<u32>> = cache
                    .shares()
                    .recover_all()
                    .into_iter()
                    .map(|r| r.fields)
                    .collect();
                assert_eq!(recovered, cache.fields(), "cache stays share-aligned");
            }
        }
        // b = 3, ω = 1: records survive three invocations, so at t = 5 only the last
        // three steps' arrivals are still active.
        assert_eq!(transform.active_counts(), (3, 3));
    }

    #[test]
    fn indexed_pair_count_matches_the_quadratic_reference() {
        // The pre-index implementation: a full O(|outer|·|inner|) predicate scan.
        fn reference(
            view: &ViewDefinition,
            outer: &[ActiveRecord],
            inner: &[&[u32]],
            reversed: bool,
        ) -> u64 {
            let mut pairs = 0u64;
            for o in outer {
                pairs += inner
                    .iter()
                    .filter(|row| {
                        let (l, r) = if reversed {
                            (**row, o.fields.as_slice())
                        } else {
                            (o.fields.as_slice(), **row)
                        };
                        let keys = l.get(view.left_key) == r.get(view.right_key)
                            && l.get(view.left_key).is_some();
                        let lt = l.get(view.left_time).copied().unwrap_or(0);
                        let rt = r.get(view.right_time).copied().unwrap_or(0);
                        keys && rt >= lt && rt - lt <= view.window
                    })
                    .count() as u64;
            }
            pairs
        }

        // Asymmetric key/time columns plus short rows exercise the missing-field
        // paths (a row too short to hold the key column can never match).
        let views = [
            view_def(),
            ViewDefinition {
                left_key: 1,
                left_time: 0,
                right_key: 2,
                right_time: 1,
                window: 3,
            },
        ];
        for view in views {
            let transform = TransformProtocol::new(view, 1, 10, None);
            let outer: Vec<ActiveRecord> = (0..48u32)
                .map(|i| ActiveRecord {
                    id: u64::from(i),
                    fields: (0..i % 4).map(|c| (i * 7 + c * 13) % 13).collect(),
                })
                .collect();
            let inner_rows: Vec<Vec<u32>> = (0..48u32)
                .map(|i| (0..(i + 2) % 4).map(|c| (i * 11 + c * 3) % 13).collect())
                .collect();
            let inner: Vec<&[u32]> = inner_rows.iter().map(Vec::as_slice).collect();
            let inner_refs: Vec<RowRef<'_>> = inner_rows
                .iter()
                .map(|row| RowRef {
                    fields: row,
                    is_view: true,
                })
                .collect();
            for reversed in [false, true] {
                // The inner side is keyed on the column the join condition reads
                // from it: right_key when it plays the right role, left_key when
                // the direction is reversed.
                let key_col = if reversed {
                    transform.view.left_key
                } else {
                    transform.view.right_key
                };
                let index = KeyIndex::build(&inner_refs, key_col);
                assert_eq!(
                    transform.count_potential_pairs(&outer, &inner_refs, &index, reversed),
                    reference(&transform.view, &outer, &inner, reversed),
                    "reversed = {reversed}"
                );
            }
        }
    }

    #[test]
    fn calibration_threads_through_to_adaptive_plan_choices() {
        let base =
            TransformProtocol::new(view_def(), 1, 10, None).with_join_plan(JoinPlanMode::Adaptive);
        let defaulted = TransformProtocol::new(view_def(), 1, 10, None)
            .with_join_plan(JoinPlanMode::Adaptive)
            .with_calibration(Some(Calibration::default()));
        let swap_heavy = Calibration {
            secs_per_swap: Calibration::default().secs_per_compare * 10.0,
            ..Calibration::default()
        };
        let weighted = TransformProtocol::new(view_def(), 1, 10, None)
            .with_join_plan(JoinPlanMode::Adaptive)
            .with_calibration(Some(swap_heavy));

        // The default calibration reproduces the integer planner's choices...
        for inner in [0usize, 1, 5, 64, 500, 2000, 4096] {
            assert_eq!(
                base.choose_algorithm(8, inner),
                defaulted.choose_algorithm(8, inner),
                "inner = {inner}"
            );
        }
        // ...while a measured swap weight moves at least one crossover.
        let flipped = (0..=4096usize)
            .any(|inner| base.choose_algorithm(8, inner) != weighted.choose_algorithm(8, inner));
        assert!(flipped, "swap-heavy calibration must move a plan choice");
    }

    #[test]
    fn batched_invocation_replays_sequential_invocations() {
        let steps: Vec<StepInputs> = (1..=6u64)
            .map(|t| StepInputs {
                delta_left: batch(Relation::Left, t, &[(t * 2, (t % 3) as u32, t as u32)], 3),
                delta_right: Some(batch(
                    Relation::Right,
                    t,
                    &[(t * 2 + 1, ((t + 1) % 3) as u32, t as u32 + 1)],
                    3,
                )),
                full_right_len: 3 * t as usize,
                full_left_len: 3 * t as usize,
            })
            .collect();

        // Sequential per-step execution.
        let mut ctx_a = TwoPartyContext::new(8, CostModel::default());
        let mut seq = TransformProtocol::new(view_def(), 1, 10, None);
        let mut seq_delta: Vec<PlainRecord> = Vec::new();
        let mut seq_entries = 0;
        for s in &steps {
            let out = seq.invoke(
                &mut ctx_a,
                &s.delta_left,
                s.delta_right.as_ref(),
                s.full_right_len,
                s.full_left_len,
            );
            seq_entries += out.new_entries;
            seq_delta.extend(out.delta.recover_all());
        }

        // One batched invocation over the same six steps.
        let mut ctx_b = TwoPartyContext::new(8, CostModel::default());
        let mut batched =
            TransformProtocol::new(view_def(), 1, 10, None).with_join_plan(JoinPlanMode::Adaptive);
        let out = batched.invoke_batched(&mut ctx_b, &steps);

        assert_eq!(out.steps_covered, 6);
        assert_eq!(out.new_entries, seq_entries);
        assert_eq!(out.delta.recover_all(), seq_delta, "identical ΔV plaintext");
        assert_eq!(batched.active_counts(), seq.active_counts());
        assert_eq!(batched.truncation_losses(), seq.truncation_losses());
        assert_eq!(
            ctx_a.recover_named(CARDINALITY_SHARE),
            ctx_b.recover_named(CARDINALITY_SHARE),
            "identical counter state"
        );
    }
}
