//! Replication-aware extension of the Theorem-3 evaluator: exact expected
//! makespan when each task's block runs redundantly on a replica set of a
//! heterogeneous platform ([`dagchkpt_failure::HeteroPlatform`]).
//!
//! # Model
//!
//! Task `T_i` executes its block `X_i` (recovery plan + work + optional
//! checkpoint) simultaneously on a **replica set** — a subset of the
//! platform's processors (any subset — which is what per-task replica
//! *selection* optimizes over; a static replication *degree* `r_i` is the
//! fastest-first prefix `[0, …, r_i − 1]`, see [`prefix_sets`]).
//! Replica `p` needs
//!
//! ```text
//! d_p = (W + w_i)/s_p + R/ρ_p + δ_i c_i/ω_p
//! ```
//!
//! seconds (rework and work scaled by its speed `s_p`, recovery reads by
//! its read bandwidth `ρ_p`, the checkpoint write by its write bandwidth
//! `ω_p`) and draws its first fault `F_p ~ Exp(λ_p)`, independently, with
//! the fault clock renewed at every attempt start. The **first surviving
//! replica wins**: the attempt succeeds at `min{d_p : F_p ≥ d_p}`. When
//! *every* replica faults before finishing (a *group failure*, probability
//! `q = Π_p (1 − e^{−λ_p d_p})`), the attempt is abandoned when its last
//! replica dies (`max_p F_p`), memory is wiped, the platform pays the
//! downtime `D`, and the block restarts with the full-closure recovery —
//! exactly the paper's fault semantics lifted from one machine to a
//! replica group.
//!
//! # Why Theorem 3 survives
//!
//! The `Z^i_k` partition ("the last *memory wipe* happened during `X_k`")
//! is untouched: only group failures wipe memory, attempts are independent
//! by construction, and the two ingredients of the homogeneous assembly
//! generalize cleanly:
//!
//! * the survival factor `e^{−λ S(j,k)}` of property A becomes the
//!   first-attempt success probability `1 − q_{j,k}`;
//! * the conditional block expectation `E[t(a + w_i; c_i; b − a)]` of
//!   property C becomes a first-attempt/retry recursion over per-attempt
//!   statistics: with `M(x)` the unconditional mean elapsed time of one
//!   attempt with content `x` and `q_x` its group-failure probability,
//!
//!   ```text
//!   E[X_i | Z^i_k] = M(a) + q_a · (D + E_retry),
//!   E_retry        = (M(b) + q_b · D) / (1 − q_b).
//!   ```
//!
//! `M(x) = N_s + N_f` splits into the success part
//! `N_s = Σ_p d_p e^{−λ_p d_p} Π_{p' ≺ p} (1 − e^{−λ_{p'} d_{p'}})`
//! (replicas ordered by completion time) and the group-failure part
//! `N_f = E[max_p F_p ; all fail]`, computed in closed form by
//! inclusion–exclusion over the (≤ 2^r-term) expansion of
//! `Π_p (1 − e^{−λ_p t})` on each segment between sorted `d_p`.
//!
//! # The replica-degree cap (why no `O(r²)` recurrence)
//!
//! `N_f = ∫_0^{d_max} [q − Π_p P(F_p ≤ min(t, d_p))] dt` integrates a
//! product of `r` *truncated-exponential* CDFs with (in general) pairwise
//! distinct rates `λ_p` and distinct truncation points `d_p`. The exact
//! antiderivative of such a product is a sum of exponentials `e^{−Λ_S t}`
//! over **subset rate-sums** `Λ_S = Σ_{p∈S} λ_p`; with distinct rates the
//! `2^r` values `Λ_S` are pairwise distinct, so no pair of terms merges
//! and no lower-order (e.g. `O(r²)`) recurrence can reproduce the exact
//! value — the telescoping that makes `E[max]` of *identical* exponentials
//! `O(r)` (harmonic sums) relies precisely on coinciding rates. The closed
//! form is therefore inherently `Θ(2^r)`, and the cap is **validated, not
//! silently clamped**: the scenario layer rejects degrees above
//! [`MAX_REPLICATION_DEGREE`] at spec validation with an explicit error
//! (`tests` pin the text), and this module asserts the hard `u32`-mask
//! bound of 32 replicas loudly rather than overflowing.
//!
//! # One engine
//!
//! Replica groups are priced through the same stateful Theorem-3 engine as
//! the paper's machine ([`super::SweepEvaluator`]): a replica-group pricing
//! supplies the property-A factor `1 − q_{j,k}` (in pool order), the
//! first-attempt statistics `(q, M)` of every entry and the retry term
//! `E_retry` of every row, and the shared assembly adds
//! `P(Z^i_k)·(M + q·(D + E_retry))`. Every [`ReplicatedEvaluator::evaluate`]
//! is the first call of a fresh engine. A [`ReplicatedSweep`] keeps one
//! engine across checkpoint sets, replica-set moves (which re-price the
//! moved task's row) and tier moves (which also rerun the recovery passes
//! that read the task's recovery cost), each call bit for bit equal to a
//! fresh evaluation.
//!
//! On a **degenerate** assignment (one reference processor, every set
//! `[0]`, unit storage tiers) the engine runs the exponential pricing of
//! [`crate::evaluator::evaluate`], so the homogeneous results are
//! reproduced bit for bit; the replica-group formulas agree with
//! Equation (1) to floating-point accuracy (see the tests).

use super::sweep::{tri, BlockPricing, ExpPricing, SweepEvaluator};
use super::EvalReport;
use crate::model::Workflow;
use crate::schedule::Schedule;
use dagchkpt_dag::{FixedBitSet, NodeId};
use dagchkpt_failure::{HeteroPlatform, Processor, StorageHierarchy};

/// Replication degrees above this are rejected at scenario validation: the
/// exact failed-attempt closed form enumerates `2^r` inclusion–exclusion
/// terms (see the module docs for why no `O(r²)` recurrence exists).
pub const MAX_REPLICATION_DEGREE: usize = 8;

/// One replica's view of a block attempt.
#[derive(Debug, Clone, Copy)]
struct Replica {
    lambda: f64,
    d: f64,
}

/// Probability that an attempt fails on every replica:
/// `q = Π_p (1 − e^{−λ_p d_p})`, in pool order (the property-A product).
fn group_fail_prob(reps: &[Replica]) -> f64 {
    reps.iter().map(|r| -(-r.lambda * r.d).exp_m1()).product()
}

/// `(q, M)`: group-failure probability and unconditional mean elapsed time
/// of one attempt (success wins at the first surviving completion, failure
/// ends when the last replica dies).
fn attempt_stats(reps: &mut [Replica]) -> (f64, f64) {
    // The inclusion–exclusion below enumerates subsets through a u32 mask;
    // a silent shift-masking overflow at ≥ 32 replicas would corrupt the
    // result, so fail loudly (the scenario layer caps degrees at
    // MAX_REPLICATION_DEGREE long before this, purely for cost).
    assert!(
        reps.len() < 32,
        "replication degree must be < 32 (got {})",
        reps.len()
    );
    // Completion order: earliest deterministic finish first (ties are
    // interchangeable — the elapsed time is the same either way).
    // `total_cmp`: durations may carry storage-tier read/write factors,
    // and a total order keeps the sort deterministic (and panic-free)
    // even if a rogue NaN ever reaches it.
    reps.sort_by(|a, b| a.d.total_cmp(&b.d));
    // Stack scratch: the assert above bounds the group size.
    let (mut surv, mut fail) = ([0.0f64; 32], [0.0f64; 32]);
    for (p, r) in reps.iter().enumerate() {
        surv[p] = (-r.lambda * r.d).exp();
        fail[p] = -(-r.lambda * r.d).exp_m1();
    }
    let (surv, fail) = (&surv[..reps.len()], &fail[..reps.len()]);
    let q: f64 = fail.iter().product();

    // N_s = Σ_p d_p · surv_p · Π_{p' ≺ p} fail_{p'}.
    let mut n_s = 0.0;
    let mut prefix = 1.0;
    for (p, r) in reps.iter().enumerate() {
        n_s += r.d * surv[p] * prefix;
        prefix *= fail[p];
    }
    if q == 0.0 {
        // Some replica never faults: a group failure is impossible.
        return (0.0, n_s);
    }

    // N_f = ∫_0^{d_max} [q − Π_p P(F_p ≤ min(t, d_p))] dt, segment by
    // segment between sorted d_p. On a segment (lo, hi] replicas with
    // d ≤ lo contribute their frozen fail probability (`done`), the rest
    // expand by inclusion–exclusion: Π_{p∈A}(1 − e^{−λ_p t}) =
    // Σ_{S⊆A} (−1)^{|S|} e^{−Λ_S t}.
    let mut n_f = 0.0;
    let mut done = 1.0;
    let mut lo = 0.0;
    let mut j = 0;
    while j < reps.len() {
        let hi = reps[j].d;
        if hi > lo {
            let active = &reps[j..];
            let mut integral = 0.0;
            for mask in 0u32..(1 << active.len()) {
                let bits = mask.count_ones();
                let lam: f64 = active
                    .iter()
                    .enumerate()
                    .filter(|(idx, _)| mask >> idx & 1 == 1)
                    .map(|(_, r)| r.lambda)
                    .sum();
                let seg = if lam == 0.0 {
                    hi - lo
                } else {
                    ((-lam * lo).exp() - (-lam * hi).exp()) / lam
                };
                integral += if bits % 2 == 0 { seg } else { -seg };
            }
            n_f += q * (hi - lo) - done * integral;
            lo = hi;
        }
        // Freeze every replica completing exactly at `hi`.
        while j < reps.len() && reps[j].d == hi {
            done *= fail[j];
            j += 1;
        }
    }
    (q, n_s + n_f.max(0.0))
}

/// Normalizes one replica set against a `n_procs`-processor pool: indices
/// clamped into range, deduplicated, sorted ascending (the platform's
/// canonical fastest-first order — a degree-`r` prefix normalizes to
/// `[0, 1, …, r−1]`). An empty or fully out-of-range set falls back to the
/// best processor, `[0]`.
pub fn normalize_replica_set(set: &[usize], n_procs: usize) -> Vec<usize> {
    let mut out: Vec<usize> = set.iter().copied().filter(|&p| p < n_procs).collect();
    out.sort_unstable();
    out.dedup();
    if out.is_empty() {
        out.push(0);
    }
    out
}

/// Fastest-first prefix replica sets of per-task replication `degrees`:
/// degree `d` becomes `[0, 1, …, d′ − 1]` with `d′ = d` clamped to
/// `[1, n_procs]`. The one conversion from the static degree shape to
/// replica sets — every degree-taking entry point goes through it.
pub fn prefix_sets(degrees: &[usize], n_procs: usize) -> Vec<Vec<usize>> {
    degrees
        .iter()
        .map(|&d| (0..d.clamp(1, n_procs.max(1))).collect())
        .collect()
}

/// Number of processor/injector ranks a replica assignment needs: one per
/// processor index up to the largest any set uses (1 for an all-empty
/// assignment — normalization never produces one). Shared by the analytic
/// evaluator's callers, the Monte-Carlo `*_sets` engines, and the
/// campaign layer, so the rank convention cannot drift between them.
pub fn replica_rank_count<S: AsRef<[usize]>>(sets: &[S]) -> usize {
    sets.iter()
        .flat_map(|s| s.as_ref().iter().copied())
        .max()
        .map_or(1, |m| m + 1)
}

/// The replica-group pricing of a Theorem-3 block (see the module docs):
/// per entry `(i, k)` the pool-order survival `1 − q` of property A and the
/// sorted-order first-attempt statistics `(q, M)`, per row the retry
/// attempts' `(q_b, E_retry)`. The two `q`s are the same probability
/// accumulated in different floating-point orders; both are kept so every
/// path reproduces one arithmetic bit for bit.
pub(crate) struct ReplicaPricing<'a> {
    procs: &'a [Processor],
    downtime: f64,
    /// Per position (1-based, index 0 unused): work, checkpoint cost, the
    /// write factor of the task's tier, and its replica set.
    w: Vec<f64>,
    c: Vec<f64>,
    write_factor: Vec<f64>,
    sets: Vec<Vec<usize>>,
    /// `1 − q` in pool order for `k < i < n`.
    survival: Vec<f64>,
    /// `(q, M)` of the first attempt for `k < i`.
    stats: Vec<(f64, f64)>,
    /// `(q_b, E_retry)` per row: retries always pay the full closure.
    retry: Vec<(f64, f64)>,
    /// Scratch replica views of one attempt.
    reps: Vec<Replica>,
}

impl ReplicaPricing<'_> {
    /// Fills `reps` with the replica views of position `i`'s block with
    /// rework `wk`, recovery `rk` and (iff `ckpt`) the task's checkpoint
    /// write.
    fn group(&mut self, i: usize, ckpt: bool, (wk, rk): (f64, f64)) {
        let w = self.w[i];
        let write = if ckpt { self.c[i] } else { 0.0 };
        // The tier's write factor composes multiplicatively with the
        // per-processor bandwidth factor; without a hierarchy it is
        // exactly 1.0, which IEEE multiplication leaves bit-identical.
        // Recovery reads need no factor here — `rk` sums storage-priced
        // recovery costs.
        let w_fac = self.write_factor[i];
        let procs = self.procs;
        self.reps.clear();
        self.reps.extend(self.sets[i].iter().map(|&p| {
            let p = &procs[p];
            Replica {
                lambda: p.lambda,
                d: (wk + w) / p.speed + rk / p.read_bw + write * w_fac / p.write_bw,
            }
        }));
    }
}

impl BlockPricing for ReplicaPricing<'_> {
    /// `(W^i_k, R^i_k)`: replicas scale rework by speed and recovery by
    /// read bandwidth, so the two stay apart.
    type Lost = (f64, f64);

    fn lost(w: f64, r: f64) -> (f64, f64) {
        (w, r)
    }

    fn differ(a: (f64, f64), b: (f64, f64)) -> bool {
        a.0.to_bits() != b.0.to_bits() || a.1.to_bits() != b.1.to_bits()
    }

    fn allocate(&mut self, cells: usize) {
        self.survival = vec![0.0; cells];
        self.stats = vec![(0.0, 0.0); cells];
    }

    fn price_diagonal(&mut self, i: usize, ckpt: bool, row: &[(f64, f64)]) {
        self.group(i, ckpt, row[i]);
        let (q_b, mean_b) = attempt_stats(&mut self.reps);
        let e_retry = if q_b >= 1.0 {
            f64::INFINITY
        } else {
            (mean_b + q_b * self.downtime) / (1.0 - q_b)
        };
        self.retry[i] = (q_b, e_retry);
    }

    fn price_entry(&mut self, i: usize, k: usize, ckpt: bool, row: &[(f64, f64)], _: bool) {
        self.group(i, ckpt, row[k]);
        // Pool-order product before `attempt_stats` sorts the replicas;
        // row n feeds no later row.
        if i + 1 < self.w.len() {
            self.survival[tri(i, k)] = 1.0 - group_fail_prob(&self.reps);
        }
        self.stats[tri(i, k)] = attempt_stats(&mut self.reps);
    }

    #[inline]
    fn survival(&self, idx: usize) -> f64 {
        self.survival[idx]
    }

    /// `E[X_i | Z^i_k] = M(a) + q_a·(D + E_retry)`; group failures
    /// (memory wipes) `q_a / (1 − q_b)`.
    #[inline]
    fn block(&self, i: usize, idx: usize, p: f64) -> (f64, f64) {
        let (q_b, e_retry) = self.retry[i];
        let (q_a, mean_a) = self.stats[idx];
        let wipes = if q_b >= 1.0 {
            if q_a > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            q_a / (1.0 - q_b)
        };
        (p * (mean_a + q_a * (self.downtime + e_retry)), p * wipes)
    }
}

/// The stateful engine behind a replicated evaluation: the paper's machine
/// on a degenerate assignment (bit for bit the homogeneous evaluator), the
/// replica-group pricing otherwise.
pub(crate) enum Engine<'a> {
    Machine(SweepEvaluator<'a>),
    Groups(SweepEvaluator<'a, ReplicaPricing<'a>>),
}

impl Engine<'_> {
    pub(crate) fn evaluate(&mut self, ckpt: &FixedBitSet) -> EvalReport {
        match self {
            Engine::Machine(ev) => ev.evaluate(ckpt),
            Engine::Groups(ev) => ev.evaluate(ckpt),
        }
    }
}

/// Replication-aware Theorem-3 evaluator over per-task **replica sets**
/// (see the module docs). Construct once per (platform × assignment), then
/// evaluate candidate schedules: as an [`crate::Objective`] it prices each
/// sweep run on one engine, and [`Self::sweep`] keeps one engine across
/// replica-set and tier moves.
pub struct ReplicatedEvaluator<'a> {
    wf: &'a Workflow,
    platform: &'a HeteroPlatform,
    sets: Vec<Vec<usize>>,
    storage: Option<StorageAssignment<'a>>,
}

/// A checkpoint storage hierarchy plus the per-task tier each task writes
/// its checkpoint to (and recovers from).
struct StorageAssignment<'a> {
    hierarchy: &'a StorageHierarchy,
    tiers: Vec<usize>,
}

impl<'a> ReplicatedEvaluator<'a> {
    /// Evaluator over explicit per-task replica sets (processor indices
    /// into `platform.procs()`, one set per task id). Sets are normalized
    /// with [`normalize_replica_set`].
    pub fn from_sets(wf: &'a Workflow, platform: &'a HeteroPlatform, sets: &[Vec<usize>]) -> Self {
        assert_eq!(sets.len(), wf.n_tasks(), "one replica set per task");
        let n_procs = platform.n_procs();
        ReplicatedEvaluator {
            wf,
            platform,
            sets: sets
                .iter()
                .map(|s| normalize_replica_set(s, n_procs))
                .collect(),
            storage: None,
        }
    }

    /// Evaluator over the [`prefix_sets`] of per-task replication
    /// `degrees` (the [`crate::ReplicationStrategy`] shape).
    pub fn from_degrees(wf: &'a Workflow, platform: &'a HeteroPlatform, degrees: &[usize]) -> Self {
        Self::from_sets(wf, platform, &prefix_sets(degrees, platform.n_procs()))
    }

    /// The normalized per-task replica sets.
    pub fn sets(&self) -> &[Vec<usize>] {
        &self.sets
    }

    /// The platform the replica sets index into.
    pub fn platform(&self) -> &'a HeteroPlatform {
        self.platform
    }

    /// Attaches a checkpoint storage hierarchy and a per-task tier
    /// assignment: task `t` writes its checkpoint to
    /// `hierarchy.tiers()[tiers[t]]`, so its checkpoint cost is priced at
    /// that tier's write factor (including replica-write contention) and
    /// every later recovery *read of that checkpoint* at its read factor
    /// (per-source pricing — the image is read back from the tier it was
    /// written to, exactly what the Monte-Carlo engines simulate on
    /// [`Workflow::with_scaled_costs`] copies). Tier indices are clamped
    /// into the hierarchy. A unit hierarchy scales every cost by exactly
    /// `1.0`, so results stay bit-identical to the scalar cost model.
    pub fn with_storage(mut self, hierarchy: &'a StorageHierarchy, tiers: &[usize]) -> Self {
        assert_eq!(tiers.len(), self.wf.n_tasks(), "one storage tier per task");
        let cap = hierarchy.n_tiers() - 1;
        let tiers = tiers.iter().map(|&t| t.min(cap)).collect();
        self.storage = Some(StorageAssignment { hierarchy, tiers });
        self
    }

    /// The per-task tier assignment, if a storage hierarchy is attached.
    pub fn tiers(&self) -> Option<&[usize]> {
        self.storage.as_ref().map(|s| s.tiers.as_slice())
    }

    /// The attached storage hierarchy, if any.
    pub fn hierarchy(&self) -> Option<&'a StorageHierarchy> {
        self.storage.as_ref().map(|s| s.hierarchy)
    }

    /// Moves task `t`'s checkpoint to `tier` — the storage analogue of
    /// [`Self::set_replicas`].
    ///
    /// # Panics
    ///
    /// If no hierarchy is attached ([`Self::with_storage`]) or `tier` is
    /// out of range.
    pub fn set_tier(&mut self, task: usize, tier: usize) {
        let s = self
            .storage
            .as_mut()
            .expect("set_tier requires with_storage");
        assert!(tier < s.hierarchy.n_tiers(), "tier {tier} out of range");
        s.tiers[task] = tier;
    }

    /// Write-cost multiplier of task `t`'s assigned tier (`1.0` without a
    /// hierarchy), including the contention of `t`'s replica-set size
    /// writing concurrently.
    fn write_factor(&self, t: usize) -> f64 {
        match &self.storage {
            None => 1.0,
            Some(s) => s.hierarchy.tiers()[s.tiers[t]].write_factor(self.sets[t].len()),
        }
    }

    /// Task `t`'s recovery cost, priced at the read factor of the tier its
    /// checkpoint was written to.
    fn recovery_cost(&self, t: usize) -> f64 {
        let r = self.wf.recovery_cost(NodeId::from(t));
        match &self.storage {
            None => r,
            Some(s) => r * s.hierarchy.tiers()[s.tiers[t]].read_factor(),
        }
    }

    /// Replaces task `t`'s replica set (normalized).
    pub fn set_replicas(&mut self, task: usize, set: &[usize]) {
        self.sets[task] = normalize_replica_set(set, self.platform.n_procs());
    }

    /// Always 0: evaluations keep no attempt-statistics cache. Kept for
    /// callers that still report it.
    pub fn cached_entries(&self) -> usize {
        0
    }

    /// `true` when the assignment is the paper's machine (single reference
    /// processor, every set `[0]`, and any attached storage tier the
    /// identity — a non-unit tier must run the group pricing to price its
    /// factors).
    fn is_degenerate(&self) -> bool {
        self.platform.is_degenerate()
            && self.sets.iter().all(|s| s == &[0])
            && self
                .storage
                .as_ref()
                .is_none_or(|s| s.tiers.iter().all(|&t| s.hierarchy.tiers()[t].is_unit()))
    }

    /// A fresh engine for the linearization `order` under the current
    /// assignment.
    pub(crate) fn engine<'o>(&self, order: &'o [NodeId]) -> Engine<'o>
    where
        'a: 'o,
    {
        let rec = (0..self.wf.n_tasks())
            .map(|t| self.recovery_cost(t))
            .collect();
        if self.is_degenerate() {
            let pricing = ExpPricing::new(self.wf, self.platform.fault_model(), order);
            return Engine::Machine(SweepEvaluator::with_pricing(self.wf, order, rec, pricing));
        }
        let n = order.len();
        let mut pricing = ReplicaPricing {
            procs: self.platform.procs(),
            downtime: self.platform.downtime(),
            w: vec![0.0; n + 1],
            c: vec![0.0; n + 1],
            write_factor: vec![0.0; n + 1],
            sets: vec![Vec::new(); n + 1],
            survival: Vec::new(),
            stats: Vec::new(),
            retry: vec![(0.0, 0.0); n + 1],
            reps: Vec::new(),
        };
        for (idx, &t) in order.iter().enumerate() {
            let i = idx + 1;
            pricing.w[i] = self.wf.work(t);
            pricing.c[i] = self.wf.checkpoint_cost(t);
            pricing.write_factor[i] = self.write_factor(t.index());
            pricing.sets[i] = self.sets[t.index()].clone();
        }
        Engine::Groups(SweepEvaluator::with_pricing(self.wf, order, rec, pricing))
    }

    /// A stateful evaluator over the linearization `order` that keeps one
    /// engine across checkpoint sets and the replica-set and tier moves
    /// made through it (which update this evaluator too).
    pub fn sweep<'e>(&'e mut self, order: &'e [NodeId]) -> ReplicatedSweep<'e, 'a> {
        let engine = self.engine(order);
        ReplicatedSweep {
            ev: self,
            order,
            engine,
        }
    }

    /// Expected makespan of `schedule` (see [`Self::evaluate`]).
    pub fn expected_makespan(&self, schedule: &Schedule) -> f64 {
        self.evaluate(schedule).expected_makespan
    }

    /// Full replication-aware evaluation (Theorem 3 generalized to replica
    /// groups — see the module docs). `expected_faults` counts **group
    /// failures** (memory wipes), the event the Monte-Carlo engines report
    /// as `n_faults`.
    pub fn evaluate(&self, schedule: &Schedule) -> EvalReport {
        self.engine(schedule.order())
            .evaluate(schedule.checkpoints())
    }
}

/// A [`ReplicatedEvaluator`] held with one stateful engine over a fixed
/// linearization ([`ReplicatedEvaluator::sweep`]). Every call returns the
/// bits of a fresh [`ReplicatedEvaluator::evaluate`]: a replica-set move
/// re-prices only the moved task's row, a tier move also reruns the
/// recovery passes that read the task's recovery cost, and a move that
/// enters or leaves the degenerate assignment switches to a fresh engine
/// of the other pricing.
pub struct ReplicatedSweep<'e, 'a> {
    ev: &'e mut ReplicatedEvaluator<'a>,
    order: &'e [NodeId],
    engine: Engine<'e>,
}

impl<'a> ReplicatedSweep<'_, 'a> {
    /// The evaluator, with every move made so far.
    pub fn evaluator(&self) -> &ReplicatedEvaluator<'a> {
        self.ev
    }

    /// Full evaluation report with the task-indexed checkpoint set `ckpt`.
    pub fn evaluate(&mut self, ckpt: &FixedBitSet) -> EvalReport {
        self.sync();
        self.engine.evaluate(ckpt)
    }

    /// [`ReplicatedEvaluator::set_replicas`], re-pricing one row.
    pub fn set_replicas(&mut self, task: usize, set: &[usize]) {
        self.ev.set_replicas(task, set);
        if let Engine::Groups(sweep) = &mut self.engine {
            let (i, pricing) = sweep.reprice(task);
            pricing.sets[i].clone_from(&self.ev.sets[task]);
            pricing.write_factor[i] = self.ev.write_factor(task);
        }
    }

    /// [`ReplicatedEvaluator::set_tier`]: the task's row is re-priced and
    /// the passes that read its recovery cost rerun.
    pub fn set_tier(&mut self, task: usize, tier: usize) {
        self.ev.set_tier(task, tier);
        let cost = self.ev.recovery_cost(task);
        match &mut self.engine {
            Engine::Machine(sweep) => sweep.set_recovery(task, cost),
            Engine::Groups(sweep) => {
                let (i, pricing) = sweep.reprice(task);
                pricing.write_factor[i] = self.ev.write_factor(task);
                sweep.set_recovery(task, cost);
            }
        }
    }

    /// Switches to a fresh engine of the other pricing when a move entered
    /// or left the degenerate assignment.
    fn sync(&mut self) {
        if matches!(self.engine, Engine::Machine(_)) != self.ev.is_degenerate() {
            self.engine = self.ev.engine(self.order);
        }
    }
}

/// Expected makespan of `schedule` on `platform` with per-task replication
/// `degrees` (indexed by task id, clamped to `[1, n_procs]`).
pub fn expected_makespan_replicated(
    wf: &Workflow,
    platform: &HeteroPlatform,
    schedule: &Schedule,
    degrees: &[usize],
) -> f64 {
    let sets = prefix_sets(degrees, platform.n_procs());
    evaluate_replicated_sets(wf, platform, schedule, &sets).expected_makespan
}

/// Full replication-aware evaluation over explicit per-task replica
/// `sets` (processor indices into `platform.procs()`) — the one-shot
/// entry point ([`ReplicatedEvaluator::sweep`] is the amortized one).
///
/// # Panics
///
/// If `sets.len() != wf.n_tasks()`, or if a set reaches 32 replicas (the
/// failed-attempt closed form enumerates subsets through a 32-bit mask;
/// the scenario layer caps degrees at [`MAX_REPLICATION_DEGREE`] anyway).
pub fn evaluate_replicated_sets(
    wf: &Workflow,
    platform: &HeteroPlatform,
    schedule: &Schedule,
    sets: &[Vec<usize>],
) -> EvalReport {
    ReplicatedEvaluator::from_sets(wf, platform, sets).evaluate(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator;
    use crate::model::{CostRule, TaskCosts};
    use crate::strategies::ReplicationStrategy;
    use dagchkpt_dag::{generators, topo, FixedBitSet, NodeId};
    use dagchkpt_failure::{FaultModel, Processor};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn single(lambda: f64, downtime: f64) -> HeteroPlatform {
        HeteroPlatform::homogeneous(1, lambda, downtime).unwrap()
    }

    fn fig1_schedule() -> (Workflow, Schedule) {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let order = topo::topological_order(wf.dag());
        let ckpt = FixedBitSet::from_indices(8, [1usize, 3, 6]);
        let s = Schedule::new(&wf, order, ckpt).unwrap();
        (wf, s)
    }

    /// Degenerate platform + degree 1 delegates: the report is **bit
    /// identical** to the homogeneous evaluator.
    #[test]
    fn degenerate_platform_delegates_bit_for_bit() {
        let (wf, s) = fig1_schedule();
        let platform = single(3e-3, 1.5);
        let hom = evaluator::evaluate(&wf, FaultModel::new(3e-3, 1.5), &s);
        let rep = ReplicatedEvaluator::from_degrees(&wf, &platform, &[1; 8]).evaluate(&s);
        assert_eq!(
            rep.expected_makespan.to_bits(),
            hom.expected_makespan.to_bits()
        );
        assert_eq!(rep.expected_faults.to_bits(), hom.expected_faults.to_bits());
        for (a, b) in rep.per_position.iter().zip(hom.per_position.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The one-shot set API delegates identically.
        let via_sets = evaluate_replicated_sets(&wf, &platform, &s, &vec![vec![0]; 8]);
        assert_eq!(
            via_sets.expected_makespan.to_bits(),
            hom.expected_makespan.to_bits()
        );
    }

    /// The non-delegated group formulas reduce to Equation (1) for a single
    /// reference replica (the recursion is an algebraic rearrangement).
    #[test]
    fn single_replica_formulas_match_equation_one() {
        let (wf, s) = fig1_schedule();
        // Two identical processors, degree 1 everywhere: the replica set is
        // one reference processor, but the platform is *not* degenerate, so
        // the group recursion runs.
        let platform = HeteroPlatform::new(vec![Processor::reference(4e-3); 2], 2.0).unwrap();
        let rep = evaluate_replicated_sets(&wf, &platform, &s, &vec![vec![0]; 8]);
        let hom = evaluator::evaluate(&wf, FaultModel::new(4e-3, 2.0), &s);
        let rel = (rep.expected_makespan - hom.expected_makespan).abs() / hom.expected_makespan;
        assert!(
            rel < 1e-12,
            "group {} vs Eq.(1) {}",
            rep.expected_makespan,
            hom.expected_makespan
        );
        let frel = (rep.expected_faults - hom.expected_faults).abs() / hom.expected_faults;
        assert!(frel < 1e-12);
        for (a, b) in rep.per_position.iter().zip(hom.per_position.iter()) {
            assert!((a - b).abs() <= 1e-12 * b.max(1.0));
        }
    }

    /// Single replicated task: the analytic value matches a direct
    /// Monte-Carlo simulation of the group-attempt process.
    #[test]
    fn two_heterogeneous_replicas_match_direct_simulation() {
        let wf = Workflow::new(generators::chain(1), vec![TaskCosts::new(40.0, 6.0, 3.0)]);
        let s = Schedule::always(&wf, vec![NodeId(0)]).unwrap();
        let procs = vec![
            Processor {
                speed: 2.0,
                lambda: 8e-3,
                ..Processor::reference(8e-3)
            },
            Processor {
                speed: 1.0,
                lambda: 2e-3,
                ..Processor::reference(2e-3)
            },
        ];
        let downtime = 4.0;
        let platform = HeteroPlatform::new(procs.clone(), downtime).unwrap();
        let analytic = expected_makespan_replicated(&wf, &platform, &s, &[2]);

        // Direct simulation of the attempt loop (content w + c, replicas
        // redraw their fault per attempt, success = first surviving d).
        let mut rng = SmallRng::seed_from_u64(0x5E17AB);
        let trials = 400_000;
        let mut sum = 0.0f64;
        let sorted = platform.procs();
        for _ in 0..trials {
            let mut t = 0.0f64;
            loop {
                let mut best: Option<f64> = None;
                let mut max_f = 0.0f64;
                for p in sorted {
                    // Work scaled by speed, the write by write_bw (= 1).
                    let d = 40.0 / p.speed + 6.0;
                    let u: f64 = rng.gen_range(0.0..1.0f64);
                    let f = -(1.0 - u).ln() / p.lambda;
                    if f >= d {
                        best = Some(best.map_or(d, |b: f64| b.min(d)));
                    } else if f > max_f {
                        max_f = f;
                    }
                }
                match best {
                    Some(d) => {
                        t += d;
                        break;
                    }
                    None => t += max_f + downtime,
                }
            }
            sum += t;
        }
        let mc = sum / trials as f64;
        let rel = (mc - analytic).abs() / analytic;
        assert!(rel < 0.01, "MC {mc} vs analytic {analytic} (rel {rel})");
    }

    /// More replicas of the same processor never hurt; a fault-free replica
    /// pins the expectation at the deterministic minimum.
    #[test]
    fn replication_monotonicity_and_fault_free_floor() {
        let (wf, s) = fig1_schedule();
        let mut last = f64::INFINITY;
        for count in 1..=4usize {
            let platform = HeteroPlatform::homogeneous(4, 6e-3, 1.0).unwrap();
            let e = expected_makespan_replicated(&wf, &platform, &s, &[count; 8]);
            assert!(
                e <= last + 1e-9 * e,
                "degree {count}: {e} worse than {last}"
            );
            assert!(e.is_finite() && e > 0.0);
            last = e;
        }
        // A replica that never faults caps every block at its failure-free
        // duration: the total is the failure-free time.
        let platform = HeteroPlatform::new(
            vec![Processor::reference(5e-3), Processor::reference(0.0)],
            1.0,
        )
        .unwrap();
        let e = expected_makespan_replicated(&wf, &platform, &s, &[2; 8]);
        let floor: f64 = wf.total_work()
            + s.checkpoints()
                .iter()
                .map(|i| wf.checkpoint_cost(NodeId::from(i)))
                .sum::<f64>();
        assert!((e - floor).abs() <= 1e-9 * floor, "e {e} vs floor {floor}");
    }

    /// Degrees from the strategy family plug straight in; clamping keeps
    /// oversubscribed degrees legal.
    #[test]
    fn strategy_degrees_integrate_and_clamp() {
        let (wf, s) = fig1_schedule();
        let platform = HeteroPlatform::homogeneous(3, 5e-3, 0.0).unwrap();
        let d_all = ReplicationStrategy::Uniform { degree: 9 }.degrees(&wf, platform.n_procs());
        assert!(d_all.iter().all(|&d| d == 3));
        let e_all = expected_makespan_replicated(&wf, &platform, &s, &d_all);
        let d_heavy = ReplicationStrategy::Heaviest {
            degree: 3,
            count: 3,
        }
        .degrees(&wf, platform.n_procs());
        let e_heavy = expected_makespan_replicated(&wf, &platform, &s, &d_heavy);
        let e_none = expected_makespan_replicated(
            &wf,
            &platform,
            &s,
            &ReplicationStrategy::None.degrees(&wf, platform.n_procs()),
        );
        assert!(e_all <= e_heavy + 1e-9 * e_all);
        assert!(e_heavy <= e_none + 1e-9 * e_none);
    }

    /// Faster processors shrink the makespan proportionally in the
    /// fault-free limit.
    #[test]
    fn speed_scales_fault_free_duration() {
        let wf = Workflow::uniform(generators::chain(3), 10.0, 2.0);
        let order = topo::topological_order(wf.dag());
        let s = Schedule::always(&wf, order).unwrap();
        let fast = HeteroPlatform::new(
            vec![Processor {
                speed: 2.0,
                ..Processor::reference(0.0)
            }],
            0.0,
        )
        .unwrap();
        let e = expected_makespan_replicated(&wf, &fast, &s, &[1, 1, 1]);
        // 30 work / 2 + 6 checkpoints at unit write bandwidth.
        assert!((e - 21.0).abs() < 1e-12, "e = {e}");
        // Bandwidths scale only the checkpoint component.
        let slow_writes = HeteroPlatform::new(
            vec![Processor {
                write_bw: 0.5,
                ..Processor::reference(0.0)
            }],
            0.0,
        )
        .unwrap();
        let e = expected_makespan_replicated(&wf, &slow_writes, &s, &[1, 1, 1]);
        assert!((e - 42.0).abs() < 1e-12, "e = {e}");
    }

    #[test]
    fn empty_workflow_is_zero() {
        let wf = Workflow::uniform(generators::chain(0), 1.0, 0.0);
        let s = Schedule::never(&wf, vec![]).unwrap();
        let platform = HeteroPlatform::homogeneous(2, 1e-3, 0.0).unwrap();
        let rep = evaluate_replicated_sets(&wf, &platform, &s, &[]);
        assert_eq!(rep.expected_makespan, 0.0);
        assert_eq!(rep.expected_faults, 0.0);
    }

    /// Hand-built prefix sets reproduce the degree constructor **bit for
    /// bit** — the anchor that lets per-task selection generalize the
    /// evaluator without touching any golden value.
    #[test]
    fn prefix_sets_are_bit_identical_to_degrees() {
        let (wf, s) = fig1_schedule();
        let platform = HeteroPlatform::new(
            vec![
                Processor {
                    speed: 2.0,
                    ..Processor::reference(6e-3)
                },
                Processor::reference(2e-3),
                Processor {
                    speed: 0.5,
                    ..Processor::reference(1e-3)
                },
            ],
            1.0,
        )
        .unwrap();
        let degrees = [2usize, 1, 3, 2, 1, 3, 2, 1];
        let by_deg = ReplicatedEvaluator::from_degrees(&wf, &platform, &degrees).evaluate(&s);
        let sets: Vec<Vec<usize>> = degrees.iter().map(|&d| (0..d).collect()).collect();
        let by_set = evaluate_replicated_sets(&wf, &platform, &s, &sets);
        assert_eq!(
            by_deg.expected_makespan.to_bits(),
            by_set.expected_makespan.to_bits()
        );
        assert_eq!(
            by_deg.expected_faults.to_bits(),
            by_set.expected_faults.to_bits()
        );
        for (a, b) in by_deg.per_position.iter().zip(by_set.per_position.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// A non-prefix replica set is a genuinely different (and sometimes
    /// better) choice: with a fast-but-flaky rank 0 and a reliable rank 1,
    /// selecting `[1]` alone can beat both the prefix `[0]` and the pair
    /// `[0, 1]` — the reliability-vs-speed trade per-task selection
    /// optimizes over.
    #[test]
    fn non_prefix_sets_change_the_answer() {
        let wf = Workflow::new(generators::chain(1), vec![TaskCosts::new(100.0, 0.0, 0.0)]);
        let s = Schedule::never(&wf, vec![NodeId(0)]).unwrap();
        let platform = HeteroPlatform::new(
            vec![
                Processor {
                    speed: 1.2,
                    ..Processor::reference(5e-2)
                },
                Processor::reference(1e-4),
            ],
            10.0,
        )
        .unwrap();
        let fast_only = evaluate_replicated_sets(&wf, &platform, &s, &[vec![0]]);
        let reliable_only = evaluate_replicated_sets(&wf, &platform, &s, &[vec![1]]);
        let both = evaluate_replicated_sets(&wf, &platform, &s, &[vec![0, 1]]);
        assert!(
            reliable_only.expected_makespan < fast_only.expected_makespan,
            "reliable {} vs fast {}",
            reliable_only.expected_makespan,
            fast_only.expected_makespan
        );
        // The pair is at most as good as its best member plus group-failure
        // drag; all three must be finite and distinct choices.
        assert!(both.expected_makespan.is_finite());
        assert_ne!(
            reliable_only.expected_makespan.to_bits(),
            both.expected_makespan.to_bits()
        );
    }

    /// A unit storage hierarchy (bandwidths 1, compression 1, no
    /// contention) is invisible bit for bit, with and without delegation.
    #[test]
    fn unit_storage_hierarchy_is_bit_identical() {
        use dagchkpt_failure::{StorageHierarchy, StorageTier};
        let (wf, s) = fig1_schedule();
        let h = StorageHierarchy::new(vec![StorageTier::unit("local")]).unwrap();

        // Degenerate platform: the storage-aware evaluator still
        // delegates to the homogeneous evaluator.
        let degenerate = single(3e-3, 1.5);
        let plain = evaluate_replicated_sets(&wf, &degenerate, &s, &vec![vec![0]; 8]);
        let stored = ReplicatedEvaluator::from_degrees(&wf, &degenerate, &[1; 8])
            .with_storage(&h, &[0; 8])
            .evaluate(&s);
        assert_eq!(
            plain.expected_makespan.to_bits(),
            stored.expected_makespan.to_bits()
        );

        // Genuinely heterogeneous platform: factors of exactly 1.0 leave
        // the group recursion's arithmetic untouched.
        let platform = HeteroPlatform::new(
            vec![
                Processor {
                    speed: 1.5,
                    ..Processor::reference(5e-3)
                },
                Processor::reference(2e-3),
            ],
            0.5,
        )
        .unwrap();
        let plain = evaluate_replicated_sets(&wf, &platform, &s, &vec![vec![0, 1]; 8]);
        let stored = ReplicatedEvaluator::from_degrees(&wf, &platform, &[2; 8])
            .with_storage(&h, &[0; 8])
            .evaluate(&s);
        assert_eq!(
            plain.expected_makespan.to_bits(),
            stored.expected_makespan.to_bits()
        );
        assert_eq!(
            plain.expected_faults.to_bits(),
            stored.expected_faults.to_bits()
        );
    }

    /// Tier factors price checkpoints and recoveries as designed: a slow
    /// write tier inflates the fault-free makespan by the checkpoint
    /// volume, a slow read tier only hurts when recoveries happen.
    #[test]
    fn storage_tier_factors_price_writes_and_reads() {
        use dagchkpt_failure::{StorageHierarchy, StorageTier};
        let wf = Workflow::uniform(generators::chain(3), 10.0, 2.0);
        let order = topo::topological_order(wf.dag());
        let s = Schedule::always(&wf, order).unwrap();
        // Fault-free non-degenerate platform so the recursion runs.
        let platform = HeteroPlatform::homogeneous(2, 0.0, 0.0).unwrap();
        let h = StorageHierarchy::new(vec![
            StorageTier {
                name: "slow-writes".to_string(),
                write_bw: 0.5,
                read_bw: 1.0,
                compression: 1.0,
                contention: 0.0,
            },
            StorageTier::unit("ref"),
        ])
        .unwrap();
        // 30 work + 3 checkpoints of 2 at write factor 2 = 42.
        let e = ReplicatedEvaluator::from_degrees(&wf, &platform, &[1; 3])
            .with_storage(&h, &[0; 3])
            .evaluate(&s)
            .expected_makespan;
        assert!((e - 42.0).abs() < 1e-12, "e = {e}");
        // The unit tier prices the same schedule at 36.
        let e = ReplicatedEvaluator::from_degrees(&wf, &platform, &[1; 3])
            .with_storage(&h, &[1; 3])
            .evaluate(&s)
            .expected_makespan;
        assert!((e - 36.0).abs() < 1e-12, "e = {e}");
        // Under faults, a slow *read* tier makes recoveries dearer, so
        // the expectation strictly grows.
        let faulty = HeteroPlatform::homogeneous(2, 5e-2, 1.0).unwrap();
        let slow_reads = StorageHierarchy::new(vec![
            StorageTier {
                name: "slow-reads".to_string(),
                write_bw: 1.0,
                read_bw: 0.25,
                compression: 1.0,
                contention: 0.0,
            },
            StorageTier::unit("ref"),
        ])
        .unwrap();
        let e_slow = ReplicatedEvaluator::from_degrees(&wf, &faulty, &[1; 3])
            .with_storage(&slow_reads, &[0; 3])
            .evaluate(&s)
            .expected_makespan;
        let e_ref = ReplicatedEvaluator::from_degrees(&wf, &faulty, &[1; 3])
            .with_storage(&slow_reads, &[1; 3])
            .evaluate(&s)
            .expected_makespan;
        assert!(e_slow > e_ref, "slow reads {e_slow} vs ref {e_ref}");
    }

    /// Replica-write contention: the same tier prices a wider replica set
    /// with a strictly larger write factor, and evaluating after
    /// `set_tier` matches an evaluator built on the new tiers.
    #[test]
    fn contention_and_set_tier_cache_invalidation() {
        use dagchkpt_failure::{StorageHierarchy, StorageTier};
        let (wf, s) = fig1_schedule();
        let platform = HeteroPlatform::homogeneous(3, 4e-3, 1.0).unwrap();
        let h = StorageHierarchy::new(vec![
            StorageTier {
                name: "contended".to_string(),
                write_bw: 1.0,
                read_bw: 1.0,
                compression: 1.0,
                contention: 0.5,
            },
            StorageTier::unit("ref"),
        ])
        .unwrap();
        // Degree 3 pays 1 + 0.5·2 = 2× on every write; degree 1 pays 1×.
        let wide = ReplicatedEvaluator::from_degrees(&wf, &platform, &[3; 8])
            .with_storage(&h, &[0; 8])
            .evaluate(&s)
            .expected_makespan;
        let wide_ref = ReplicatedEvaluator::from_degrees(&wf, &platform, &[3; 8])
            .with_storage(&h, &[1; 8])
            .evaluate(&s)
            .expected_makespan;
        assert!(wide > wide_ref, "contended {wide} vs ref {wide_ref}");

        // Mutating one task's tier matches a fresh evaluator bit for bit.
        let mut ev =
            ReplicatedEvaluator::from_degrees(&wf, &platform, &[2; 8]).with_storage(&h, &[0; 8]);
        let _ = ev.evaluate(&s);
        ev.set_tier(3, 1);
        let via_mutation = ev.evaluate(&s);
        let mut tiers = vec![0usize; 8];
        tiers[3] = 1;
        let fresh = ReplicatedEvaluator::from_degrees(&wf, &platform, &[2; 8])
            .with_storage(&h, &tiers)
            .evaluate(&s);
        assert_eq!(
            via_mutation.expected_makespan.to_bits(),
            fresh.expected_makespan.to_bits()
        );
        assert_eq!(ev.tiers(), Some(&tiers[..]));
    }

    #[test]
    fn prefix_sets_clamp_degrees_into_the_pool() {
        assert_eq!(
            prefix_sets(&[0, 1, 2, 9], 3),
            vec![vec![0], vec![0], vec![0, 1], vec![0, 1, 2]]
        );
        // An empty pool still yields the best-processor fallback.
        assert_eq!(prefix_sets(&[3], 0), vec![vec![0]]);
        // Prefix sets are already normalized.
        for set in prefix_sets(&[1, 2, 3, 4], 4) {
            assert_eq!(normalize_replica_set(&set, 4), set);
        }
    }

    #[test]
    fn normalize_replica_set_clamps_sorts_dedups() {
        assert_eq!(normalize_replica_set(&[2, 0, 2, 9], 3), vec![0, 2]);
        assert_eq!(normalize_replica_set(&[], 3), vec![0]);
        assert_eq!(normalize_replica_set(&[7, 9], 3), vec![0]);
        assert_eq!(normalize_replica_set(&[1, 0], 2), vec![0, 1]);
    }
}
