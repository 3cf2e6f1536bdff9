//! The one probability/expectation assembly (properties A–C) behind every
//! Theorem-3 evaluation, kept as state so that a budget sweep re-prices
//! only what a changed checkpoint set can reach.
//!
//! A [`SweepEvaluator`] is built once per fixed linearization and is
//! generic over how a block is priced: the paper's exponential machine
//! ([`ExpPricing`]) or a replica group of a heterogeneous platform
//! (`ReplicaPricing` in [`super::replicated`]). Each call diffs the new
//! checkpoint set against the previous one; with `p` the first schedule
//! position whose bit changed:
//!
//! * **Recovery passes.** Pass `k` reads the checkpoint bits of positions
//!   `< k` only, so the passes `k ≤ p` are reused. Each pass keeps its mark
//!   array, which records the row at which every task was first studied.
//!   A pass `k > p` that studied none of the changed tasks would repeat
//!   itself exactly and is skipped; otherwise it reruns from the first row
//!   that studied one, from the marks of the rows before it. Each
//!   rewritten `(W^i_k, R^i_k)` is compared with its old bits.
//! * **Pricing.** The property-A factor of every entry and the property-C
//!   terms are recomputed only where an input changed: every row whose
//!   checkpoint bit flipped (or whose pricing was changed), every changed
//!   `(i, k)` entry, and what depends on the diagonal `(W^i_i, R^i_i)` of a
//!   row where that moved.
//! * **Assembly.** Rows `i < p` cannot change, and neither can the row of
//!   `P(Z^p_k)`, which depends on them alone. The assembly resumes at row
//!   `p` from the stored probability rows and prefix totals, accumulating
//!   in exactly the order a first evaluation does.
//!
//! A task's recovery cost is read by the passes exactly where they read
//! its checkpoint bit, so changing it ([`SweepEvaluator::set_recovery`])
//! counts as a flip of that task. The first call computes everything, and
//! a one-shot [`super::evaluate`] is exactly that first call. Identical
//! arithmetic on identical inputs keeps every later call bitwise equal to
//! a fresh evaluation of the same set.

use super::recovery::RecoveryPasses;
use super::EvalReport;
use crate::model::Workflow;
use dagchkpt_dag::{FixedBitSet, NodeId};
use dagchkpt_failure::FaultModel;

/// Index of entry `(i, k)`, `k ≤ i`, in a row-major lower-triangular table.
#[inline]
pub(crate) fn tri(i: usize, k: usize) -> usize {
    i * (i + 1) / 2 + k
}

/// How a block `X_i` is priced given the last fault (or memory wipe) hit
/// `X_k`. An implementation owns its per-entry tables (indexed by
/// [`tri`]) and keeps them current through the `price_*` calls; the
/// evaluator reads them back in the assembly. Not nameable outside the
/// crate.
pub trait BlockPricing {
    /// The lost-set aggregate of one entry that the pricing reads.
    type Lost: Copy + Default;

    /// The aggregate of `W^i_k` and `R^i_k`.
    fn lost(w: f64, r: f64) -> Self::Lost;

    /// Whether two aggregates differ in any bit.
    fn differ(a: Self::Lost, b: Self::Lost) -> bool;

    /// `Some(time)` of block `i` when every block runs exactly once (no
    /// fault can strike, so no table is needed).
    fn fault_free(&self, _i: usize, _ckpt: bool) -> Option<f64> {
        None
    }

    /// Sizes the per-entry tables to `cells` entries (0 when fault-free).
    fn allocate(&mut self, cells: usize);

    /// Re-prices every entry `k < i` of row `i` and whatever depends on
    /// its diagonal; `row[k]` is the entry `(i, k)`.
    fn price_row(&mut self, i: usize, ckpt: bool, row: &[Self::Lost]) {
        self.price_diagonal(i, ckpt, row);
        for k in 0..i {
            self.price_entry(i, k, ckpt, row, true);
        }
    }

    /// Re-prices what depends on row `i`'s diagonal `row[i]`.
    fn price_diagonal(&mut self, i: usize, ckpt: bool, row: &[Self::Lost]);

    /// Re-prices entry `(i, k)`; `diagonal_done` when
    /// [`price_diagonal`](Self::price_diagonal) already ran for row `i`.
    fn price_entry(
        &mut self,
        i: usize,
        k: usize,
        ckpt: bool,
        row: &[Self::Lost],
        diagonal_done: bool,
    );

    /// Property A's factor of table entry `idx`: the probability that its
    /// block completes without a fault (or memory wipe).
    fn survival(&self, idx: usize) -> f64;

    /// Row `i`'s table entry `idx` weighted by `P(Z^i_k) = p`: its
    /// contribution to `E[X_i]` and to the expected fault count.
    fn block(&self, i: usize, idx: usize, p: f64) -> (f64, f64);
}

/// The paper's single exponential machine: property A's decay
/// `e^{−λ S(i, k)}`, and the factors `e^{λ·rec}`
/// ([`FaultModel::recovery_growth`]) and `e^{λ(a + w_i + δ_i c_i)} − 1`
/// ([`FaultModel::expected_faults_per_block`]) that property C's
/// expectation and the fault count share.
pub struct ExpPricing {
    model: FaultModel,
    time_scale: f64,
    /// Per-position work and checkpoint cost (1-based, index 0 unused).
    w: Vec<f64>,
    c: Vec<f64>,
    /// `e^{−λ S(i, k)}` for `k < i < n`.
    decay: Vec<f64>,
    /// `e^{λ·rec}` and `e^{λ(a + w_i + δ_i c_i)} − 1` for `k < i`.
    growth: Vec<f64>,
    retries: Vec<f64>,
}

impl ExpPricing {
    pub(crate) fn new(wf: &Workflow, model: FaultModel, order: &[NodeId]) -> Self {
        let n = order.len();
        let mut w = vec![0.0f64; n + 1];
        let mut c = vec![0.0f64; n + 1];
        for (idx, &t) in order.iter().enumerate() {
            w[idx + 1] = wf.work(t);
            c[idx + 1] = wf.checkpoint_cost(t);
        }
        ExpPricing {
            model,
            time_scale: 1.0 / model.lambda() + model.downtime(),
            w,
            c,
            decay: Vec::new(),
            growth: Vec::new(),
            retries: Vec::new(),
        }
    }

    fn ckpt_cost(&self, i: usize, ckpt: bool) -> f64 {
        if ckpt {
            self.c[i]
        } else {
            0.0
        }
    }

    /// The factors of entry `(i, k)` that depend on the block length
    /// `S(i, k) = a + w_i + δ_i c_i` alone (`a` the recovery already paid):
    /// the decay `e^{−λ S}` (row `n` feeds no later row and is skipped) and
    /// the first-attempt retry count `e^{λ S} − 1`.
    #[inline]
    fn refresh_block(&mut self, i: usize, k: usize, ckpt: bool, a: f64) {
        let s = a + self.w[i] + self.ckpt_cost(i, ckpt);
        if i + 1 < self.w.len() {
            self.decay[tri(i, k)] = (-self.model.lambda() * s).exp();
        }
        self.retries[tri(i, k)] = self.model.expected_faults_per_block(s);
    }

    /// `e^{λ·rec}` for `X_i` given the last fault was during `X_k`: `a` is
    /// the recovery already paid, `b` the full-closure recovery for `T_i`.
    #[inline]
    fn refresh_growth(&mut self, i: usize, k: usize, ckpt: bool, a: f64, b: f64) {
        // `a ≤ b` holds mathematically (T↓k_i ⊆ T↓i_i); clamp the
        // difference against accumulation-order noise.
        let rec = (b - a).max(0.0);
        self.growth[tri(i, k)] =
            self.model
                .recovery_growth(a + self.w[i], self.ckpt_cost(i, ckpt), rec);
    }
}

impl BlockPricing for ExpPricing {
    /// `W^i_k + R^i_k`: the exponential machine reads and writes at one
    /// speed, so only the sum matters.
    type Lost = f64;

    #[inline]
    fn lost(w: f64, r: f64) -> f64 {
        w + r
    }

    #[inline]
    fn differ(a: f64, b: f64) -> bool {
        a.to_bits() != b.to_bits()
    }

    fn fault_free(&self, i: usize, ckpt: bool) -> Option<f64> {
        // Every task runs once; checkpointed tasks pay c_i.
        (self.model.lambda() == 0.0).then(|| self.w[i] + self.ckpt_cost(i, ckpt))
    }

    fn allocate(&mut self, cells: usize) {
        self.decay = vec![0.0; cells];
        self.growth = vec![0.0; cells];
        self.retries = vec![0.0; cells];
    }

    /// A changed diagonal moves every `rec` of the row but no block length,
    /// so it refreshes the growth factors alone.
    fn price_diagonal(&mut self, i: usize, ckpt: bool, row: &[f64]) {
        for k in 0..i {
            self.refresh_growth(i, k, ckpt, row[k], row[i]);
        }
    }

    fn price_entry(&mut self, i: usize, k: usize, ckpt: bool, row: &[f64], diagonal_done: bool) {
        self.refresh_block(i, k, ckpt, row[k]);
        if !diagonal_done {
            self.refresh_growth(i, k, ckpt, row[k], row[i]);
        }
    }

    // `survival` and `block` run in the assembly's inner loops; without the
    // forced inlining the exponential sweep measured ~15 % slower.
    #[inline(always)]
    fn survival(&self, idx: usize) -> f64 {
        self.decay[idx]
    }

    /// `E[t(a + w_i; δ_i c_i; b − a)]` and the geometric retry count
    /// `e^{λ·rec}(e^{λ(a + w_i + δ_i c_i)} − 1)`.
    #[inline(always)]
    fn block(&self, _i: usize, idx: usize, p: f64) -> (f64, f64) {
        let (growth, retries) = (self.growth[idx], self.retries[idx]);
        (
            p * (growth * self.time_scale * retries),
            p * growth * retries,
        )
    }
}

/// Stateful Theorem-3 evaluator over one fixed linearization: evaluates
/// any sequence of checkpoint sets, each call reusing what it shares with
/// the previous one (see the module docs). Under the exponential pricing
/// its tables hold `5 · (n+1)(n+2)/2` floats and `(n+1) · n` marks — about
/// 1 MB at `n = 200`.
pub struct SweepEvaluator<'a, P: BlockPricing = ExpPricing> {
    order: &'a [NodeId],
    passes: RecoveryPasses<'a>,
    /// Checkpoint bit per position of the last evaluated set.
    ckpt: Vec<bool>,
    evaluated: bool,
    /// Mark arrays of the passes, `n` per pass: `marks[k·n + task]` = row
    /// at which pass `k` first studied the task (0 = never).
    marks: Vec<u32>,
    // Lower-triangular tables (see [`tri`]); entry `(i, k)`:
    /// `(W^i_k, R^i_k)` for `k ≥ 1`; column 0 stays empty (no fault yet).
    lost: Vec<P::Lost>,
    pricing: P,
    /// `P(Z^i_k)` for `k < i`.
    pz: Vec<f64>,
    per_position: Vec<f64>,
    /// Makespan and fault accumulators *before* row `i` (`1 ..= n+1`).
    time_before: Vec<f64>,
    faults_before: Vec<f64>,
    total: f64,
    faults: f64,
    // Changes pending for the next call: the rows to re-price (a flag per
    // position), the positions the passes must treat as flipped, and the
    // first position of either.
    flipped: Vec<bool>,
    flips: Vec<usize>,
    first: Option<usize>,
    // Per-call scratch.
    diag_changed: Vec<bool>,
    changed: Vec<(u32, u32)>,
}

impl<'a> SweepEvaluator<'a> {
    /// Evaluator for the linearization `order` of `wf` under `model`.
    /// `order` must be a valid linearization (as in a
    /// [`Schedule`](crate::schedule::Schedule)).
    pub fn new(wf: &'a Workflow, model: FaultModel, order: &'a [NodeId]) -> Self {
        let pricing = ExpPricing::new(wf, model, order);
        let rec = (0..wf.n_tasks())
            .map(|t| wf.recovery_cost(NodeId::from(t)))
            .collect();
        SweepEvaluator::with_pricing(wf, order, rec, pricing)
    }
}

impl<'a, P: BlockPricing> SweepEvaluator<'a, P> {
    /// Evaluator for the linearization `order` of `wf` under `pricing`,
    /// with the task-indexed recovery costs `rec`.
    pub(crate) fn with_pricing(
        wf: &'a Workflow,
        order: &'a [NodeId],
        rec: Vec<f64>,
        mut pricing: P,
    ) -> Self {
        let n = wf.n_tasks();
        assert_eq!(order.len(), n, "the order must list every task once");
        let passes = RecoveryPasses::new(wf, order, rec);
        let ckpt = vec![false; n + 1];
        // A fault-free pricing needs no tables (ask its first block).
        let cells = if n > 0 && pricing.fault_free(1, false).is_some() {
            0
        } else {
            tri(n + 1, 0)
        };
        // Tables are allocated (and, by field order, freed) in this order:
        // built and dropped per sweep run, other orders measured up to 2×
        // the page faults on fig6, as the allocator trimmed between runs.
        let marks = vec![0; if cells == 0 { 0 } else { (n + 1) * n }];
        let lost = vec![P::Lost::default(); cells];
        pricing.allocate(cells);
        let mut pz = vec![0.0f64; cells];
        if n > 0 && cells > 0 {
            pz[tri(1, 0)] = 1.0;
        }
        SweepEvaluator {
            order,
            passes,
            ckpt,
            evaluated: false,
            marks,
            lost,
            pricing,
            pz,
            per_position: vec![0.0; n],
            time_before: vec![0.0; n + 2],
            faults_before: vec![0.0; n + 2],
            total: 0.0,
            faults: 0.0,
            flipped: vec![false; n + 1],
            flips: Vec::new(),
            first: None,
            diag_changed: vec![false; n + 1],
            changed: Vec::new(),
        }
    }

    /// Expected makespan with the task-indexed checkpoint set `ckpt`.
    pub fn expected_makespan(&mut self, ckpt: &FixedBitSet) -> f64 {
        self.update(ckpt, None);
        self.total
    }

    /// Full evaluation report with the checkpoint set `ckpt`.
    pub fn evaluate(&mut self, ckpt: &FixedBitSet) -> EvalReport {
        self.update(ckpt, None);
        self.report()
    }

    /// A one-shot [`evaluate`](Self::evaluate) with the `(W^i_k, R^i_k)`
    /// aggregates taken from `lost` instead of the recovery passes (the
    /// paper-literal oracle's entry into the same assembly). It consumes
    /// the evaluator: no pass ran, so nothing is known for a next call.
    pub(crate) fn evaluate_with_lost(
        mut self,
        ckpt: &FixedBitSet,
        lost: &dyn Fn(usize, usize) -> (f64, f64),
    ) -> EvalReport {
        self.update(ckpt, Some(lost));
        self.report()
    }

    /// Marks `task`'s row for re-pricing at the next call (its block's
    /// pricing inputs changed, its lost sets did not) and returns the
    /// row's position with the pricing to change those inputs in.
    pub(crate) fn reprice(&mut self, task: usize) -> (usize, &mut P) {
        let i = self.passes.pos1[task];
        self.mark(i);
        (i, &mut self.pricing)
    }

    /// Sets `task`'s recovery cost. The passes read it exactly where they
    /// read the task's checkpoint bit, so the next call treats the task as
    /// flipped.
    pub(crate) fn set_recovery(&mut self, task: usize, cost: f64) {
        self.passes.rec[task] = cost;
        let (i, _) = self.reprice(task);
        self.flips.push(i);
    }

    /// Re-prices row `i` at the next call, which resumes no later than `i`.
    fn mark(&mut self, i: usize) {
        self.flipped[i] = true;
        self.first = Some(self.first.map_or(i, |p| p.min(i)));
    }

    fn report(&self) -> EvalReport {
        EvalReport {
            expected_makespan: self.total,
            per_position: self.per_position.clone(),
            expected_faults: self.faults,
        }
    }

    fn update(&mut self, ckpt: &FixedBitSet, lost: Option<&dyn Fn(usize, usize) -> (f64, f64)>) {
        let n = self.order.len();
        assert_eq!(
            ckpt.len(),
            n,
            "checkpoint set capacity must equal the task count"
        );
        let fresh = !self.evaluated;
        self.evaluated = true;
        // p = first position whose checkpoint bit or pricing changed.
        for i in 1..=n {
            let bit = ckpt.contains(self.order[i - 1].index());
            if fresh || bit != self.ckpt[i] {
                self.ckpt[i] = bit;
                self.mark(i);
                self.flips.push(i);
            }
        }
        let Some(p) = self.first.take() else {
            return; // same set (or no task): the state already holds it
        };
        if self.lost.is_empty() {
            for i in 1..=n {
                self.per_position[i - 1] = self
                    .pricing
                    .fault_free(i, self.ckpt[i])
                    .expect("a pricing without tables is fault-free");
                self.flipped[i] = false;
            }
            self.flips.clear();
            self.total = self.per_position.iter().sum();
            return;
        }

        self.refresh_lost(ckpt, if fresh { 1 } else { p + 1 }, fresh, lost);
        self.refresh_pricing(p);
        self.assemble(p);
        for i in p..=n {
            self.flipped[i] = false;
            self.diag_changed[i] = false;
        }
        self.flips.clear();
        self.changed.clear();
    }

    /// Reruns the recovery passes `k ≥ from` that read a changed bit, from
    /// the first row that did, recording which entries changed bits (a
    /// fresh state recomputes every row anyway).
    fn refresh_lost(
        &mut self,
        ckpt: &FixedBitSet,
        from: usize,
        fresh: bool,
        lost: Option<&dyn Fn(usize, usize) -> (f64, f64)>,
    ) {
        let n = self.order.len();
        let order = self.order;
        let flips = &self.flips;
        let table = &mut self.lost;
        let diag_changed = &mut self.diag_changed;
        let changed = &mut self.changed;
        for k in from..=n {
            let mark = &mut self.marks[k * n..(k + 1) * n];
            // First row of the pass that studied a changed task.
            let start = if fresh || lost.is_some() {
                mark.fill(0);
                k
            } else {
                let studied = flips
                    .iter()
                    .filter(|&&q| q < k)
                    .map(|&q| mark[order[q - 1].index()])
                    .filter(|&row| row != 0)
                    .min();
                let Some(row) = studied else {
                    continue; // the pass reads no changed bit
                };
                let row = row as usize;
                for m in mark.iter_mut() {
                    if *m as usize >= row {
                        *m = 0;
                    }
                }
                row
            };
            let mut store = |i: usize, wi: f64, ri: f64| {
                let v = P::lost(wi, ri);
                let slot = &mut table[tri(i, k)];
                if P::differ(v, *slot) {
                    *slot = v;
                    if i == k {
                        diag_changed[i] = true;
                    } else if !fresh {
                        changed.push((i as u32, k as u32));
                    }
                }
            };
            match lost {
                None => self.passes.run(ckpt, k, start, mark, store),
                Some(f) => (k..=n).for_each(|i| {
                    let (wi, ri) = f(i, k);
                    store(i, wi, ri)
                }),
            }
        }
    }

    /// Re-prices what changed since the last call (rows `≥ p` only:
    /// nothing before position `p` moved).
    fn refresh_pricing(&mut self, p: usize) {
        let n = self.order.len();
        for i in p..=n {
            let row = &self.lost[tri(i, 0)..=tri(i, i)];
            if self.flipped[i] {
                self.pricing.price_row(i, self.ckpt[i], row);
            } else if self.diag_changed[i] {
                self.pricing.price_diagonal(i, self.ckpt[i], row);
            }
        }
        for &(i, k) in &self.changed {
            let (i, k) = (i as usize, k as usize);
            if !self.flipped[i] {
                let row = &self.lost[tri(i, 0)..=tri(i, i)];
                self.pricing
                    .price_entry(i, k, self.ckpt[i], row, self.diag_changed[i]);
            }
        }
    }

    /// Properties A–C from row `start` on; rows before it, and the
    /// probability row `start` itself, are reused.
    fn assemble(&mut self, start: usize) {
        let n = self.order.len();
        let mut total = self.time_before[start];
        let mut faults = self.faults_before[start];
        for i in start..=n {
            let row = tri(i, 0);
            if i > start {
                // Property A (incremental): P(Z^i_k) = P(Z^{i−1}_k)·survival(i−1, k)
                let prev = tri(i - 1, 0);
                let mut sum = 0.0f64;
                for k in 0..i - 1 {
                    let v = self.pz[prev + k] * self.pricing.survival(prev + k);
                    self.pz[row + k] = v;
                    sum += v;
                }
                // Property B; clamp against floating-point drift.
                self.pz[row + i - 1] = (1.0 - sum).clamp(0.0, 1.0);
            }
            // Property C: E[X_i] = Σ_k P(Z^i_k)·E[X_i | Z^i_k], and the
            // block's expected fault count alongside.
            let mut exi = 0.0f64;
            for k in 0..i {
                let p = self.pz[row + k];
                if p == 0.0 {
                    continue;
                }
                let (time, count) = self.pricing.block(i, row + k, p);
                exi += time;
                faults += count;
            }
            self.per_position[i - 1] = exi;
            total += exi;
            self.time_before[i + 1] = total;
            self.faults_before[i + 1] = faults;
        }
        self.total = total;
        self.faults = faults;
    }
}
