//! The one probability/expectation assembly (properties A–C) behind every
//! Theorem-3 evaluation, kept as state so that a budget sweep re-prices
//! only what a changed checkpoint set can reach.
//!
//! A [`SweepEvaluator`] is built once per fixed linearization. Each call
//! diffs the new checkpoint set against the previous one; with `p` the
//! first schedule position whose bit changed:
//!
//! * **Recovery passes.** Pass `k` reads the checkpoint bits of positions
//!   `< k` only, so the passes `k ≤ p` are reused. Each pass keeps its mark
//!   array, which records the row at which every task was first studied.
//!   A pass `k > p` that studied none of the changed tasks would repeat
//!   itself exactly and is skipped; otherwise it reruns from the first row
//!   that studied one, from the marks of the rows before it. Each
//!   rewritten `W^i_k + R^i_k` is compared with its old bits.
//! * **Transcendentals.** The property-A decay `e^{−λ S(j,k)}` and the two
//!   factors `e^{λ·rec}` and `e^{λ(a + w_i + δ_i c_i)} − 1` that property
//!   C's expectation and the fault count share are recomputed only where
//!   an input changed: every row whose checkpoint bit flipped, every
//!   changed `(i, k)` entry, and the growth factors `e^{λ·rec}` of the
//!   whole row `i` when its diagonal `W^i_i + R^i_i` changed.
//! * **Assembly.** Rows `i < p` cannot change, and neither can the row of
//!   `P(Z^p_k)`, which depends on them alone. The assembly resumes at row
//!   `p` from the stored probability rows and prefix totals, accumulating
//!   in exactly the order a first evaluation does.
//!
//! The first call computes everything, and a one-shot
//! [`super::evaluate`] is exactly that first call. Identical arithmetic on
//! identical inputs keeps every later call bitwise equal to a fresh
//! evaluation of the same set.

use super::recovery::RecoveryPasses;
use super::EvalReport;
use crate::model::Workflow;
use dagchkpt_dag::{FixedBitSet, NodeId};
use dagchkpt_failure::FaultModel;

/// Index of entry `(i, k)`, `k ≤ i`, in a row-major lower-triangular table.
#[inline]
fn tri(i: usize, k: usize) -> usize {
    i * (i + 1) / 2 + k
}

/// Stateful Theorem-3 evaluator over one fixed linearization: evaluates
/// any sequence of checkpoint sets, each call reusing what it shares with
/// the previous one (see the module docs). Its tables hold
/// `5 · (n+1)(n+2)/2` floats and `(n+1) · n` marks — about 1 MB at
/// `n = 200`.
pub struct SweepEvaluator<'a> {
    model: FaultModel,
    order: &'a [NodeId],
    passes: RecoveryPasses<'a>,
    /// Per-position work and checkpoint cost (1-based, index 0 unused).
    w: Vec<f64>,
    c: Vec<f64>,
    /// Checkpoint bit per position of the last evaluated set.
    ckpt: Vec<bool>,
    evaluated: bool,
    /// Mark arrays of the passes, `n` per pass: `marks[k·n + task]` = row
    /// at which pass `k` first studied the task (0 = never).
    marks: Vec<u32>,
    // Lower-triangular tables (see [`tri`]); entry `(i, k)`:
    /// `W^i_k + R^i_k` for `k ≥ 1`; column 0 stays 0 (no fault yet).
    lost: Vec<f64>,
    /// `e^{−λ S(i, k)}` for `k < i < n`.
    decay: Vec<f64>,
    /// `e^{λ·rec}` and `e^{λ(a + w_i + δ_i c_i)} − 1` for `k < i`.
    growth: Vec<f64>,
    retries: Vec<f64>,
    /// `P(Z^i_k)` for `k < i`.
    pz: Vec<f64>,
    per_position: Vec<f64>,
    /// Makespan and fault accumulators *before* row `i` (`1 ..= n+1`).
    time_before: Vec<f64>,
    faults_before: Vec<f64>,
    total: f64,
    faults: f64,
    // Per-call scratch: the positions whose bit changed, as a flag per
    // position and as a list.
    flipped: Vec<bool>,
    flips: Vec<usize>,
    diag_changed: Vec<bool>,
    changed: Vec<(u32, u32)>,
}

impl<'a> SweepEvaluator<'a> {
    /// Evaluator for the linearization `order` of `wf` under `model`.
    /// `order` must be a valid linearization (as in a
    /// [`Schedule`](crate::schedule::Schedule)).
    pub fn new(wf: &'a Workflow, model: FaultModel, order: &'a [NodeId]) -> Self {
        let n = wf.n_tasks();
        assert_eq!(order.len(), n, "the order must list every task once");
        let mut w = vec![0.0f64; n + 1];
        let mut c = vec![0.0f64; n + 1];
        for (idx, &t) in order.iter().enumerate() {
            w[idx + 1] = wf.work(t);
            c[idx + 1] = wf.checkpoint_cost(t);
        }
        // The fault-free limit needs no tables.
        let cells = if model.lambda() == 0.0 {
            0
        } else {
            tri(n + 1, 0)
        };
        let mut pz = vec![0.0f64; cells];
        if n > 0 && cells > 0 {
            pz[tri(1, 0)] = 1.0;
        }
        SweepEvaluator {
            model,
            order,
            passes: RecoveryPasses::new(wf, order),
            w,
            c,
            ckpt: vec![false; n + 1],
            evaluated: false,
            marks: vec![0; if cells == 0 { 0 } else { (n + 1) * n }],
            lost: vec![0.0; cells],
            decay: vec![0.0; cells],
            growth: vec![0.0; cells],
            retries: vec![0.0; cells],
            pz,
            per_position: vec![0.0; n],
            time_before: vec![0.0; n + 2],
            faults_before: vec![0.0; n + 2],
            total: 0.0,
            faults: 0.0,
            flipped: vec![false; n + 1],
            flips: Vec::new(),
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

    fn report(&self) -> EvalReport {
        EvalReport {
            expected_makespan: self.total,
            per_position: self.per_position.clone(),
            expected_faults: self.faults,
        }
    }

    fn ckpt_cost(&self, i: usize) -> f64 {
        if self.ckpt[i] {
            self.c[i]
        } else {
            0.0
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
        // p = first position whose checkpoint bit changed.
        let mut first = None;
        for i in 1..=n {
            let bit = ckpt.contains(self.order[i - 1].index());
            if fresh || bit != self.ckpt[i] {
                self.ckpt[i] = bit;
                self.flipped[i] = true;
                self.flips.push(i);
                first.get_or_insert(i);
            }
        }
        let Some(p) = first else {
            return; // same set (or no task): the state already holds it
        };
        if self.model.lambda() == 0.0 {
            // Fault-free limit: every task runs once; checkpointed tasks
            // pay c_i.
            for i in 1..=n {
                self.per_position[i - 1] = self.w[i] + self.ckpt_cost(i);
                self.flipped[i] = false;
            }
            self.flips.clear();
            self.total = self.per_position.iter().sum();
            return;
        }

        self.refresh_lost(ckpt, if fresh { 1 } else { p + 1 }, fresh, lost);
        self.refresh_factors(p);
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
                let v = wi + ri;
                let slot = &mut table[tri(i, k)];
                if v.to_bits() != slot.to_bits() {
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

    /// Recomputes the transcendentals whose inputs changed since the last
    /// call (rows `≥ p` only: nothing before position `p` moved). A
    /// changed diagonal moves every `rec` of its row but no block length,
    /// so it refreshes the growth factors alone.
    fn refresh_factors(&mut self, p: usize) {
        let n = self.order.len();
        for i in p..=n {
            if self.flipped[i] {
                for k in 0..i {
                    self.refresh_decay(i, k);
                    self.refresh_growth(i, k);
                    self.refresh_retries(i, k);
                }
            } else if self.diag_changed[i] {
                for k in 0..i {
                    self.refresh_growth(i, k);
                }
            }
        }
        for idx in 0..self.changed.len() {
            let (i, k) = self.changed[idx];
            let (i, k) = (i as usize, k as usize);
            if !self.flipped[i] {
                self.refresh_decay(i, k);
                self.refresh_retries(i, k);
                if !self.diag_changed[i] {
                    self.refresh_growth(i, k);
                }
            }
        }
    }

    /// Property A's factor `e^{−λ S(i, k)}`, `S(i, k)` the work done during
    /// `X_i` given the last fault was during `X_k`. Row `n` feeds no later
    /// row and is skipped.
    #[inline]
    fn refresh_decay(&mut self, i: usize, k: usize) {
        if i == self.order.len() {
            return;
        }
        let s = self.lost[tri(i, k)] + self.w[i] + self.ckpt_cost(i);
        self.decay[tri(i, k)] = (-self.model.lambda() * s).exp();
    }

    /// Property C's recovery growth `e^{λ·rec}` for `X_i` given the last
    /// fault was during `X_k`: `a` is the recovery already paid, `b` the
    /// full-closure recovery for `T_i`.
    #[inline]
    fn refresh_growth(&mut self, i: usize, k: usize) {
        let a = self.lost[tri(i, k)];
        let b = self.lost[tri(i, i)];
        // `a ≤ b` holds mathematically (T↓k_i ⊆ T↓i_i); clamp the
        // difference against accumulation-order noise.
        let rec = (b - a).max(0.0);
        self.growth[tri(i, k)] = self
            .model
            .recovery_growth(a + self.w[i], self.ckpt_cost(i), rec);
    }

    /// The block's first-attempt retry count `e^{λ(a + w_i + δ_i c_i)} − 1`.
    #[inline]
    fn refresh_retries(&mut self, i: usize, k: usize) {
        let a = self.lost[tri(i, k)];
        self.retries[tri(i, k)] = self
            .model
            .expected_faults_per_block(a + self.w[i] + self.ckpt_cost(i));
    }

    /// Properties A–C from row `start` on; rows before it, and the
    /// probability row `start` itself, are reused.
    fn assemble(&mut self, start: usize) {
        let n = self.order.len();
        let lambda = self.model.lambda();
        let time_scale = 1.0 / lambda + self.model.downtime();
        let mut total = self.time_before[start];
        let mut faults = self.faults_before[start];
        for i in start..=n {
            let row = tri(i, 0);
            if i > start {
                // Property A (incremental): P(Z^i_k) = P(Z^{i−1}_k)·e^{−λ S(i−1,k)}
                let prev = tri(i - 1, 0);
                let mut sum = 0.0f64;
                for k in 0..i - 1 {
                    let v = self.pz[prev + k] * self.decay[prev + k];
                    self.pz[row + k] = v;
                    sum += v;
                }
                // Property B; clamp against floating-point drift.
                self.pz[row + i - 1] = (1.0 - sum).clamp(0.0, 1.0);
            }
            // Property C: E[X_i] = Σ_k P(Z^i_k)·E[t(a + w_i; δ_i c_i; b − a)],
            // and the block's geometric retry count alongside.
            let mut exi = 0.0f64;
            for k in 0..i {
                let p = self.pz[row + k];
                if p == 0.0 {
                    continue;
                }
                let (growth, retries) = (self.growth[row + k], self.retries[row + k]);
                exi += p * (growth * time_scale * retries);
                faults += p * growth * retries;
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
