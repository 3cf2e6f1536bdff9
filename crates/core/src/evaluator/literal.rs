//! A faithful transcription of the paper's **Algorithm 1** (`FindWikRik` +
//! `Traverse`), kept deliberately close to the published pseudo-code —
//! including the `n×n` state table and the eager zeroing of future rows that
//! make it `O(n³)` per pass (`O(n⁴)` overall).
//!
//! It exists to cross-validate the optimized implementation in
//! [`super::recovery`]: the property tests below require equal `W`/`R`
//! aggregates up to floating-point summation order, and the stateful
//! evaluator's tests compare whole evaluations against it.

use super::SweepEvaluator;
use crate::model::Workflow;
use crate::schedule::Schedule;
use dagchkpt_failure::FaultModel;

/// Table cell states, matching the paper's `{-1, 0, 1, 2}` encoding.
const UNSEEN: i8 = -1;
const IN_MEMORY: i8 = 0;
const LOST_NOT_CKPT: i8 = 1;
const LOST_CKPT: i8 = 2;

/// Computes the `W^i_k` / `R^i_k` matrices with the paper's Algorithm 1.
pub fn recovery_matrices_literal(wf: &Workflow, schedule: &Schedule) -> LiteralMatrices {
    let n = wf.n_tasks();
    let order = schedule.order();
    let mut pos1 = vec![0usize; n];
    for (idx, &t) in order.iter().enumerate() {
        pos1[t.index()] = idx + 1;
    }
    // Per-position cost/checkpoint views (1-based).
    let mut w = vec![0.0f64; n + 1];
    let mut r = vec![0.0f64; n + 1];
    let mut ckpt = vec![false; n + 1];
    // preds in *position* space.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    for (idx, &t) in order.iter().enumerate() {
        let i = idx + 1;
        w[i] = wf.work(t);
        r[i] = wf.recovery_cost(t);
        ckpt[i] = schedule.is_checkpointed(t);
        preds[i] = wf.dag().preds(t).iter().map(|p| pos1[p.index()]).collect();
    }

    let mut wmat = vec![0.0f64; (n + 1) * (n + 1)];
    let mut rmat = vec![0.0f64; (n + 1) * (n + 1)];

    // procedure FindWikRik(k)
    for k in 1..=n {
        // tab_k: (n+1)×(n+1) array initialized with -1 (line 2).
        let mut tab = vec![UNSEEN; (n + 1) * (n + 1)];
        // for i = k..n (line 4)
        for i in k..=n {
            traverse(i, i, k, n, &preds, &ckpt, &mut tab);
            // for j = 1..k-1 (line 6)
            for j in 1..k {
                match tab[i * (n + 1) + j] {
                    LOST_NOT_CKPT => wmat[i * (n + 1) + k] += w[j],
                    LOST_CKPT => rmat[i * (n + 1) + k] += r[j],
                    _ => {}
                }
            }
        }
    }
    LiteralMatrices {
        n,
        w: wmat,
        r: rmat,
    }
}

/// procedure Traverse(l, i, k, tab_k) — recursion replaced by an explicit
/// stack (the semantics of the paper's pseudo-code are order-insensitive).
fn traverse(
    l: usize,
    i: usize,
    k: usize,
    n: usize,
    preds: &[Vec<usize>],
    ckpt: &[bool],
    tab: &mut [i8],
) {
    let mut stack = vec![l];
    while let Some(l) = stack.pop() {
        for &j in &preds[l] {
            match tab[i * (n + 1) + j] {
                IN_MEMORY => {}                 // case 0 (line 20)
                LOST_NOT_CKPT | LOST_CKPT => {} // case 1, 2 (line 22)
                _ => {
                    // case -1 (line 24): mark T_j in memory for all later
                    // rows (lines 25–27).
                    for row in i + 1..=n {
                        tab[row * (n + 1) + j] = IN_MEMORY;
                    }
                    if j < k {
                        if ckpt[j] {
                            tab[i * (n + 1) + j] = LOST_CKPT; // line 30
                        } else {
                            tab[i * (n + 1) + j] = LOST_NOT_CKPT; // line 32
                            stack.push(j); // line 33
                        }
                    } else {
                        tab[i * (n + 1) + j] = IN_MEMORY; // line 36
                    }
                }
            }
        }
    }
}

/// `W`/`R` matrices produced by the literal algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct LiteralMatrices {
    n: usize,
    w: Vec<f64>,
    r: Vec<f64>,
}

impl LiteralMatrices {
    /// `(W^i_k, R^i_k)` for `1 ≤ k ≤ i ≤ n`.
    pub fn get(&self, i: usize, k: usize) -> (f64, f64) {
        let idx = i * (self.n + 1) + k;
        (self.w[idx], self.r[idx])
    }
}

/// Expected makespan computed through the literal Algorithm 1, assembled by
/// the same [`SweepEvaluator`] as [`super::evaluate`].
pub fn expected_makespan_literal(wf: &Workflow, model: FaultModel, schedule: &Schedule) -> f64 {
    let lit = recovery_matrices_literal(wf, schedule);
    SweepEvaluator::new(wf, model, schedule.order())
        .evaluate_with_lost(schedule.checkpoints(), &|i, k| lit.get(i, k))
        .expected_makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::recovery::tests::matrices;
    use crate::model::{CostRule, Workflow};
    use crate::schedule::Schedule;
    use dagchkpt_dag::{generators, topo, FixedBitSet, NodeId};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_instance(seed: u64, n: usize) -> (Workflow, Schedule) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dag = generators::layered_random(&mut rng, n, 4, 0.35);
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..40.0)).collect();
        let wf =
            Workflow::with_cost_rule(dag, weights, CostRule::ProportionalToWork { ratio: 0.1 });
        let order = topo::topological_order(wf.dag());
        let ckpt = FixedBitSet::from_indices(n, (0..n).filter(|_| rng.gen_bool(0.4)));
        let s = Schedule::new(&wf, order, ckpt).unwrap();
        (wf, s)
    }

    #[test]
    fn literal_matches_optimized_on_figure1() {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let order: Vec<NodeId> = [0u32, 3, 1, 2, 4, 5, 6, 7]
            .iter()
            .map(|&i| NodeId(i))
            .collect();
        let mut ckpt = FixedBitSet::new(8);
        ckpt.insert(3);
        ckpt.insert(4);
        let s = Schedule::new(&wf, order, ckpt).unwrap();
        let opt = matrices(&wf, &s);
        let lit = recovery_matrices_literal(&wf, &s);
        for i in 1..=8 {
            for k in 1..=i {
                let (ow, orr) = opt(i, k);
                let (lw, lr) = lit.get(i, k);
                assert!((ow - lw).abs() < 1e-12, "W({i},{k}): {ow} vs {lw}");
                assert!((orr - lr).abs() < 1e-12, "R({i},{k}): {orr} vs {lr}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn matrices_agree_on_random_instances(seed in 0u64..2000, n in 1usize..22) {
            let (wf, s) = random_instance(seed, n);
            let opt = matrices(&wf, &s);
            let lit = recovery_matrices_literal(&wf, &s);
            for i in 1..=n {
                for k in 1..=i {
                    let (ow, orr) = opt(i, k);
                    let (lw, lr) = lit.get(i, k);
                    prop_assert!((ow - lw).abs() <= 1e-9 * ow.abs().max(1.0),
                        "W({i},{k}): optimized {ow} vs literal {lw}");
                    prop_assert!((orr - lr).abs() <= 1e-9 * orr.abs().max(1.0),
                        "R({i},{k}): optimized {orr} vs literal {lr}");
                }
            }
        }

        #[test]
        fn makespans_agree_on_random_instances(seed in 0u64..2000, n in 1usize..22) {
            let (wf, s) = random_instance(seed, n);
            let m = FaultModel::new(0.003, 1.0);
            let a = super::super::expected_makespan(&wf, m, &s);
            let b = expected_makespan_literal(&wf, m, &s);
            prop_assert!((a - b).abs() <= 1e-9 * a.max(1.0), "optimized {a} vs literal {b}");
        }
    }
}
