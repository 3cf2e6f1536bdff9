//! Optimized computation of the lost-set aggregates `W^i_k` / `R^i_k`.
//!
//! Semantics are identical to the paper's Algorithm 1 (`FindWikRik`), but the
//! per-`k` `n×n` state table is replaced by a mark array recording at which
//! position a task was first *studied* during the pass:
//!
//! * `mark[j] = 0` — not studied yet (the paper's `-1`);
//! * `mark[j] = i` — first studied while processing position `i`. For later
//!   positions this is exactly the paper's `0` ("already in memory — either
//!   executed after the fault, or recovered/re-executed for an earlier
//!   task"), and within position `i` it doubles as "already counted".
//!
//! Each task is studied at most once per pass and each adjacency list is
//! scanned at most twice, so a pass costs `O(n + |E|)` and all `n` passes
//! `O(n(n + |E|))` — down from the paper's `O(n⁴)` (their Algorithm 1 spends
//! `O(n)` per studied task zeroing future table rows). The unit tests of
//! [`super::literal`] check both implementations produce identical aggregates.

use crate::model::Workflow;
use dagchkpt_dag::{FixedBitSet, NodeId};

/// The per-`k` passes that compute the lost-set aggregates of one
/// linearization, with their scratch (position map, DFS stack) allocated
/// once. Recovery costs come from a task-indexed array the passes own, so
/// an evaluator can re-price one task's recovery without a workflow copy.
///
/// A pass keeps a mark array: `mark[task]` is the position at which the
/// task was first studied during the pass (0 = not yet). Pass `k` reads the
/// checkpoint bit and the recovery cost of a task only when it marks one
/// at a position `< k`, so a caller that changes either from position `p`
/// on needs to rerun only the passes `k > p`, and of those only the rows
/// from the first one that marked a changed task.
pub(crate) struct RecoveryPasses<'a> {
    wf: &'a Workflow,
    order: &'a [NodeId],
    /// `pos1[task]` = 1-based schedule position.
    pub(crate) pos1: Vec<usize>,
    /// `rec[task]` = recovery cost of the task's checkpoint.
    pub(crate) rec: Vec<f64>,
    stack: Vec<NodeId>,
}

impl<'a> RecoveryPasses<'a> {
    /// Passes over the linearization `order` of `wf`, with the task-indexed
    /// recovery costs `rec`.
    pub(crate) fn new(wf: &'a Workflow, order: &'a [NodeId], rec: Vec<f64>) -> Self {
        let n = wf.n_tasks();
        assert_eq!(rec.len(), n, "one recovery cost per task");
        let mut pos1 = vec![0usize; n];
        for (idx, &t) in order.iter().enumerate() {
            pos1[t.index()] = idx + 1;
        }
        RecoveryPasses {
            wf,
            order,
            pos1,
            rec,
            stack: Vec::with_capacity(n),
        }
    }

    /// Rows `from ..= n` of pass `k` (the last fault hit position `k`)
    /// under the task-indexed checkpoint set `ckpt`: calls
    /// `emit(i, W^i_k, R^i_k)` for each row `i`, in order. On entry `mark`
    /// holds the pass's marks of rows `k .. from` (all zero when
    /// `from == k`); on return, those of the whole pass.
    pub(crate) fn run(
        &mut self,
        ckpt: &FixedBitSet,
        k: usize,
        from: usize,
        mark: &mut [u32],
        mut emit: impl FnMut(usize, f64, f64),
    ) {
        let (wf, dag, pos1, rec) = (self.wf, self.wf.dag(), &self.pos1, &self.rec);
        let stack = &mut self.stack;
        for i in from..=self.order.len() {
            let mut wi = 0.0f64;
            let mut ri = 0.0f64;
            // DFS from the task at position i through its lost inputs.
            stack.push(self.order[i - 1]);
            while let Some(t) = stack.pop() {
                for &p in dag.preds(t) {
                    let j = p.index();
                    if mark[j] != 0 {
                        // In memory (studied at an earlier position) or
                        // already counted for position i.
                        continue;
                    }
                    mark[j] = i as u32;
                    if pos1[j] < k {
                        // Executed before the fault: output lost.
                        if ckpt.contains(j) {
                            ri += rec[j];
                        } else {
                            wi += wf.work(p);
                            // Re-executing p needs p's own inputs.
                            stack.push(p);
                        }
                    }
                    // pos1[j] ≥ k: executed at/after the fault, so the
                    // output is in memory; the mark blocks revisits.
                }
            }
            emit(i, wi, ri);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::{CostRule, TaskCosts, Workflow};
    use crate::schedule::Schedule;
    use dagchkpt_dag::{generators, topo, FixedBitSet, NodeId};

    /// Test-only collector over [`RecoveryPasses::run`]: the dense
    /// `(W^i_k, R^i_k)` of `schedule` for `1 ≤ k ≤ i ≤ n`, as a lookup.
    pub(crate) fn matrices(
        wf: &Workflow,
        schedule: &Schedule,
    ) -> impl Fn(usize, usize) -> (f64, f64) {
        let n = wf.n_tasks();
        let mut table = vec![(0.0f64, 0.0f64); (n + 1) * (n + 1)];
        let rec = (0..n).map(|t| wf.recovery_cost(NodeId::from(t))).collect();
        let mut passes = RecoveryPasses::new(wf, schedule.order(), rec);
        let mut mark = vec![0u32; n];
        for k in 1..=n {
            mark.fill(0);
            passes.run(schedule.checkpoints(), k, k, &mut mark, |i, wi, ri| {
                table[i * (n + 1) + k] = (wi, ri);
            });
        }
        move |i, k| table[i * (n + 1) + k]
    }

    /// Figure-1 workflow with unit weights, c = r = 0.1.
    fn fig1() -> (Workflow, Schedule) {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![1.0; 8],
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
        (wf, s)
    }

    #[test]
    fn full_closure_of_chain() {
        // Chain T0→T1→T2, no checkpoints, natural order.
        let wf = Workflow::uniform(generators::chain(3), 2.0, 0.0);
        let s = Schedule::never(&wf, topo::topological_order(wf.dag())).unwrap();
        let m = matrices(&wf, &s);
        // W^i_i: all predecessors must be re-executed from scratch.
        assert_eq!(m(1, 1), (0.0, 0.0));
        assert_eq!(m(2, 2), (2.0, 0.0));
        assert_eq!(m(3, 3), (4.0, 0.0));
        // After a fault at position k, the chain prefix is rebuilt inside
        // X_k itself, so later tasks need nothing extra.
        assert_eq!(m(2, 1), (0.0, 0.0));
        assert_eq!(m(3, 1), (0.0, 0.0));
        assert_eq!(m(3, 2), (0.0, 0.0));
    }

    #[test]
    fn checkpointed_predecessor_costs_recovery() {
        // T0 (ckpt) → T1; fault during X2 = position of T1 loses T0's
        // in-memory copy but its checkpoint remains.
        let costs = vec![TaskCosts::new(2.0, 0.5, 0.7), TaskCosts::new(3.0, 0.0, 0.0)];
        let wf = Workflow::new(generators::chain(2), costs);
        let mut ckpt = FixedBitSet::new(2);
        ckpt.insert(0);
        let s = Schedule::new(&wf, topo::topological_order(wf.dag()), ckpt).unwrap();
        let m = matrices(&wf, &s);
        assert_eq!(m(2, 2), (0.0, 0.7));
        assert_eq!(m(2, 1), (0.0, 0.0)); // rebuilt during X_1
    }

    #[test]
    fn figure1_walkthrough_lost_sets() {
        // Order T0 T3 T1 T2 T4 T5 T6 T7 (positions 1..8), ckpt {T3, T4}.
        // The paper's walk-through: a fault during X_6 (task T5) ⇒ T5 needs
        // only the checkpoint of T3 (r=0.1); T6 then needs the checkpoint of
        // T4; T7 needs the re-execution of T1 and T2 (w=2.0 total).
        let (wf, s) = fig1();
        let m = matrices(&wf, &s);
        // Position 6 is T5 (preds: T3 ckpt). Full closure:
        assert_eq!(m(6, 6), (0.0, 0.1));
        // Fault during X_6 (T5): position 7 is T6 (preds T4 ckpt, T5).
        // T5 is rebuilt within X_6; T4's in-memory output died ⇒ recover.
        assert_eq!(m(7, 6), (0.0, 0.1));
        // Position 8 is T7 (preds T2, T6). T6 rebuilt in X_7. T2 was lost
        // and is not checkpointed ⇒ re-execute T2 and its pred T1.
        assert_eq!(m(8, 6), (2.0, 0.0));
        let _ = wf;
    }

    #[test]
    fn later_task_does_not_pay_for_already_recovered_inputs() {
        // Join: T0 ckpt, T1 ckpt, sink T2 with preds {T0, T1}; order
        // T0 T1 T2. Fault during X_2 (T1): X_2 rebuilds T1 only. X_3 (T2)
        // must recover T0 (lost, checkpointed).
        let costs = vec![
            TaskCosts::new(2.0, 0.2, 0.3),
            TaskCosts::new(4.0, 0.4, 0.5),
            TaskCosts::new(1.0, 0.0, 0.0),
        ];
        let wf = Workflow::new(generators::join(2), costs);
        let mut ckpt = FixedBitSet::new(3);
        ckpt.insert(0);
        ckpt.insert(1);
        let s = Schedule::new(&wf, topo::topological_order(wf.dag()), ckpt).unwrap();
        let m = matrices(&wf, &s);
        assert_eq!(m(3, 2), (0.0, 0.3)); // recover T0 only
        assert_eq!(m(3, 3), (0.0, 0.8)); // fault during X_3: recover both
        assert_eq!(m(2, 2), (0.0, 0.0)); // T1 is a source
    }

    #[test]
    fn nonckpt_shared_ancestor_counted_once() {
        // Diamond 0→{1,2}→3 with nothing checkpointed, order 0 1 2 3.
        // Full closure of T3: T1, T2, and T0 — T0 once, despite two paths.
        let wf = Workflow::uniform(
            {
                let mut b = dagchkpt_dag::DagBuilder::new(4);
                b.add_edge(0usize, 1usize);
                b.add_edge(0usize, 2usize);
                b.add_edge(1usize, 3usize);
                b.add_edge(2usize, 3usize);
                b.build().unwrap()
            },
            5.0,
            0.0,
        );
        let s = Schedule::never(&wf, topo::topological_order(wf.dag())).unwrap();
        let m = matrices(&wf, &s);
        assert_eq!(m(4, 4), (15.0, 0.0)); // T1 + T2 + T0, not T0 twice
                                          // Fault at X_3 (T2): X_3 rebuilds T0 and T2; T1 was lost and is
                                          // needed by T3 ⇒ W^4_3 = w1 only.
        assert_eq!(m(4, 3), (5.0, 0.0));
    }
}
