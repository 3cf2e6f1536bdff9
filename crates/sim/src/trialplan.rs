//! Compiled trial plans and per-worker scratch arenas: the zero-allocation
//! Monte-Carlo fast path.
//!
//! [`TrialPlan::compile`] flattens one (workflow × schedule) cell into
//! contiguous, index-addressed arrays — the schedule order, the position
//! permutation, the checkpoint set, a CSR predecessor table, and per-task
//! work / checkpoint / recovery costs — compiled **once per cell** and
//! shared read-only by every worker thread. [`TrialScratch`] holds the
//! per-worker mutable state (residency bitset, epoch-marked DFS buffers,
//! the recovery-step buffer that replaces [`crate::plan::recovery_plan`]'s
//! fresh `Vec` per fault, and the non-blocking engine's write queue), so a
//! steady-state trial performs **zero heap allocations**: the executor
//! creates one scratch per fold chunk (`O(chunks)` allocations per run,
//! never `O(trials)`).
//!
//! [`simulate_planned`] is the fast twin of [`crate::engine::simulate`]:
//! same arithmetic in the same order, so its results are **bit-identical**
//! to the reference engine (pinned by the differential tests below); the
//! reference stays in `engine.rs` as executable documentation and as the
//! oracle of those tests.

use crate::events::UnitKind;
use crate::plan::PlanStep;
use dagchkpt_core::{Schedule, Workflow};
use dagchkpt_dag::{FixedBitSet, NodeId};
use dagchkpt_failure::FaultInjector;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Global count of [`TrialPlan::compile`] calls — the allocation-regression
/// suite pins this at one per cell, proving plans are shared, not rebuilt.
static COMPILES: AtomicU64 = AtomicU64::new(0);

/// Number of trial plans compiled so far in this process (test hook).
#[doc(hidden)]
pub fn plan_compile_count() -> u64 {
    COMPILES.load(Ordering::Relaxed)
}

/// One (workflow × schedule × costs) cell, flattened into contiguous
/// arrays at setup time and shared read-only by all trial workers.
///
/// Storage-tier pricing needs no special handling: callers compile the
/// plan from the already-scaled workflow copy, so the cost arrays carry
/// the tier prices.
#[derive(Debug, Clone)]
pub struct TrialPlan {
    /// Task count.
    pub(crate) n: usize,
    /// Schedule order (a linearization).
    pub(crate) order: Vec<NodeId>,
    /// Position of each task id in `order` (a permutation of `0..n`).
    pub(crate) positions: Vec<u32>,
    /// `w_i` per task id.
    pub(crate) work: Vec<f64>,
    /// `c_i` per task id (whether checkpointed or not).
    pub(crate) ckpt_cost: Vec<f64>,
    /// `r_i` per task id.
    pub(crate) rec_cost: Vec<f64>,
    /// `c_i` when task `i` is checkpointed, else `0.0` — exactly the
    /// engine's per-block checkpoint branch, precomputed.
    pub(crate) block_ckpt: Vec<f64>,
    /// The schedule's checkpoint set.
    pub(crate) checkpointed: FixedBitSet,
    /// CSR offsets into `pred_ids`; `n + 1` entries.
    pred_offsets: Vec<u32>,
    /// Concatenated predecessor lists, preserving `Dag::preds` order.
    pred_ids: Vec<NodeId>,
}

impl TrialPlan {
    /// Flattens `(wf, schedule)` into the index-addressed arrays above.
    pub fn compile(wf: &Workflow, schedule: &Schedule) -> TrialPlan {
        COMPILES.fetch_add(1, Ordering::Relaxed);
        let n = wf.n_tasks();
        let order = schedule.order().to_vec();
        let mut positions = vec![0u32; n];
        for (i, v) in order.iter().enumerate() {
            positions[v.index()] = i as u32;
        }
        let checkpointed = schedule.checkpoints().clone();
        let work = wf.works().to_vec();
        let ckpt_cost = wf.checkpoint_costs().to_vec();
        let rec_cost = wf.recovery_costs().to_vec();
        let block_ckpt = (0..n)
            .map(|i| {
                if checkpointed.contains(i) {
                    ckpt_cost[i]
                } else {
                    0.0
                }
            })
            .collect();
        let dag = wf.dag();
        let mut pred_offsets = Vec::with_capacity(n + 1);
        let mut pred_ids = Vec::new();
        pred_offsets.push(0u32);
        for i in 0..n {
            pred_ids.extend_from_slice(dag.preds(NodeId(i as u32)));
            pred_offsets.push(pred_ids.len() as u32);
        }
        TrialPlan {
            n,
            order,
            positions,
            work,
            ckpt_cost,
            rec_cost,
            block_ckpt,
            checkpointed,
            pred_offsets,
            pred_ids,
        }
    }

    /// Task count.
    pub fn n_tasks(&self) -> usize {
        self.n
    }

    /// The schedule's checkpoint set (blocking engines recover from it).
    pub fn checkpoints(&self) -> &FixedBitSet {
        &self.checkpointed
    }

    /// Predecessors of `v`, in `Dag::preds` order.
    #[inline]
    pub(crate) fn preds(&self, v: NodeId) -> &[NodeId] {
        let lo = self.pred_offsets[v.index()] as usize;
        let hi = self.pred_offsets[v.index() + 1] as usize;
        &self.pred_ids[lo..hi]
    }

    /// Fills `rec.steps` with the recovery plan for `target` given the
    /// current residency `memory` and the durably-`recoverable` set —
    /// bitwise-equal to [`crate::plan::recovery_plan_with`] without its
    /// four per-call allocations: the DFS `seen` marks are epoch-stamped
    /// (`O(1)` reset), and `positions` is a permutation (all keys
    /// distinct), so the unstable sort reproduces the stable order
    /// without the stable sort's scratch allocation.
    pub(crate) fn fill_recovery(
        &self,
        rec: &mut RecoveryScratch,
        recoverable: &FixedBitSet,
        memory: &FixedBitSet,
        target: NodeId,
    ) {
        rec.epoch += 1;
        let epoch = rec.epoch;
        rec.needed.clear();
        rec.stack.clear();
        rec.stack.push(target);
        while let Some(t) = rec.stack.pop() {
            for &p in self.preds(t) {
                let pi = p.index();
                if rec.seen[pi] == epoch || memory.contains(pi) {
                    continue;
                }
                rec.seen[pi] = epoch;
                rec.needed.push(p);
                if !recoverable.contains(pi) {
                    // Re-executing p needs p's own inputs restored too.
                    rec.stack.push(p);
                }
            }
        }
        let positions = &self.positions;
        rec.needed.sort_unstable_by_key(|v| positions[v.index()]);
        rec.steps.clear();
        for &v in &rec.needed {
            rec.steps.push(if recoverable.contains(v.index()) {
                PlanStep {
                    task: v,
                    kind: UnitKind::Recovery,
                    duration: self.rec_cost[v.index()],
                }
            } else {
                PlanStep {
                    task: v,
                    kind: UnitKind::Rework,
                    duration: self.work[v.index()],
                }
            });
        }
    }
}

/// Reusable buffers for one recovery-plan computation: the epoch-marked
/// DFS state plus the step buffer that replaces the fresh `Vec<PlanStep>`
/// per fault. Every buffer is sized so steady-state fills never
/// reallocate (each task enters `stack`/`needed`/`steps` at most once).
#[derive(Debug, Clone)]
pub struct RecoveryScratch {
    /// `seen[v] == epoch` marks v as visited in the current fill.
    seen: Vec<u64>,
    /// Current fill's epoch stamp.
    epoch: u64,
    /// DFS work stack.
    stack: Vec<NodeId>,
    /// Tasks to restore, pre-sort.
    needed: Vec<NodeId>,
    /// The computed plan, in schedule order.
    pub(crate) steps: Vec<PlanStep>,
}

impl RecoveryScratch {
    fn new(n: usize) -> Self {
        RecoveryScratch {
            seen: vec![0; n],
            epoch: 0,
            stack: Vec::with_capacity(n + 1),
            needed: Vec::with_capacity(n),
            steps: Vec::with_capacity(n),
        }
    }
}

/// Per-worker scratch arena: every mutable buffer a trial needs, created
/// once per fold chunk by the executor's chunk-scoped init and reused for
/// all of the chunk's trials.
#[derive(Debug, Clone)]
pub struct TrialScratch {
    /// Residency bitset (volatile memory).
    pub(crate) memory: FixedBitSet,
    /// Recovery-plan buffers.
    pub(crate) recovery: RecoveryScratch,
    /// Non-blocking engine: checkpoints durably on stable storage.
    pub(crate) durable: FixedBitSet,
    /// Non-blocking engine: in-flight checkpoint writes (task, remaining).
    pub(crate) writes: VecDeque<(NodeId, f64)>,
}

impl TrialScratch {
    /// Scratch for an `n`-task plan.
    pub fn new(n: usize) -> Self {
        TrialScratch {
            memory: FixedBitSet::new(n),
            recovery: RecoveryScratch::new(n),
            durable: FixedBitSet::new(n),
            writes: VecDeque::with_capacity(n),
        }
    }
}

/// Aggregate of one planned trial: [`crate::SimResult`] minus the trace
/// machinery, `Copy` so chunk buffers hold it inline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannedResult {
    /// Total wall-clock time.
    pub makespan: f64,
    /// Number of faults that struck.
    pub n_faults: u64,
    /// Work units run to completion.
    pub time_work: f64,
    /// Re-executed non-checkpointed ancestors.
    pub time_rework: f64,
    /// Recovered checkpointed outputs.
    pub time_recovery: f64,
    /// Successful checkpoint writes.
    pub time_checkpoint: f64,
    /// Partial unit time lost to faults.
    pub time_wasted: f64,
    /// Total downtime.
    pub time_downtime: f64,
}

impl PlannedResult {
    /// The accounting identity: all buckets sum to the makespan.
    pub fn accounted_time(&self) -> f64 {
        self.time_work
            + self.time_rework
            + self.time_recovery
            + self.time_checkpoint
            + self.time_wasted
            + self.time_downtime
    }
}

/// The zero-allocation twin of [`crate::engine::simulate`]: same blocking
/// execution model, same floating-point operations in the same order —
/// bit-identical results — but reading the compiled `plan` instead of
/// traversing the graph, reusing `scratch` instead of allocating, and
/// carrying no trace machinery at all (the no-trace path is
/// allocation-free by construction).
pub fn simulate_planned(
    plan: &TrialPlan,
    scratch: &mut TrialScratch,
    injector: &mut dyn FaultInjector,
    downtime: f64,
) -> PlannedResult {
    scratch.memory.clear();
    let mut t = 0.0f64;
    let mut next_fault = injector.next_fault_after(0.0);
    let mut res = PlannedResult::default();

    // Executes one unit; returns false when a fault struck (memory wiped,
    // downtime paid, next fault rescheduled).
    let mut run_unit = |t: &mut f64,
                        next_fault: &mut f64,
                        memory: &mut FixedBitSet,
                        res: &mut PlannedResult,
                        duration: f64|
     -> bool {
        if *next_fault >= *t + duration {
            *t += duration;
            true
        } else {
            res.time_wasted += *next_fault - *t;
            *t = *next_fault;
            res.n_faults += 1;
            memory.clear();
            *t += downtime;
            res.time_downtime += downtime;
            *next_fault = injector.next_fault_after(*t);
            false
        }
    };

    for idx in 0..plan.n {
        let task = plan.order[idx];
        let w = plan.work[task.index()];
        let c = plan.block_ckpt[task.index()];
        // The X_i block: retry until the plan, the work, and the optional
        // checkpoint all complete without a fault interrupting.
        'block: loop {
            plan.fill_recovery(
                &mut scratch.recovery,
                &plan.checkpointed,
                &scratch.memory,
                task,
            );
            for si in 0..scratch.recovery.steps.len() {
                let step = scratch.recovery.steps[si];
                if !run_unit(
                    &mut t,
                    &mut next_fault,
                    &mut scratch.memory,
                    &mut res,
                    step.duration,
                ) {
                    continue 'block;
                }
                match step.kind {
                    UnitKind::Recovery => res.time_recovery += step.duration,
                    UnitKind::Rework => res.time_rework += step.duration,
                    _ => unreachable!("plans only recover or re-execute"),
                }
                scratch.memory.insert(step.task.index());
            }
            if !run_unit(&mut t, &mut next_fault, &mut scratch.memory, &mut res, w) {
                continue 'block;
            }
            res.time_work += w;
            scratch.memory.insert(task.index());
            if c > 0.0 {
                if !run_unit(&mut t, &mut next_fault, &mut scratch.memory, &mut res, c) {
                    continue 'block;
                }
                res.time_checkpoint += c;
            }
            break 'block;
        }
    }

    res.makespan = t;
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use crate::memory::MemoryState;
    use crate::plan::recovery_plan;
    use dagchkpt_core::CostRule;
    use dagchkpt_dag::{generators, topo};
    use dagchkpt_failure::{ExponentialInjector, NoFaults, TraceInjector};

    /// Differential harness: the planned engine is bit-identical to the
    /// reference engine for every fixture under seeded exponential faults.
    #[test]
    fn planned_engine_is_bit_identical_to_reference() {
        for (wf, s) in fixture_cases() {
            let plan = TrialPlan::compile(&wf, &s);
            let mut scratch = TrialScratch::new(plan.n_tasks());
            for seed in 0..64u64 {
                let mut inj_ref = ExponentialInjector::new(8e-3, seed);
                let reference = simulate(
                    &wf,
                    &s,
                    &mut inj_ref,
                    SimConfig {
                        downtime: 1.5,
                        record_trace: false,
                    },
                );
                let mut inj_fast = ExponentialInjector::new(8e-3, seed);
                let fast = simulate_planned(&plan, &mut scratch, &mut inj_fast, 1.5);
                assert_eq!(reference.makespan.to_bits(), fast.makespan.to_bits());
                assert_eq!(reference.n_faults, fast.n_faults);
                for (a, b) in [
                    (reference.time_work, fast.time_work),
                    (reference.time_rework, fast.time_rework),
                    (reference.time_recovery, fast.time_recovery),
                    (reference.time_checkpoint, fast.time_checkpoint),
                    (reference.time_wasted, fast.time_wasted),
                    (reference.time_downtime, fast.time_downtime),
                ] {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    fn fixture_cases() -> Vec<(Workflow, Schedule)> {
        let mut out = Vec::new();
        for (dag, every) in [
            (generators::paper_figure1(), 2usize),
            (generators::chain(17), 3),
            (generators::grid(4, 5), 1),
            (generators::fork_join(6), 4),
        ] {
            let n = dag.n_nodes();
            let works: Vec<f64> = (0..n).map(|i| 5.0 + (i as f64 * 1.7) % 11.0).collect();
            let wf =
                Workflow::with_cost_rule(dag, works, CostRule::ProportionalToWork { ratio: 0.1 });
            let order = topo::topological_order(wf.dag());
            let ckpt =
                dagchkpt_dag::FixedBitSet::from_indices(n, (0..n).filter(|i| i % every == 0));
            let s = Schedule::new(&wf, order, ckpt).unwrap();
            out.push((wf, s));
        }
        out
    }

    /// The paper's Figure-1 walkthrough (fault at t = 55 during T5) lands
    /// on the same makespan 107 as the reference engine's pinned test.
    #[test]
    fn paper_figure1_walkthrough_on_the_fast_path() {
        let costs: Vec<dagchkpt_core::TaskCosts> = (0..8)
            .map(|i| {
                if i == 3 || i == 4 {
                    dagchkpt_core::TaskCosts::new(10.0, 1.0, 1.0)
                } else {
                    dagchkpt_core::TaskCosts::new(10.0, 0.0, 0.0)
                }
            })
            .collect();
        let wf = Workflow::new(generators::paper_figure1(), costs);
        let order: Vec<NodeId> = [0u32, 3, 1, 2, 4, 5, 6, 7]
            .iter()
            .map(|&i| NodeId(i))
            .collect();
        let mut ckpt = FixedBitSet::new(8);
        ckpt.insert(3);
        ckpt.insert(4);
        let s = Schedule::new(&wf, order, ckpt).unwrap();
        let plan = TrialPlan::compile(&wf, &s);
        let mut scratch = TrialScratch::new(8);
        let mut inj = TraceInjector::new(vec![55.0]);
        let r = simulate_planned(&plan, &mut scratch, &mut inj, 0.0);
        assert!(
            (r.makespan - 107.0).abs() < 1e-12,
            "makespan {}",
            r.makespan
        );
        assert_eq!(r.n_faults, 1);
        assert!((r.time_recovery - 2.0).abs() < 1e-12);
        assert!((r.time_rework - 20.0).abs() < 1e-12);
        assert!((r.accounted_time() - r.makespan).abs() < 1e-9);
    }

    /// `fill_recovery` reproduces `recovery_plan` exactly — steps, kinds,
    /// durations, order — for every (memory, target) combination of the
    /// fixtures, and a scratch reused across fills stays exact.
    #[test]
    fn fill_recovery_matches_recovery_plan() {
        for (wf, s) in fixture_cases() {
            let plan = TrialPlan::compile(&wf, &s);
            let n = plan.n_tasks();
            let mut scratch = TrialScratch::new(n);
            for target in 0..n {
                for mem_pattern in 0..4u64 {
                    let mut mem = MemoryState::new(n);
                    let mut mem_bits = FixedBitSet::new(n);
                    for v in 0..n {
                        if v != target && (v as u64 + mem_pattern).is_multiple_of(3) {
                            mem.store(NodeId(v as u32));
                            mem_bits.insert(v);
                        }
                    }
                    let reference = recovery_plan(&wf, &s, &mem, NodeId(target as u32));
                    plan.fill_recovery(
                        &mut scratch.recovery,
                        plan.checkpoints(),
                        &mem_bits,
                        NodeId(target as u32),
                    );
                    assert_eq!(reference, scratch.recovery.steps, "target {target}");
                }
            }
        }
    }

    /// Scratch reuse across trials leaks no state: interleaving trials
    /// through one scratch matches fresh-scratch runs bit for bit.
    #[test]
    fn scratch_reuse_across_trials_is_stateless() {
        let (wf, s) = fixture_cases().remove(2);
        let plan = TrialPlan::compile(&wf, &s);
        let mut shared = TrialScratch::new(plan.n_tasks());
        for seed in [3u64, 99, 4096] {
            let mut inj = ExponentialInjector::new(2e-2, seed);
            let reused = simulate_planned(&plan, &mut shared, &mut inj, 2.0);
            let mut fresh_scratch = TrialScratch::new(plan.n_tasks());
            let mut inj = ExponentialInjector::new(2e-2, seed);
            let fresh = simulate_planned(&plan, &mut fresh_scratch, &mut inj, 2.0);
            assert_eq!(reused.makespan.to_bits(), fresh.makespan.to_bits());
            assert_eq!(reused.n_faults, fresh.n_faults);
        }
    }

    /// Fault-free run: pure work plus checkpoints, no recovery machinery.
    #[test]
    fn fault_free_planned_run_matches_totals() {
        let wf = Workflow::uniform(generators::fork_join(4), 10.0, 1.0);
        let order = topo::topological_order(wf.dag());
        let s = Schedule::always(&wf, order).unwrap();
        let plan = TrialPlan::compile(&wf, &s);
        let mut scratch = TrialScratch::new(plan.n_tasks());
        let mut inj = NoFaults;
        let r = simulate_planned(&plan, &mut scratch, &mut inj, 0.0);
        assert!((r.makespan - 66.0).abs() < 1e-9); // 6·10 + 6·1
        assert_eq!(r.n_faults, 0);
        assert_eq!(r.time_rework, 0.0);
        assert_eq!(r.time_recovery, 0.0);
    }

    /// The compile counter moves exactly once per `compile` call.
    #[test]
    fn compile_counter_counts_compiles() {
        let (wf, s) = fixture_cases().remove(0);
        let before = plan_compile_count();
        let _p1 = TrialPlan::compile(&wf, &s);
        let _p2 = TrialPlan::compile(&wf, &s);
        assert_eq!(plan_compile_count() - before, 2);
    }
}
