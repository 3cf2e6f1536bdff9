//! A Monte-Carlo-backed [`Objective`]: estimate a schedule's expected
//! makespan by running the blocking engine(s) over a fixed, seeded
//! [`TrialSpec`], and let the generic optimizers
//! (`dagchkpt_core::strategies`) sweep against the estimate.
//!
//! This is the backend of last resort — use it when no closed form covers
//! the semantics (e.g. prototyping a new failure process) or to sanity-
//! check the analytic backends end to end. Two caveats the analytic
//! objectives do not have:
//!
//! * the cost is an **estimate**: optimizer decisions inside ~2 standard
//!   errors are noise, so use enough trials for the gaps you care about;
//! * it is **deterministic but seed-pinned**: the same `(schedule, spec)`
//!   always returns the same value (chunk-folded accumulators, fixed
//!   per-trial seeds), which is what makes it usable inside the parallel
//!   sweeps at all — but a different master seed is a different objective.

use crate::montecarlo::{run_trials_with, TrialSpec, TrialStats};
use crate::replicated::run_replicated_sets_trials_with;
use dagchkpt_core::{Objective, Schedule, Workflow};
use dagchkpt_failure::{ExponentialInjector, FaultModel, HeteroPlatform};

/// Which platform the Monte-Carlo estimate runs on.
enum Backend<'a> {
    /// The paper's single machine under exponential faults.
    Homogeneous { model: FaultModel },
    /// A heterogeneous platform with fixed per-task replica sets,
    /// exponential faults at each processor's own rate.
    Replicated {
        platform: &'a HeteroPlatform,
        sets: Vec<Vec<usize>>,
    },
}

/// Monte-Carlo estimator of the expected makespan, usable as an
/// optimization [`Objective`].
pub struct McObjective<'a> {
    wf: &'a Workflow,
    spec: TrialSpec,
    backend: Backend<'a>,
}

impl<'a> McObjective<'a> {
    /// Estimator on the homogeneous machine of `model`.
    pub fn homogeneous(wf: &'a Workflow, model: FaultModel, spec: TrialSpec) -> Self {
        McObjective {
            wf,
            spec,
            backend: Backend::Homogeneous { model },
        }
    }

    /// Estimator on `platform` with per-task replica `sets` (processor
    /// indices into `platform.procs()`).
    pub fn replicated(
        wf: &'a Workflow,
        platform: &'a HeteroPlatform,
        sets: Vec<Vec<usize>>,
        spec: TrialSpec,
    ) -> Self {
        McObjective {
            wf,
            spec,
            backend: Backend::Replicated { platform, sets },
        }
    }

    /// The seeded trial run behind every cost query — one code path, so
    /// `cost` and `cost_quantile` see the same trials.
    fn trial_stats(&self, schedule: &Schedule) -> TrialStats {
        match &self.backend {
            Backend::Homogeneous { model } => {
                run_trials_with(self.wf, schedule, model.downtime(), self.spec, |seed| {
                    ExponentialInjector::new(model.lambda(), seed)
                })
            }
            Backend::Replicated { platform, sets } => run_replicated_sets_trials_with(
                self.wf,
                schedule,
                platform,
                sets,
                self.spec,
                |rank, seed| ExponentialInjector::new(platform.procs()[rank].lambda, seed),
            ),
        }
    }
}

impl Objective for McObjective<'_> {
    fn cost(&self, schedule: &Schedule) -> f64 {
        self.trial_stats(schedule).makespan.mean()
    }

    fn label(&self) -> &'static str {
        "mc"
    }

    fn cost_quantile(&self, schedule: &Schedule, q: f64) -> f64 {
        self.trial_stats(schedule).tail.quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagchkpt_core::{
        expected_makespan, optimize_checkpoints, optimize_checkpoints_with, CheckpointStrategy,
        CostRule, SweepPolicy,
    };
    use dagchkpt_dag::{generators, topo};

    fn wf() -> Workflow {
        Workflow::with_cost_rule(
            generators::chain(6),
            vec![50.0, 10.0, 40.0, 20.0, 60.0, 30.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        )
    }

    /// The MC objective is a consistent estimator: close to the analytic
    /// value, and bit-stable across repeated calls (a requirement for use
    /// inside parallel sweeps).
    #[test]
    fn mc_objective_estimates_the_analytic_value_deterministically() {
        let wf = wf();
        let model = FaultModel::new(5e-3, 1.0);
        let s = dagchkpt_core::Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let obj = McObjective::homogeneous(&wf, model, TrialSpec::new(20_000, 7));
        let a = obj.cost(&s);
        let b = obj.cost(&s);
        assert_eq!(a.to_bits(), b.to_bits(), "estimator must be deterministic");
        let exact = expected_makespan(&wf, model, &s);
        let rel = (a - exact).abs() / exact;
        assert!(rel < 0.02, "MC {a} vs analytic {exact} (rel {rel})");
        assert_eq!(obj.label(), "mc");
    }

    /// Sweeping against the MC backend lands within estimator noise of the
    /// analytic sweep on the same candidate family.
    #[test]
    fn mc_backed_sweep_tracks_the_analytic_sweep() {
        let wf = wf();
        let model = FaultModel::new(5e-3, 1.0);
        let order = topo::topological_order(wf.dag());
        let analytic = optimize_checkpoints(
            &wf,
            model,
            &order,
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Exhaustive,
        );
        let obj = McObjective::homogeneous(&wf, model, TrialSpec::new(20_000, 11));
        let mc = optimize_checkpoints_with(
            &wf,
            &obj,
            &order,
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Exhaustive,
        );
        // The MC winner, re-scored analytically, must be within noise of
        // the analytic optimum over the same candidates.
        let rescored = expected_makespan(&wf, model, &mc.schedule);
        let rel = (rescored - analytic.expected_makespan) / analytic.expected_makespan;
        assert!(
            rel.abs() < 0.05,
            "MC-backed sweep rescored {rescored} vs analytic {}",
            analytic.expected_makespan
        );
        assert_eq!(mc.evaluated, analytic.evaluated);
    }

    /// The replicated MC backend agrees with the exact set evaluator.
    #[test]
    fn replicated_mc_objective_matches_set_evaluator() {
        use dagchkpt_failure::Processor;
        let wf = wf();
        let platform = HeteroPlatform::new(
            vec![
                Processor {
                    speed: 2.0,
                    ..Processor::reference(4e-3)
                },
                Processor::reference(1e-3),
            ],
            1.0,
        )
        .unwrap();
        let s = dagchkpt_core::Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let mut sets = vec![vec![0usize, 1]; 6];
        sets[2] = vec![1]; // one non-prefix choice in the mix
        let obj = McObjective::replicated(&wf, &platform, sets.clone(), TrialSpec::new(20_000, 5));
        let mc = obj.cost(&s);
        let exact =
            dagchkpt_core::evaluate_replicated_sets(&wf, &platform, &s, &sets).expected_makespan;
        let rel = (mc - exact).abs() / exact;
        assert!(rel < 0.02, "MC {mc} vs exact {exact} (rel {rel})");
    }

    /// `cost` and `cost_quantile` read the very trials `run_trials_with`
    /// runs: the mean and every tail quantile match it bitwise.
    #[test]
    fn cost_and_quantile_read_the_trials_of_run_trials_with() {
        let wf = wf();
        let model = FaultModel::new(5e-3, 1.0);
        let s = dagchkpt_core::Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let spec = TrialSpec::new(4_000, 13);
        let obj = McObjective::homogeneous(&wf, model, spec);
        let stats = run_trials_with(&wf, &s, model.downtime(), spec, |seed| {
            ExponentialInjector::new(model.lambda(), seed)
        });
        assert_eq!(stats.tail.count(), 4_000);
        assert_eq!(obj.cost(&s).to_bits(), stats.makespan.mean().to_bits());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(
                obj.cost_quantile(&s, q).to_bits(),
                stats.tail.quantile(q).to_bits(),
                "q = {q}"
            );
        }
        // Heavy-tailed makespans: the p99 sits above the mean.
        assert!(obj.cost_quantile(&s, 0.99) > obj.cost(&s));
    }

    /// A quantile-targeted sweep against the MC backend runs end to end
    /// and returns a schedule whose p99 key is finite and no worse than
    /// the endpoints' (it searched the same family).
    #[test]
    fn quantile_sweep_against_mc_backend_runs_end_to_end() {
        use dagchkpt_core::optimize_checkpoints_quantile;
        let wf = wf();
        let model = FaultModel::new(5e-3, 1.0);
        let order = topo::topological_order(wf.dag());
        let obj = McObjective::homogeneous(&wf, model, TrialSpec::new(4_000, 19));
        let r = optimize_checkpoints_quantile(
            &wf,
            &obj,
            &order,
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Exhaustive,
            0.99,
        );
        assert!(r.expected_makespan.is_finite());
        assert_eq!(r.evaluated, wf.n_tasks() + 1);
        let p99_winner = obj.cost_quantile(&r.schedule, 0.99);
        assert_eq!(p99_winner.to_bits(), r.expected_makespan.to_bits());
    }
}
