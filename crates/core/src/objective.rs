//! Pluggable optimization objectives: the scalar a checkpoint/replication
//! optimizer minimizes.
//!
//! The paper's sweep hardcoded the homogeneous Theorem-3 evaluator; the
//! [`Objective`] trait decouples *what is optimized* from *how candidates
//! are enumerated*, so the same sweep / local-search / coordinate-descent
//! machinery (`crate::strategies`) runs against:
//!
//! * [`ProxyObjective`] — the homogeneous analytic evaluator
//!   ([`crate::evaluator::evaluate`]), the paper's single-machine view,
//!   which prices sweep runs incrementally ([`SweepEvaluator`]);
//! * [`ReplicatedEvaluator`] — the exact replication-aware evaluator
//!   ([`crate::evaluator::replicated`]) for heterogeneous platforms, which
//!   prices sweep runs on the same incremental engine;
//! * `McObjective` (in `dagchkpt-sim`) — a Monte-Carlo estimate, the
//!   backend of last resort for semantics no closed form covers.
//!
//! Implementations must be deterministic: two calls with the same schedule
//! return the same value (the sweeps evaluate candidates in parallel and
//! tie-break on budget order, so a noisy objective would make results
//! depend on scheduling).

use crate::evaluator;
use crate::evaluator::replicated::ReplicatedEvaluator;
use crate::evaluator::SweepEvaluator;
use crate::model::Workflow;
use crate::schedule::Schedule;
use dagchkpt_dag::FixedBitSet;
use dagchkpt_failure::FaultModel;

/// A deterministic scalar cost over schedules — lower is better. `Sync`
/// because sweeps evaluate candidate schedules in parallel.
pub trait Objective: Sync {
    /// The cost of `schedule` (expected makespan, for every built-in
    /// backend).
    fn cost(&self, schedule: &Schedule) -> f64;

    /// Short backend label for reports (`proxy`, `replicated`, `mc`).
    fn label(&self) -> &'static str;

    /// The cost quantile a quantile-targeted sweep minimizes
    /// ([`crate::strategies::optimize_checkpoints_quantile`]). The
    /// default falls back to the mean — analytic backends have no
    /// distribution, so for them quantile optimization degenerates to
    /// mean optimization (documented, deterministic). Sampling backends
    /// override this with a sketch estimate.
    fn cost_quantile(&self, schedule: &Schedule, _q: f64) -> f64 {
        self.cost(schedule)
    }

    /// The costs of a run of checkpoint sets on `base`'s linearization
    /// (`base`'s own set is ignored), in order: the hook through which the
    /// budget sweeps and the local search price their candidates, in
    /// contiguous runs shared among the workers. The default forwards
    /// every set to [`cost`]. A backend with a stateful evaluator overrides
    /// it to reuse work between neighbouring sets; the override must return
    /// exactly the bits [`cost`] would.
    ///
    /// [`cost`]: Objective::cost
    fn cost_run(&self, base: &Schedule, sets: &[FixedBitSet]) -> Vec<f64> {
        sets.iter()
            .map(|set| self.cost(&base.with_checkpoints(set.clone())))
            .collect()
    }
}

/// The paper's single-machine proxy: the homogeneous Theorem-3 evaluator
/// under an exponential [`FaultModel`].
pub struct ProxyObjective<'a> {
    wf: &'a Workflow,
    model: FaultModel,
}

impl<'a> ProxyObjective<'a> {
    /// Proxy objective for `wf` under `model`.
    pub fn new(wf: &'a Workflow, model: FaultModel) -> Self {
        ProxyObjective { wf, model }
    }
}

impl Objective for ProxyObjective<'_> {
    fn cost(&self, schedule: &Schedule) -> f64 {
        evaluator::expected_makespan(self.wf, self.model, schedule)
    }

    fn label(&self) -> &'static str {
        "proxy"
    }

    /// One [`SweepEvaluator`] for the whole run, freed on return.
    fn cost_run(&self, base: &Schedule, sets: &[FixedBitSet]) -> Vec<f64> {
        let mut ev = SweepEvaluator::new(self.wf, self.model, base.order());
        sets.iter().map(|set| ev.expected_makespan(set)).collect()
    }
}

impl Objective for ReplicatedEvaluator<'_> {
    fn cost(&self, schedule: &Schedule) -> f64 {
        self.expected_makespan(schedule)
    }

    fn label(&self) -> &'static str {
        "replicated"
    }

    /// One engine for the whole run, freed on return.
    fn cost_run(&self, base: &Schedule, sets: &[FixedBitSet]) -> Vec<f64> {
        let mut engine = self.engine(base.order());
        sets.iter()
            .map(|set| engine.evaluate(set).expected_makespan)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostRule;
    use dagchkpt_dag::{generators, topo};
    use dagchkpt_failure::HeteroPlatform;

    #[test]
    fn proxy_objective_is_the_homogeneous_evaluator_bitwise() {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let model = FaultModel::new(2e-3, 1.0);
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let obj = ProxyObjective::new(&wf, model);
        assert_eq!(
            obj.cost(&s).to_bits(),
            evaluator::expected_makespan(&wf, model, &s).to_bits()
        );
        assert_eq!(obj.label(), "proxy");
    }

    #[test]
    fn replicated_objective_is_the_replicated_evaluator_bitwise() {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let platform = HeteroPlatform::homogeneous(2, 3e-3, 1.0).unwrap();
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let ev = ReplicatedEvaluator::from_degrees(&wf, &platform, &[2; 8]);
        let direct =
            crate::evaluator::replicated::expected_makespan_replicated(&wf, &platform, &s, &[2; 8]);
        assert_eq!(Objective::cost(&ev, &s).to_bits(), direct.to_bits());
        assert_eq!(Objective::label(&ev), "replicated");
    }

    /// The default `cost_quantile` falls back to `cost` bitwise: analytic
    /// backends have no distribution, so quantile optimization degenerates
    /// to the mean, for any q.
    #[test]
    fn default_quantile_is_the_mean_bitwise() {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let model = FaultModel::new(2e-3, 1.0);
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let obj = ProxyObjective::new(&wf, model);
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(obj.cost_quantile(&s, q).to_bits(), obj.cost(&s).to_bits());
        }
    }
}
