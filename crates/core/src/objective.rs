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
//! * [`ReplicatedEvaluator`] — the exact replication-aware evaluator with
//!   memoized per-attempt statistics
//!   ([`crate::evaluator::replicated`]), for heterogeneous platforms;
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

/// A distribution summary of a schedule's cost: what a backend knows about
/// the makespan beyond its mean.
///
/// Analytic backends (the Theorem-3 proxy, the exact replicated
/// evaluator) compute expectations only and return
/// [`CostSummary::mean_only`] — `NaN` variance and quantiles, zero
/// trials, matching the all-`NaN` empty-statistics convention elsewhere.
/// Sampling backends (`McObjective` in `dagchkpt-sim`) fill every field
/// from the same trials that produced the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSummary {
    /// Expected makespan — always present; bit-identical to
    /// [`Objective::cost`] on the same schedule.
    pub mean: f64,
    /// Sample variance of the makespan (`NaN` for analytic backends).
    pub variance: f64,
    /// Median makespan estimate (`NaN` for analytic backends).
    pub p50: f64,
    /// 95th-percentile makespan estimate (`NaN` for analytic backends).
    pub p95: f64,
    /// 99th-percentile makespan estimate (`NaN` for analytic backends).
    pub p99: f64,
    /// Trials behind the estimates (0 for analytic backends).
    pub trials: u64,
}

impl CostSummary {
    /// The summary of a backend that only knows the expectation.
    pub fn mean_only(mean: f64) -> Self {
        CostSummary {
            mean,
            variance: f64::NAN,
            p50: f64::NAN,
            p95: f64::NAN,
            p99: f64::NAN,
            trials: 0,
        }
    }

    /// Whether this summary carries no distribution information beyond
    /// the mean (the analytic-backend shape).
    pub fn is_mean_only(&self) -> bool {
        self.trials == 0
    }
}

/// A deterministic scalar cost over schedules — lower is better. `Sync`
/// because sweeps evaluate candidate schedules in parallel.
pub trait Objective: Sync {
    /// The cost of `schedule` (expected makespan, for every built-in
    /// backend).
    fn cost(&self, schedule: &Schedule) -> f64;

    /// Short backend label for reports (`proxy`, `replicated`, `mc`).
    fn label(&self) -> &'static str;

    /// The full cost distribution summary. The default wraps [`cost`]
    /// into a mean-only summary, so analytic backends stay bitwise
    /// untouched; sampling backends override it to expose quantiles.
    ///
    /// [`cost`]: Objective::cost
    fn cost_summary(&self, schedule: &Schedule) -> CostSummary {
        CostSummary::mean_only(self.cost(schedule))
    }

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

    /// The default `cost_summary`/`cost_quantile` wrap `cost` bitwise, so
    /// analytic backends gain the distribution API without any numeric
    /// change.
    #[test]
    fn default_summary_is_a_mean_only_wrapper_bitwise() {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let model = FaultModel::new(2e-3, 1.0);
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let obj = ProxyObjective::new(&wf, model);
        let summary = obj.cost_summary(&s);
        assert_eq!(summary.mean.to_bits(), obj.cost(&s).to_bits());
        assert!(summary.is_mean_only());
        assert_eq!(summary.trials, 0);
        assert!(summary.variance.is_nan());
        assert!(summary.p50.is_nan() && summary.p95.is_nan() && summary.p99.is_nan());
        // Quantile optimization degenerates to the mean on analytic
        // backends, for any q.
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(obj.cost_quantile(&s, q).to_bits(), obj.cost(&s).to_bits());
        }
    }
}
