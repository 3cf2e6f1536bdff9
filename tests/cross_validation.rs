//! Statistical cross-validation of the paper's central correctness claim:
//! the analytic expected makespan of Theorem 3 matches the Monte-Carlo mean
//! of operational schedule execution under exponential faults.
//!
//! For each instance the sample mean over `TRIALS` simulations must lie
//! within a 3-sigma confidence band (3 standard errors) of the analytic
//! value. Both the simulator and the instance generation are seeded, so
//! every run draws exactly the same trials and the assertions are
//! deterministic — the band is about honest statistical distance, not about
//! taming run-to-run flakiness.

use dagchkpt::core::evaluator;
use dagchkpt::dag::generators;
use dagchkpt::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const TRIALS: usize = 20_000;

/// A small random layered DAG with gamma-free random costs.
fn random_workflow(seed: u64, n: usize) -> Workflow {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dag = generators::layered_random(&mut rng, n, 4, 0.35);
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(2.0..40.0)).collect();
    Workflow::with_cost_rule(dag, weights, CostRule::ProportionalToWork { ratio: 0.1 })
}

/// Solves the instance with the paper's best heuristic (DF + CkptW sweep)
/// and cross-validates analytic vs Monte-Carlo on the resulting schedule.
fn assert_within_3_sigma(wf: &Workflow, model: FaultModel, seed: u64, label: &str) {
    let h = Heuristic {
        lin: LinearizationStrategy::DepthFirst,
        ckpt: CheckpointStrategy::ByDecreasingWork,
    };
    let r = run_heuristic(wf, model, h, SweepPolicy::Exhaustive);
    let report = evaluator::evaluate(wf, model, &r.schedule);
    let stats = run_trials(wf, &r.schedule, model, TrialSpec::new(TRIALS, seed));
    let sem = stats.makespan.sem();
    assert!(sem > 0.0, "{label}: degenerate sample");
    let z = (stats.makespan.mean() - report.expected_makespan) / sem;
    assert!(
        z.abs() <= 3.0,
        "{label}: Monte-Carlo mean {} ± {sem} is {z:.2} sigma from analytic {}",
        stats.makespan.mean(),
        report.expected_makespan,
    );
    // The expected fault count of Theorem 3 must match the injector too.
    let fz = (stats.faults.mean() - report.expected_faults) / stats.faults.sem();
    assert!(
        fz.abs() <= 3.0,
        "{label}: fault count {} is {fz:.2} sigma from analytic {}",
        stats.faults.mean(),
        report.expected_faults,
    );
}

#[test]
fn random_dags_match_theorem3_within_3_sigma() {
    for (i, (n, lambda, downtime)) in [
        (8, 3e-3, 0.0),
        (12, 2e-3, 1.0),
        (16, 1.5e-3, 2.0),
        (20, 1e-3, 0.5),
    ]
    .into_iter()
    .enumerate()
    {
        let wf = random_workflow(1000 + i as u64, n);
        let model = FaultModel::new(lambda, downtime);
        assert_within_3_sigma(
            &wf,
            model,
            31 + i as u64,
            &format!("random dag #{i} (n={n})"),
        );
    }
}

#[test]
fn structured_dags_match_theorem3_within_3_sigma() {
    let cases: Vec<(Workflow, f64)> = vec![
        (Workflow::uniform(generators::fork_join(5), 12.0, 1.2), 3e-3),
        (Workflow::uniform(generators::grid(3, 4), 9.0, 0.9), 2e-3),
        (
            Workflow::with_cost_rule(
                generators::paper_figure1(),
                vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
                CostRule::Constant { value: 1.5 },
            ),
            4e-3,
        ),
    ];
    for (i, (wf, lambda)) in cases.into_iter().enumerate() {
        let model = FaultModel::new(lambda, 1.0);
        assert_within_3_sigma(&wf, model, 77 + i as u64, &format!("structured #{i}"));
    }
}

#[test]
fn pegasus_workflow_matches_theorem3_within_3_sigma() {
    let wf = PegasusKind::CyberShake.generate(40, CostRule::ProportionalToWork { ratio: 0.1 }, 5);
    let model = FaultModel::new(5e-4, 2.0);
    assert_within_3_sigma(&wf, model, 123, "cybershake-40");
}

// ---------------------------------------------------------------------------
// Scenario-spec-driven differential validation: the declarative campaign
// engine runs a grid of small workflows × fault rates through the analytic
// evaluator, the blocking Monte-Carlo engine, and (where its semantics
// provably coincide with blocking) the non-blocking engine, and the three
// must agree within 3 standard errors.
// ---------------------------------------------------------------------------

mod differential {
    use dagchkpt_bench::{
        run_scenario, ArrivalSpec, CellResult, FailureSpec, ObjectiveSpec, OptimizerSpec,
        ScenarioSpec, SeedPolicy, SimulatorSpec, StorageSpec, StrategySpec, SweepSpec, TenancySpec,
        WorkflowSource,
    };
    use dagchkpt_core::{CheckpointStrategy, CostRule, LinearizationStrategy};

    fn base_spec(name: &str, workflows: Vec<WorkflowSource>) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            description: String::new(),
            workflows,
            sizes: vec![6, 10],
            failures: vec![FailureSpec::LambdaSweep {
                lambdas: vec![2e-3, 8e-3],
                downtime: 1.0,
            }],
            strategies: vec![],
            simulators: vec![],
            seed: 2027,
            seed_policy: SeedPolicy::SpecHash,
            sweep: SweepSpec::Exhaustive,
            platforms: vec![],
            replications: vec![],
            optimizer: OptimizerSpec::Proxy,
            objective: ObjectiveSpec::Mean,
            arrivals: ArrivalSpec::Off,
            tenancy: TenancySpec::default(),
            storage: StorageSpec::default(),
        }
    }

    fn heuristic(ckpt: CheckpointStrategy) -> StrategySpec {
        StrategySpec::Heuristic {
            lin: LinearizationStrategy::DepthFirst,
            ckpt,
        }
    }

    /// Groups a scenario's rows into (analytic, mc, nb) triples per
    /// (cell, strategy) and applies `check`.
    fn for_each_triple(rows: &[CellResult], check: impl Fn(&CellResult, &CellResult, &CellResult)) {
        assert!(!rows.is_empty());
        for triple in rows.chunks(3) {
            let [a, m, nb] = triple else {
                panic!("expected (analytic, mc, nb) triples, got {}", triple.len());
            };
            assert_eq!(a.simulator, "analytic");
            assert_eq!(m.simulator, "mc");
            assert!(nb.simulator.starts_with("nb_"), "{}", nb.simulator);
            check(a, m, nb);
        }
    }

    const TRIALS: usize = 6_000;

    fn sims(compute_rate: f64) -> Vec<SimulatorSpec> {
        vec![
            SimulatorSpec::Analytic,
            SimulatorSpec::MonteCarlo { trials: TRIALS },
            SimulatorSpec::NonBlocking {
                trials: TRIALS,
                compute_rate,
            },
        ]
    }

    /// Checkpoint-free chain schedules: with no checkpoints there are no
    /// writes to overlap, so the non-blocking engine degenerates to the
    /// blocking one and all three estimates must agree.
    #[test]
    fn chain_without_checkpoints_blocking_nonblocking_analytic_agree() {
        let mut spec = base_spec(
            "diff-ckptnvr",
            vec![WorkflowSource::RandomChain {
                min_weight: 4.0,
                max_weight: 30.0,
                rule: CostRule::ProportionalToWork { ratio: 0.1 },
                default_lambda: 2e-3,
            }],
        );
        spec.strategies = vec![heuristic(CheckpointStrategy::Never)];
        spec.simulators = sims(1.0);
        let rows = run_scenario(&spec).unwrap();
        assert_eq!(rows.len(), 2 * 2 * 3);
        for_each_triple(&rows, |a, m, nb| {
            assert!(m.z.abs() <= 3.0, "blocking MC: z = {:.2}", m.z);
            let z_nb = (nb.mc_mean - a.expected) / nb.mc_sem;
            assert!(z_nb.abs() <= 3.0, "non-blocking MC: z = {z_nb:.2}");
            // Identical trial seeds and coinciding semantics: per-trial
            // makespans match, so the means do too (up to float op order).
            let rel = (nb.mc_mean - m.mc_mean).abs() / m.mc_mean;
            assert!(rel <= 1e-9, "nb vs blocking drifted: rel {rel:e}");
        });
    }

    /// Zero-cost checkpoints: writes complete instantly, so blocking and
    /// non-blocking coincide even with every task checkpointed — at any
    /// interference factor.
    #[test]
    fn chain_with_free_checkpoints_blocking_nonblocking_analytic_agree() {
        let mut spec = base_spec(
            "diff-freeckpt",
            vec![WorkflowSource::RandomChain {
                min_weight: 4.0,
                max_weight: 30.0,
                rule: CostRule::Constant { value: 0.0 },
                default_lambda: 2e-3,
            }],
        );
        spec.strategies = vec![heuristic(CheckpointStrategy::Always)];
        spec.simulators = sims(0.7);
        let rows = run_scenario(&spec).unwrap();
        for_each_triple(&rows, |a, m, nb| {
            assert!(m.z.abs() <= 3.0, "blocking MC: z = {:.2}", m.z);
            let z_nb = (nb.mc_mean - a.expected) / nb.mc_sem;
            assert!(z_nb.abs() <= 3.0, "non-blocking MC: z = {z_nb:.2}");
            let rel = (nb.mc_mean - m.mc_mean).abs() / m.mc_mean;
            assert!(rel <= 1e-9, "nb vs blocking drifted: rel {rel:e}");
        });
    }

    /// General DAGs (where non-blocking genuinely differs): the blocking
    /// engine still matches the analytic evaluator on every grid point,
    /// and the swept CkptW schedule is exercised end to end.
    #[test]
    fn layered_grid_blocking_matches_analytic() {
        let mut spec = base_spec(
            "diff-layered",
            vec![
                WorkflowSource::RandomLayered {
                    max_width: 4,
                    edge_prob: 0.35,
                    min_weight: 2.0,
                    max_weight: 40.0,
                    rule: CostRule::ProportionalToWork { ratio: 0.1 },
                    default_lambda: 2e-3,
                },
                WorkflowSource::RandomChain {
                    min_weight: 4.0,
                    max_weight: 30.0,
                    rule: CostRule::Constant { value: 1.5 },
                    default_lambda: 2e-3,
                },
            ],
        );
        spec.sizes = vec![8, 14];
        spec.strategies = vec![
            heuristic(CheckpointStrategy::ByDecreasingWork),
            heuristic(CheckpointStrategy::Always),
        ];
        spec.simulators = vec![
            SimulatorSpec::Analytic,
            SimulatorSpec::MonteCarlo { trials: TRIALS },
        ];
        let rows = run_scenario(&spec).unwrap();
        // 2 sources × 2 sizes × 2 λ × 2 strategies × 2 simulators.
        assert_eq!(rows.len(), 32);
        for pair in rows.chunks(2) {
            let (a, m) = (&pair[0], &pair[1]);
            assert_eq!(a.simulator, "analytic");
            assert_eq!(m.simulator, "mc");
            assert!(
                m.z.abs() <= 3.0,
                "{} {} n={} λ={:e}: z = {:.2}",
                m.workflow,
                m.strategy,
                m.n,
                m.lambda,
                m.z
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Replication cells: the replication-aware analytic evaluator, the blocking
// replicated engine and the non-blocking replicated engine must agree within
// 3 standard errors on chains, forks, joins and two Pegasus workflows — and
// a degenerate single-processor platform must reproduce today's homogeneous
// results bit for bit.
// ---------------------------------------------------------------------------

mod replication {
    use dagchkpt::core::{CheckpointStrategy, CostRule, LinearizationStrategy};
    use dagchkpt::dag::generators;
    use dagchkpt::prelude::*;
    use dagchkpt_bench::{
        run_scenario, ArrivalSpec, CellResult, FailureSpec, ObjectiveSpec, OptimizerSpec,
        PlatformSpec, ReplicationSpec, ScenarioSpec, SeedPolicy, SimulatorSpec, StorageSpec,
        StrategySpec, SweepSpec, TenancySpec, WorkflowSource,
    };
    use dagchkpt_workflows::WorkflowSpec;

    const TRIALS: usize = 6_000;

    fn inline(name: &str, wf: &Workflow) -> WorkflowSource {
        WorkflowSource::Inline {
            name: name.to_string(),
            workflow: WorkflowSpec::from_workflow(wf, None),
            default_lambda: 2e-3,
        }
    }

    /// The regression grid: a random chain, a fork, a join, and two Pegasus
    /// applications (CyberShake and Genome at 50 tasks).
    fn shapes() -> Vec<WorkflowSource> {
        let rule = CostRule::ProportionalToWork { ratio: 0.1 };
        vec![
            WorkflowSource::RandomChain {
                min_weight: 4.0,
                max_weight: 30.0,
                rule,
                default_lambda: 2e-3,
            },
            inline("fork", &Workflow::uniform(generators::fork(8), 14.0, 1.4)),
            inline("join", &Workflow::uniform(generators::join(8), 14.0, 1.4)),
            WorkflowSource::Pegasus {
                kind: PegasusKind::CyberShake,
                rule,
            },
            WorkflowSource::Pegasus {
                kind: PegasusKind::Genome,
                rule,
            },
        ]
    }

    fn base_spec(name: &str, ckpt: CheckpointStrategy) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            description: String::new(),
            workflows: shapes(),
            sizes: vec![50],
            // Each application at its calibrated λ (Genome's tasks are an
            // order of magnitude heavier — at a chain-ish λ its per-block
            // success probability collapses to ~e^{−10} and the Monte-Carlo
            // attempt count explodes, exactly like the homogeneous case).
            failures: vec![FailureSpec::SourceDefault { downtime: 1.0 }],
            strategies: vec![StrategySpec::Heuristic {
                lin: LinearizationStrategy::DepthFirst,
                ckpt,
            }],
            simulators: vec![],
            seed: 2028,
            seed_policy: SeedPolicy::SpecHash,
            sweep: SweepSpec::Auto,
            platforms: vec![PlatformSpec::Spread {
                count: 3,
                speed_spread: 2.0,
                rate_spread: 3.0,
            }],
            replications: vec![
                ReplicationSpec::Uniform { degree: 2 },
                ReplicationSpec::Heaviest {
                    degree: 3,
                    count: 10,
                },
            ],
            optimizer: OptimizerSpec::Proxy,
            objective: ObjectiveSpec::Mean,
            arrivals: ArrivalSpec::Off,
            tenancy: TenancySpec::default(),
            storage: StorageSpec::default(),
        }
    }

    /// Blocking replicated Monte-Carlo vs the replication-aware analytic
    /// evaluator, with real swept checkpoints, on every shape of the grid.
    #[test]
    fn replicated_blocking_mc_matches_replicated_evaluator_within_3_sigma() {
        let mut spec = base_spec("rep-blocking", CheckpointStrategy::ByDecreasingWork);
        spec.simulators = vec![
            SimulatorSpec::Analytic,
            SimulatorSpec::MonteCarlo { trials: TRIALS },
        ];
        let rows = run_scenario(&spec).unwrap();
        // 5 shapes × 1 failure × 1 platform × 2 replications × 2 sims.
        assert_eq!(rows.len(), 20);
        for pair in rows.chunks(2) {
            let (a, m) = (&pair[0], &pair[1]);
            assert_eq!(a.simulator, "analytic");
            assert_eq!(m.simulator, "mc");
            assert!(
                m.z.abs() <= 3.0,
                "{} {} {}: z = {:.2} (MC {} vs analytic {})",
                m.workflow,
                m.platform,
                m.replication,
                m.z,
                m.mc_mean,
                m.expected
            );
        }
    }

    /// With no checkpoints there is nothing to write: the non-blocking
    /// replicated engine coincides with the blocking one trial by trial,
    /// and both sit within 3σ of the analytic value.
    #[test]
    fn replicated_blocking_nonblocking_analytic_agree_without_checkpoints() {
        let mut spec = base_spec("rep-triple", CheckpointStrategy::Never);
        spec.simulators = vec![
            SimulatorSpec::Analytic,
            SimulatorSpec::MonteCarlo { trials: TRIALS },
            SimulatorSpec::NonBlocking {
                trials: TRIALS,
                compute_rate: 0.7,
            },
        ];
        let rows = run_scenario(&spec).unwrap();
        assert_eq!(rows.len(), 30);
        for triple in rows.chunks(3) {
            let [a, m, nb] = triple else { unreachable!() };
            assert_eq!(a.simulator, "analytic");
            assert_eq!(m.simulator, "mc");
            assert_eq!(nb.simulator, "nb_0.7");
            assert!(m.z.abs() <= 3.0, "blocking z = {:.2}", m.z);
            let z_nb = (nb.mc_mean - a.expected) / nb.mc_sem;
            assert!(z_nb.abs() <= 3.0, "non-blocking z = {z_nb:.2}");
            let rel = (nb.mc_mean - m.mc_mean).abs() / m.mc_mean;
            assert!(rel <= 1e-9, "nb vs blocking drifted: rel {rel:e}");
        }
    }

    /// Zero-cost checkpoints are durable instantly: blocking and
    /// non-blocking replicated engines coincide even fully checkpointed.
    #[test]
    fn replicated_free_checkpoints_blocking_equals_nonblocking() {
        let mut spec = base_spec("rep-free", CheckpointStrategy::Always);
        spec.workflows = vec![WorkflowSource::RandomChain {
            min_weight: 4.0,
            max_weight: 30.0,
            rule: CostRule::Constant { value: 0.0 },
            default_lambda: 2e-3,
        }];
        spec.simulators = vec![
            SimulatorSpec::Analytic,
            SimulatorSpec::MonteCarlo { trials: TRIALS },
            SimulatorSpec::NonBlocking {
                trials: TRIALS,
                compute_rate: 1.0,
            },
        ];
        let rows = run_scenario(&spec).unwrap();
        for triple in rows.chunks(3) {
            let [a, m, nb] = triple else { unreachable!() };
            assert!(m.z.abs() <= 3.0, "blocking z = {:.2}", m.z);
            let z_nb = (nb.mc_mean - a.expected) / nb.mc_sem;
            assert!(z_nb.abs() <= 3.0, "non-blocking z = {z_nb:.2}");
            let rel = (nb.mc_mean - m.mc_mean).abs() / m.mc_mean;
            assert!(rel <= 1e-9, "nb vs blocking drifted: rel {rel:e}");
        }
    }

    fn numeric_fields(r: &CellResult) -> (u64, u64, u64, Option<usize>) {
        (
            r.expected.to_bits(),
            r.mc_mean.to_bits(),
            r.mc_sem.to_bits(),
            r.best_n,
        )
    }

    /// A degenerate single-processor platform with degree-1 replication
    /// reproduces today's homogeneous rows **bit for bit**, across every
    /// shape and both Monte-Carlo engines.
    #[test]
    fn degenerate_platform_reproduces_homogeneous_rows_bit_for_bit() {
        let mut plain = base_spec("rep-degen", CheckpointStrategy::ByDecreasingWork);
        // Seeds must not depend on the spec hash (the two specs differ).
        plain.seed_policy = SeedPolicy::LegacyXorN;
        plain.simulators = vec![
            SimulatorSpec::Analytic,
            SimulatorSpec::MonteCarlo { trials: 2_000 },
            SimulatorSpec::NonBlocking {
                trials: 2_000,
                compute_rate: 0.8,
            },
        ];
        plain.platforms = vec![];
        plain.replications = vec![];
        let mut degen = plain.clone();
        degen.platforms = vec![PlatformSpec::Uniform { count: 1 }];
        degen.replications = vec![ReplicationSpec::None];
        let a = run_scenario(&plain).unwrap();
        let b = run_scenario(&degen).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                numeric_fields(x),
                numeric_fields(y),
                "{} {} {} differs on the degenerate platform",
                x.workflow,
                x.strategy,
                x.simulator
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The joint optimizer's winners against blocking Monte-Carlo: the
// coordinate descent over (checkpoint budget × per-task replica sets)
// produces a (schedule, assignment) pair, and the blocking replicated
// engine run on exactly those replica sets must agree with the exact
// set evaluator within 3σ — the analytic/operational contract extended to
// optimizer-selected, possibly non-prefix assignments.
// ---------------------------------------------------------------------------

mod joint_optimizer {
    use dagchkpt::core::{
        evaluate_replicated_sets, optimize_joint, CheckpointStrategy, CostRule,
        LinearizationStrategy, SweepPolicy,
    };
    use dagchkpt::prelude::*;
    use dagchkpt::sim::{run_replicated_sets_trials_with, TrialSpec};
    use dagchkpt_failure::{ExponentialInjector, HeteroPlatform, Processor};

    /// An anti-correlated pool (fast-but-flaky, reference, slow-but-safe):
    /// the shape on which per-task selection genuinely leaves the
    /// fastest-first prefix family.
    fn pool(lambda: f64) -> HeteroPlatform {
        HeteroPlatform::new(
            vec![
                Processor {
                    speed: 1.4,
                    ..Processor::reference(8.0 * lambda)
                },
                Processor::reference(lambda),
                Processor {
                    speed: 0.7,
                    ..Processor::reference(0.25 * lambda)
                },
            ],
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn joint_winner_matches_blocking_mc_within_3_sigma() {
        // The exact DF-CkptW cell of the golden `replication_aware`
        // campaign (CyberShake n = 50, LegacyXorN seed 42 ^ 50), where the
        // descent is known to leave the prefix family — its golden joint
        // row strictly beats the aware row.
        let wf = PegasusKind::CyberShake.generate(
            50,
            CostRule::ProportionalToWork { ratio: 0.1 },
            42 ^ 50,
        );
        let lambda = PegasusKind::CyberShake.default_lambda();
        let platform = pool(lambda);
        let order = dagchkpt::core::linearize(&wf, LinearizationStrategy::DepthFirst);
        let joint = optimize_joint(
            &wf,
            &platform,
            &order,
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Exhaustive,
            &vec![2; 50],
            4,
        );
        // The descent must have left the prefix family somewhere on this
        // pool (otherwise this test regressed into the prefix case).
        assert!(
            joint.replica_sets.iter().any(|s| s.as_slice() != [0, 1]),
            "selection stayed on the uniform prefix: {:?}",
            joint.replica_sets
        );
        let report = evaluate_replicated_sets(&wf, &platform, &joint.schedule, &joint.replica_sets);
        assert!(
            (report.expected_makespan - joint.expected_makespan).abs()
                <= 1e-9 * joint.expected_makespan,
            "joint value {} vs fresh evaluation {}",
            joint.expected_makespan,
            report.expected_makespan
        );
        let stats = run_replicated_sets_trials_with(
            &wf,
            &joint.schedule,
            &platform,
            &joint.replica_sets,
            TrialSpec::new(20_000, 2029),
            |rank, seed| ExponentialInjector::new(platform.procs()[rank].lambda, seed),
        );
        let z = (stats.makespan.mean() - report.expected_makespan) / stats.makespan.sem();
        assert!(
            z.abs() <= 3.0,
            "joint winner off by {z:.2} sigma: MC {} vs analytic {}",
            stats.makespan.mean(),
            report.expected_makespan
        );
        let fz = (stats.faults.mean() - report.expected_faults) / stats.faults.sem();
        assert!(fz.abs() <= 3.0, "faults off by {fz:.2} sigma");
    }
}
