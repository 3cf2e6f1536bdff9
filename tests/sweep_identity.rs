//! Bit identity of the stateful Theorem-3 evaluator.
//!
//! A [`SweepEvaluator`] carries one evaluation over to the next checkpoint
//! set, so every path through its diffing must land on exactly the bits of
//! a fresh evaluation. The sequences below cover what sweeps feed it:
//! nested additions (ranked sweeps), removals, multi-bit jumps (periodic
//! sets), a repeated set, the empty and full sets, and unrelated random
//! sets. The budget sweeps and local search, which price candidates through
//! the evaluator, must equal the same optimizers run over a wrapper that
//! only forwards `cost`. The replica-group pricing is held to the same
//! bits through a [`ReplicatedSweep`], with replica-set and storage-tier
//! moves interleaved, including moves into and out of the degenerate
//! assignment where the pricing switches.

use dagchkpt::core::evaluator::literal::expected_makespan_literal;
use dagchkpt::core::evaluator::SweepEvaluator;
use dagchkpt::core::strategies::{periodic_set, set_from_ranking};
use dagchkpt::core::{
    evaluator, linearize, local_search_with, optimize_checkpoints, optimize_checkpoints_with,
    paper_heuristics, EvalReport, Objective, OptimizedSchedule, ProxyObjective,
    ReplicatedEvaluator, ReplicatedSweep,
};
use dagchkpt::dag::generators;
use dagchkpt::prelude::*;
use dagchkpt_failure::{HeteroPlatform, Processor, StorageHierarchy, StorageTier};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const LAMBDAS: [f64; 3] = [0.0, 1e-4, 1e-2];

fn random_workflow(seed: u64, n: usize) -> Workflow {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dag = generators::layered_random(&mut rng, n, 4, 0.35);
    let costs: Vec<TaskCosts> = (0..n)
        .map(|_| {
            TaskCosts::new(
                rng.gen_range(1.0..30.0),
                rng.gen_range(0.1..6.0),
                rng.gen_range(0.1..6.0),
            )
        })
        .collect();
    Workflow::new(dag, costs)
}

/// The same workflow with every cost rounded to a multiple of 1/64. Sums of
/// such values are exact in any order, so Algorithm 1 — which adds the
/// lost-set members in position order rather than in traversal order —
/// produces the very same aggregates and the literal oracle can be held to
/// bit identity too.
fn dyadic(wf: &Workflow) -> Workflow {
    let q = |x: f64| (x * 64.0).round() / 64.0;
    let costs = (0..wf.n_tasks())
        .map(|i| {
            let v = NodeId::from(i);
            TaskCosts::new(
                q(wf.work(v)),
                q(wf.checkpoint_cost(v)),
                q(wf.recovery_cost(v)),
            )
        })
        .collect();
    Workflow::new(wf.dag().clone(), costs)
}

/// Checkpoint-set sequences over `order`, each a list of sets evaluated in
/// turn by one evaluator.
fn sequences(wf: &Workflow, order: &[NodeId], seed: u64) -> Vec<(&'static str, Vec<FixedBitSet>)> {
    let n = wf.n_tasks();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let mut ranking = order.to_vec();
    for i in (1..n).rev() {
        ranking.swap(i, rng.gen_range(0..=i));
    }
    let adds: Vec<FixedBitSet> = (0..=n).map(|b| set_from_ranking(n, &ranking, b)).collect();
    let removals: Vec<FixedBitSet> = adds.iter().rev().cloned().collect();
    let periodic: Vec<FixedBitSet> = (0..=n).map(|b| periodic_set(wf, order, b)).collect();
    let mut repeated = Vec::new();
    for set in adds.iter().step_by(3) {
        repeated.push(set.clone());
        repeated.push(set.clone());
    }
    let ends = vec![
        FixedBitSet::new(n),
        FixedBitSet::full(n),
        FixedBitSet::new(n),
        FixedBitSet::full(n),
        FixedBitSet::full(n),
    ];
    let random: Vec<FixedBitSet> = (0..12)
        .map(|_| FixedBitSet::from_indices(n, (0..n).filter(|_| rng.gen_bool(0.4))))
        .collect();
    vec![
        ("nested adds", adds),
        ("removals", removals),
        ("periodic jumps", periodic),
        ("repeated sets", repeated),
        ("empty and full", ends),
        ("random jumps", random),
    ]
}

fn assert_reports_identical(a: &EvalReport, b: &EvalReport, what: &str) {
    assert_eq!(
        a.expected_makespan.to_bits(),
        b.expected_makespan.to_bits(),
        "{what}: makespan {} vs {}",
        a.expected_makespan,
        b.expected_makespan
    );
    assert_eq!(
        a.expected_faults.to_bits(),
        b.expected_faults.to_bits(),
        "{what}: faults {} vs {}",
        a.expected_faults,
        b.expected_faults
    );
    let bits = |r: &EvalReport| {
        r.per_position
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(a), bits(b), "{what}: per-position breakdown");
}

/// Runs every sequence through one evaluator per sequence and compares each
/// step with a fresh `evaluate` and, every `literal_every`-th step (0 =
/// never), with the literal oracle — which only [`dyadic`] costs can hold
/// to the same bits.
fn check_workflow(wf: &Workflow, label: &str, seed: u64, literal_every: usize) {
    let order = linearize(wf, LinearizationStrategy::DepthFirst);
    let base = Schedule::never(wf, order.clone()).unwrap();
    for lambda in LAMBDAS {
        let model = FaultModel::new(lambda, 1.0);
        for (name, sets) in sequences(wf, &order, seed) {
            let mut ev = SweepEvaluator::new(wf, model, &order);
            for (step, set) in sets.iter().enumerate() {
                let what = format!("{label} λ={lambda} {name} step {step}");
                let s = base.with_checkpoints(set.clone());
                let fresh = evaluator::evaluate(wf, model, &s);
                let e = ev.expected_makespan(set);
                assert_eq!(e.to_bits(), fresh.expected_makespan.to_bits(), "{what}");
                assert_reports_identical(&ev.evaluate(set), &fresh, &what);
                if literal_every > 0 && step % literal_every == 0 {
                    let literal = expected_makespan_literal(wf, model, &s);
                    assert_eq!(e.to_bits(), literal.to_bits(), "{what} (literal)");
                }
            }
        }
    }
}

#[test]
fn stateful_evaluator_is_bit_identical_on_random_layered_dags() {
    for n in [0usize, 1, 2, 50] {
        for seed in 0..3u64 {
            let wf = random_workflow(seed * 31 + n as u64, n);
            check_workflow(&wf, &format!("layered n={n} seed={seed}"), seed, 0);
            let every = if n <= 2 { 1 } else { 7 };
            check_workflow(
                &dyadic(&wf),
                &format!("dyadic layered n={n} seed={seed}"),
                seed,
                every,
            );
        }
    }
}

#[test]
fn stateful_evaluator_is_bit_identical_on_pegasus_workflows() {
    let rule = CostRule::ProportionalToWork { ratio: 0.1 };
    for kind in [
        PegasusKind::Montage,
        PegasusKind::Ligo,
        PegasusKind::CyberShake,
        PegasusKind::Genome,
    ] {
        let wf = kind.generate(50, rule, 7);
        check_workflow(&wf, &format!("{kind:?}"), 7, 0);
        check_workflow(&dyadic(&wf), &format!("dyadic {kind:?}"), 7, 10);
    }
}

/// Forwards `cost` only, so the optimizers price every candidate through
/// the default per-schedule hook.
struct StatelessWrapper<'a>(ProxyObjective<'a>);

impl Objective for StatelessWrapper<'_> {
    fn cost(&self, schedule: &Schedule) -> f64 {
        self.0.cost(schedule)
    }

    fn label(&self) -> &'static str {
        "stateless"
    }
}

fn assert_optimized_identical(a: &OptimizedSchedule, b: &OptimizedSchedule, what: &str) {
    assert_eq!(a.schedule, b.schedule, "{what}: schedule");
    assert_eq!(
        a.expected_makespan.to_bits(),
        b.expected_makespan.to_bits(),
        "{what}: makespan {} vs {}",
        a.expected_makespan,
        b.expected_makespan
    );
    assert_eq!(a.best_n, b.best_n, "{what}: best_n");
    assert_eq!(a.evaluated, b.evaluated, "{what}: evaluated");
}

#[test]
fn sweeps_match_the_stateless_objective_for_every_heuristic() {
    let rule = CostRule::ProportionalToWork { ratio: 0.1 };
    let workflows = [
        ("cybershake", PegasusKind::CyberShake.generate(50, rule, 3)),
        ("layered", random_workflow(11, 40)),
    ];
    for (label, wf) in &workflows {
        let model = FaultModel::new(2e-3, 1.0);
        let stateless = StatelessWrapper(ProxyObjective::new(wf, model));
        for h in paper_heuristics(5) {
            let order = linearize(wf, h.lin);
            for policy in [SweepPolicy::Exhaustive, SweepPolicy::Strided { stride: 7 }] {
                let what = format!("{label} {} {policy:?}", h.name());
                assert_optimized_identical(
                    &optimize_checkpoints(wf, model, &order, h.ckpt, policy),
                    &optimize_checkpoints_with(wf, &stateless, &order, h.ckpt, policy),
                    &what,
                );
            }
        }
        let order = linearize(wf, LinearizationStrategy::BreadthFirst);
        let init = FixedBitSet::from_indices(wf.n_tasks(), (0..wf.n_tasks()).step_by(4));
        let proxy = ProxyObjective::new(wf, model);
        assert_optimized_identical(
            &local_search_with(wf, &proxy, &order, init.clone(), 8),
            &local_search_with(wf, &stateless, &order, init, 8),
            &format!("{label} local search"),
        );
    }
}

/// A three-processor pool with distinct speeds, bandwidths and failure
/// rates (`scale` multiplies every rate), so replica durations and both
/// group-failure orders differ between processors.
fn pool(scale: f64) -> HeteroPlatform {
    let proc = |speed: f64, lambda: f64, read_bw: f64, write_bw: f64| Processor {
        speed,
        read_bw,
        write_bw,
        ..Processor::reference(lambda * scale)
    };
    HeteroPlatform::new(
        vec![
            proc(2.0, 4e-3, 1.5, 0.75),
            proc(1.0, 1e-3, 1.0, 1.0),
            proc(0.5, 6e-3, 0.5, 2.0),
        ],
        1.0,
    )
    .unwrap()
}

/// Every non-empty subset of the 3-processor pool: prefixes and non-prefix
/// sets alike.
const SUBSETS: [&[usize]; 7] = [&[0], &[1], &[2], &[0, 1], &[0, 2], &[1, 2], &[0, 1, 2]];

/// Unit tiers `local` and `scratch` around a non-unit `burst` tier with
/// write contention, so a tier move can leave or keep the identity.
fn tiers() -> StorageHierarchy {
    StorageHierarchy::new(vec![
        StorageTier::unit("local"),
        StorageTier {
            name: "burst".to_string(),
            write_bw: 4.0,
            read_bw: 0.5,
            compression: 0.8,
            contention: 0.3,
        },
        StorageTier::unit("scratch"),
    ])
    .unwrap()
}

/// What a step of [`check_replicated`] may change besides the checkpoint
/// set.
#[derive(Clone, Copy)]
struct Moves {
    replicas: bool,
    tiers: bool,
}

/// Runs every checkpoint-set sequence through one [`ReplicatedSweep`] per
/// sequence, making random replica-set and tier moves between (and, on
/// repeated sets, instead of) set changes, and compares each step with a
/// fresh evaluation under the evaluator's current assignment.
fn check_replicated(
    wf: &Workflow,
    platform: &HeteroPlatform,
    storage: Option<&StorageHierarchy>,
    moves: Moves,
    label: &str,
    seed: u64,
) {
    let n = wf.n_tasks();
    let order = linearize(wf, LinearizationStrategy::DepthFirst);
    let base = Schedule::never(wf, order.clone()).unwrap();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xfeed);
    let n_procs = platform.n_procs();
    for (name, sets) in sequences(wf, &order, seed) {
        let init: Vec<Vec<usize>> = (0..n)
            .map(|_| SUBSETS[rng.gen_range(0..SUBSETS.len())].to_vec())
            .collect();
        let mut ev = ReplicatedEvaluator::from_sets(wf, platform, &init);
        if let Some(h) = storage {
            ev = ev.with_storage(h, &vec![0; n]);
        }
        let mut sweep = ev.sweep(&order);
        for (step, set) in sets.iter().enumerate() {
            let what = format!("{label} {name} step {step}");
            for _ in 0..rng.gen_range(0..3usize) {
                if n == 0 {
                    break;
                }
                let t = rng.gen_range(0..n);
                if moves.replicas && rng.gen_bool(0.5) {
                    let pick = SUBSETS[rng.gen_range(0..SUBSETS.len())];
                    let set: Vec<usize> = pick.iter().copied().filter(|&p| p < n_procs).collect();
                    sweep.set_replicas(t, &set);
                }
                if let Some(h) = storage.filter(|_| moves.tiers) {
                    sweep.set_tier(t, rng.gen_range(0..h.n_tiers()));
                }
            }
            check_step(&mut sweep, &base.with_checkpoints(set.clone()), &what);
        }
    }
}

/// One step: the stateful answer against a fresh evaluation of the same
/// assignment.
fn check_step(sweep: &mut ReplicatedSweep, s: &Schedule, what: &str) {
    let fresh = sweep.evaluator().evaluate(s);
    assert_reports_identical(&sweep.evaluate(s.checkpoints()), &fresh, what);
}

#[test]
fn replicated_sweep_is_bit_identical_under_set_moves() {
    let both = Moves {
        replicas: true,
        tiers: true,
    };
    let sets_only = Moves {
        replicas: true,
        tiers: false,
    };
    for scale in [1.0, 25.0] {
        for n in [0usize, 1, 2, 30] {
            let wf = random_workflow(n as u64 + 5, n);
            let platform = pool(scale);
            let label = format!("layered n={n} x{scale}");
            check_replicated(&wf, &platform, None, sets_only, &label, n as u64);
            let h = tiers();
            check_replicated(&wf, &platform, Some(&h), both, &format!("{label} tiers"), 3);
        }
    }
    let rule = CostRule::ProportionalToWork { ratio: 0.1 };
    let wf = PegasusKind::CyberShake.generate(40, rule, 9);
    let h = tiers();
    check_replicated(&wf, &pool(1.0), Some(&h), both, "CyberShake tiers", 9);
}

/// On the paper's single machine every set is `[0]`, so the assignment is
/// degenerate exactly while every tier is a unit tier: tier moves enter
/// and leave it, and each step must still equal a fresh evaluation (which
/// switches between the exponential and the replica-group pricing).
#[test]
fn replicated_sweep_switches_pricing_at_the_degenerate_assignment() {
    let platform = HeteroPlatform::homogeneous(1, 3e-3, 1.0).unwrap();
    let h = tiers();
    let tiers_only = Moves {
        replicas: false,
        tiers: true,
    };
    for n in [1usize, 2, 30] {
        let wf = random_workflow(n as u64 + 17, n);
        check_replicated(&wf, &platform, Some(&h), tiers_only, &format!("n={n}"), 4);
    }

    // A tier pass over a fixed schedule, the way storage selection runs it:
    // one task at a time off the unit tier and back.
    let wf = random_workflow(23, 30);
    let order = linearize(&wf, LinearizationStrategy::DepthFirst);
    let s = Schedule::new(
        &wf,
        order.clone(),
        FixedBitSet::from_indices(30, (0..30).step_by(3)),
    )
    .unwrap();
    let mut ev = ReplicatedEvaluator::from_sets(&wf, &platform, &vec![vec![0]; 30])
        .with_storage(&h, &[0; 30]);
    let mut sweep = ev.sweep(&order);
    for t in 0..30 {
        for tier in [1, 2, 0] {
            sweep.set_tier(t, tier);
            check_step(&mut sweep, &s, &format!("task {t} tier {tier}"));
        }
    }
}
