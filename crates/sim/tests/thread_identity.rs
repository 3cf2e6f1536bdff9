//! Thread-count bit-identity over the scratch-arena fast path.
//!
//! The executor contract — statistics are bit-identical for any
//! `RAYON_NUM_THREADS` — predates the compiled-plan engines; this suite
//! re-pins it on the new path for all four of them (blocking Monte-Carlo,
//! non-blocking, replicated by degree and by set, tenant), for the per-item
//! metric fold `trial_metric_tail_stats` (through the replicated
//! non-blocking runner), for ragged and zero trial counts,
//! for the Theorem-3 cross-validation itself, and for the checkpoint
//! optimizers — proxy and replication-aware sweeps, local search, the
//! joint descent and storage selection — whose sweeps cut their
//! candidates into a few contiguous runs per worker, each priced by one
//! stateful evaluator. The vendored
//! executor reads the variable at every dispatch, so each run sees its own
//! pool size; a mutex serializes the env mutation.

use dagchkpt_core::{
    expected_makespan, linearize, local_search_with, optimize_checkpoints,
    optimize_checkpoints_with, optimize_joint, select_storage, CheckpointStrategy, CostRule,
    JointSchedule, LinearizationStrategy, OptimizedSchedule, ProxyObjective, ReplicatedEvaluator,
    Schedule, StorageStrategy, SweepPolicy, Workflow,
};
use dagchkpt_dag::{generators, topo, FixedBitSet};
use dagchkpt_failure::{
    ExponentialInjector, FaultModel, HeteroPlatform, Processor, StorageHierarchy, StorageTier,
};
use dagchkpt_sim::montecarlo::{run_trials, run_trials_with, TrialSpec, TrialStats};
use dagchkpt_sim::nonblocking::{run_nonblocking_trials_with, NonBlockingConfig};
use dagchkpt_sim::quantile::QuantileSketch;
use dagchkpt_sim::replicated::{
    run_replicated_nonblocking_trials_with, run_replicated_sets_trials_with,
    run_replicated_trials_with,
};
use dagchkpt_sim::stats::Stats;
use dagchkpt_sim::tenant::{run_tenant_trials_with, TenantConfig, TenantJob, TenantPolicy};
use dagchkpt_workflows::PegasusKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, PoisonError};

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` under a 1-worker and a 4-worker pool, restoring the variable
/// afterwards, and returns the two results in that order.
fn under_thread_counts<T>(f: impl Fn() -> T) -> [T; 2] {
    let _guard = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    let runs = ["1", "4"].map(|n| {
        std::env::set_var("RAYON_NUM_THREADS", n);
        f()
    });
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    runs
}

fn fixture() -> (Workflow, Schedule) {
    let n = 23;
    let wf = Workflow::uniform(generators::chain(n), 8.0, 0.9);
    let order = topo::topological_order(wf.dag());
    let ckpt = FixedBitSet::from_indices(n, (0..n).filter(|i| i % 3 == 0));
    let s = Schedule::new(&wf, order, ckpt).unwrap();
    (wf, s)
}

fn hetero2() -> HeteroPlatform {
    HeteroPlatform::new(
        vec![
            Processor {
                speed: 2.0,
                ..Processor::reference(4e-3)
            },
            Processor::reference(1e-3),
        ],
        1.0,
    )
    .unwrap()
}

fn assert_trial_stats_identical(a: &TrialStats, b: &TrialStats) {
    assert_eq!(a.makespan.n(), b.makespan.n());
    assert_eq!(a.makespan.mean().to_bits(), b.makespan.mean().to_bits());
    assert_eq!(
        a.makespan.variance().to_bits(),
        b.makespan.variance().to_bits()
    );
    assert_eq!(a.makespan.min().to_bits(), b.makespan.min().to_bits());
    assert_eq!(a.makespan.max().to_bits(), b.makespan.max().to_bits());
    assert_eq!(a.faults.mean().to_bits(), b.faults.mean().to_bits());
    for (x, y) in a.mean_breakdown.iter().zip(&b.mean_breakdown) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.tail, b.tail, "sketch state must not move");
}

fn assert_metric_tail_identical(a: &(Stats, QuantileSketch), b: &(Stats, QuantileSketch)) {
    assert_eq!(a.0.n(), b.0.n());
    assert_eq!(a.0.mean().to_bits(), b.0.mean().to_bits());
    assert_eq!(a.0.variance().to_bits(), b.0.variance().to_bits());
    assert_eq!(a.0.min().to_bits(), b.0.min().to_bits());
    assert_eq!(a.0.max().to_bits(), b.0.max().to_bits());
    assert_eq!(a.1, b.1, "sketch state must not move");
}

#[test]
fn blocking_fast_path_is_bit_identical_across_thread_counts() {
    let (wf, s) = fixture();
    let [one, four] = under_thread_counts(|| {
        run_trials_with(&wf, &s, 1.5, TrialSpec::new(2_048, 31), |seed| {
            ExponentialInjector::new(6e-3, seed)
        })
    });
    assert_trial_stats_identical(&one, &four);
}

/// The per-item metric fold behind replicated non-blocking Monte-Carlo
/// cells (`trial_metric_tail_stats` under the replicated non-blocking
/// runner the cell executor calls): its chunk grouping must not depend on
/// the pool size either.
#[test]
fn metric_tail_fold_is_bit_identical_across_thread_counts() {
    let (wf, s) = fixture();
    let platform = hetero2();
    let sets: Vec<Vec<usize>> = (0..wf.n_tasks())
        .map(|i| if i % 2 == 0 { vec![0, 1] } else { vec![1] })
        .collect();
    let spec = TrialSpec::new(1_024, 43);
    let [one, four] = under_thread_counts(|| {
        run_replicated_nonblocking_trials_with(
            &wf,
            &s,
            &platform,
            &sets,
            0.7,
            spec,
            |rank, seed| ExponentialInjector::new(platform.procs()[rank].lambda, seed),
        )
    });
    assert_metric_tail_identical(&one, &four);
}

#[test]
fn nonblocking_fast_path_is_bit_identical_across_thread_counts() {
    let (wf, s) = fixture();
    let cfg = NonBlockingConfig {
        downtime: 1.5,
        compute_rate: 0.7,
        record_trace: false,
    };
    let campaign = |spec: TrialSpec| {
        run_nonblocking_trials_with(&wf, &s, cfg, spec, |seed| {
            ExponentialInjector::new(6e-3, seed)
        })
    };
    let [one, four] = under_thread_counts(|| campaign(TrialSpec::new(2_048, 31)));
    assert_metric_tail_identical(&one, &four);
}

#[test]
fn replicated_fast_path_is_bit_identical_across_thread_counts() {
    let (wf, s) = fixture();
    let platform = hetero2();
    let degrees: Vec<usize> = (0..wf.n_tasks()).map(|i| 1 + i % 2).collect();
    let campaign = |spec: TrialSpec| {
        run_replicated_trials_with(&wf, &s, &platform, &degrees, spec, |rank, seed| {
            ExponentialInjector::new(platform.procs()[rank].lambda, seed)
        })
    };
    let [one, four] = under_thread_counts(|| campaign(TrialSpec::new(1_024, 17)));
    assert_trial_stats_identical(&one, &four);
}

fn tenant_jobs() -> Vec<TenantJob> {
    (0..6)
        .map(|k| TenantJob {
            arrival: 25.0 * k as f64,
            tenant: k % 3,
        })
        .collect()
}

fn tenant_config() -> TenantConfig {
    TenantConfig {
        speeds: vec![1.0, 1.0],
        downtime: 1.5,
        policy: TenantPolicy::FairShare,
        weights: vec![3.0, 2.0, 1.0],
        deadlines: vec![300.0, 600.0, f64::INFINITY],
    }
}

#[test]
fn tenant_fast_path_is_bit_identical_across_thread_counts() {
    let (wf, s) = fixture();
    let jobs = tenant_jobs();
    let config = tenant_config();
    let campaign = |spec: TrialSpec| {
        run_tenant_trials_with(&wf, &s, &jobs, &config, spec, |seed| {
            ExponentialInjector::new(5e-3, seed)
        })
    };
    let [one, four] = under_thread_counts(|| campaign(TrialSpec::new(1_024, 53)));
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.slo_hits, b.slo_hits);
        assert_eq!(a.response.mean().to_bits(), b.response.mean().to_bits());
        assert_eq!(
            a.response.variance().to_bits(),
            b.response.variance().to_bits()
        );
        assert_eq!(a.slowdown.mean().to_bits(), b.slowdown.mean().to_bits());
        assert_eq!(a.tail, b.tail, "sketch state must not move");
    }
}

/// Non-prefix replica sets (the joint optimizer's validation engine) on
/// the planned path.
#[test]
fn replicated_sets_fast_path_is_bit_identical_across_thread_counts() {
    let (wf, s) = fixture();
    let platform = hetero2();
    let sets: Vec<Vec<usize>> = (0..wf.n_tasks())
        .map(|i| match i % 3 {
            0 => vec![1],
            1 => vec![0, 1],
            _ => vec![0],
        })
        .collect();
    let campaign = |spec: TrialSpec| {
        run_replicated_sets_trials_with(&wf, &s, &platform, &sets, spec, |rank, seed| {
            ExponentialInjector::new(platform.procs()[rank].lambda, seed)
        })
    };
    let [one, four] = under_thread_counts(|| campaign(TrialSpec::new(1_024, 29)));
    assert_trial_stats_identical(&one, &four);
}

/// Trial counts that leave a short last fold chunk, or fewer trials than
/// workers, group exactly as the full-chunk counts do.
#[test]
fn ragged_trial_counts_are_bit_identical_across_thread_counts() {
    let (wf, s) = fixture();
    for trials in [1, 3, 63, 65, 193] {
        let [one, four] = under_thread_counts(|| {
            run_trials_with(&wf, &s, 1.5, TrialSpec::new(trials, 7), |seed| {
                ExponentialInjector::new(6e-3, seed)
            })
        });
        assert_eq!(one.makespan.n(), trials as u64);
        assert_trial_stats_identical(&one, &four);
    }
}

/// Zero trials give the same empty aggregate (counts 0, means NaN) under
/// every pool size, for every engine.
#[test]
fn zero_trials_are_empty_under_every_thread_count() {
    let (wf, s) = fixture();
    let platform = hetero2();
    let spec = TrialSpec::new(0, 3);
    let assert_empty = |t: &TrialStats| {
        assert_eq!(t.makespan.n(), 0);
        assert_eq!(t.faults.n(), 0);
        assert!(t.makespan.mean().is_nan());
        assert!(t.mean_breakdown.iter().all(|v| v.is_nan()));
        assert_eq!(t.tail.count(), 0);
    };
    for blocking in under_thread_counts(|| {
        run_trials_with(&wf, &s, 1.5, spec, |seed| {
            ExponentialInjector::new(6e-3, seed)
        })
    }) {
        assert_empty(&blocking);
    }
    let degrees = vec![2; wf.n_tasks()];
    for replicated in under_thread_counts(|| {
        run_replicated_trials_with(&wf, &s, &platform, &degrees, spec, |rank, seed| {
            ExponentialInjector::new(platform.procs()[rank].lambda, seed)
        })
    }) {
        assert_empty(&replicated);
    }
    let cfg = NonBlockingConfig {
        downtime: 1.5,
        compute_rate: 0.7,
        record_trace: false,
    };
    for (stats, tail) in under_thread_counts(|| {
        run_nonblocking_trials_with(&wf, &s, cfg, spec, |seed| {
            ExponentialInjector::new(6e-3, seed)
        })
    }) {
        assert_eq!(stats.n(), 0);
        assert!(stats.mean().is_nan());
        assert_eq!(tail.count(), 0);
    }
    let (jobs, config) = (tenant_jobs(), tenant_config());
    for per_tenant in under_thread_counts(|| {
        run_tenant_trials_with(&wf, &s, &jobs, &config, spec, |seed| {
            ExponentialInjector::new(5e-3, seed)
        })
    }) {
        assert_eq!(per_tenant.len(), 3);
        for t in &per_tenant {
            assert_eq!((t.jobs, t.rejected, t.slo_hits), (0, 0, 0));
            assert_eq!(t.response.n(), 0);
            assert_eq!(t.tail.count(), 0);
        }
    }
}

/// Theorem 3 cross-validation on a random layered DAG holds on the very
/// same numbers under either pool size: the Monte-Carlo mean is
/// bit-identical and within 3 standard errors of the analytic value.
#[test]
fn run_trials_cross_validates_identically_across_thread_counts() {
    let n = 10;
    let mut rng = SmallRng::seed_from_u64(2024);
    let dag = generators::layered_random(&mut rng, n, 4, 0.35);
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(2.0..40.0)).collect();
    let wf = Workflow::with_cost_rule(dag, weights, CostRule::ProportionalToWork { ratio: 0.1 });
    let model = FaultModel::new(2e-3, 1.0);
    let order = linearize(&wf, LinearizationStrategy::DepthFirst);
    let s = Schedule::always(&wf, order).unwrap();
    let [one, four] = under_thread_counts(|| run_trials(&wf, &s, model, TrialSpec::new(5_000, 9)));
    assert_trial_stats_identical(&one, &four);
    let analytic = expected_makespan(&wf, model, &s);
    let z = (one.makespan.mean() - analytic) / one.makespan.sem();
    assert!(z.abs() <= 3.0, "validation off: {z:.2} sigma");
}

fn assert_optimized_identical(a: &OptimizedSchedule, b: &OptimizedSchedule, what: &str) {
    assert_eq!(a.schedule, b.schedule, "{what}: schedule");
    assert_eq!(
        a.expected_makespan.to_bits(),
        b.expected_makespan.to_bits(),
        "{what}: makespan"
    );
    assert_eq!(a.best_n, b.best_n, "{what}: best_n");
    assert_eq!(a.evaluated, b.evaluated, "{what}: evaluated");
}

fn cybershake200() -> Workflow {
    PegasusKind::CyberShake.generate(200, CostRule::ProportionalToWork { ratio: 0.1 }, 42)
}

/// The budget sweep cuts its candidates into a few runs per worker; neither
/// the winner nor its bits may depend on that split.
#[test]
fn checkpoint_sweeps_are_bit_identical_across_thread_counts() {
    let wf = cybershake200();
    let model = FaultModel::new(PegasusKind::CyberShake.default_lambda(), 1.0);
    let order = linearize(&wf, LinearizationStrategy::DepthFirst);
    for strategy in [
        CheckpointStrategy::Periodic,
        CheckpointStrategy::ByDecreasingWork,
        CheckpointStrategy::ByIncreasingCkptCost,
        CheckpointStrategy::ByDecreasingOutweight,
    ] {
        for policy in [SweepPolicy::Exhaustive, SweepPolicy::Strided { stride: 9 }] {
            let [one, four] =
                under_thread_counts(|| optimize_checkpoints(&wf, model, &order, strategy, policy));
            assert_optimized_identical(&one, &four, &format!("{strategy:?} {policy:?}"));
        }
    }
}

/// Local search prices each round's single-flip candidates in per-worker
/// runs of schedule positions; every round must pick the same flip.
#[test]
fn local_search_is_bit_identical_across_thread_counts() {
    let wf = cybershake200();
    let model = FaultModel::new(PegasusKind::CyberShake.default_lambda(), 1.0);
    let order = linearize(&wf, LinearizationStrategy::BreadthFirst);
    let obj = ProxyObjective::new(&wf, model);
    let init = FixedBitSet::from_indices(wf.n_tasks(), (0..wf.n_tasks()).step_by(5));
    let [one, four] = under_thread_counts(|| local_search_with(&wf, &obj, &order, init.clone(), 6));
    assert_optimized_identical(&one, &four, "local search");
}

/// The replication-aware sweep prices each run of budgets on one
/// replicated engine, so the split by worker count decides which
/// candidates share an engine; the winner and its bits must not move.
#[test]
fn replication_aware_sweeps_are_bit_identical_across_thread_counts() {
    let wf = cybershake200();
    let platform = hetero2();
    let order = linearize(&wf, LinearizationStrategy::DepthFirst);
    let obj = ReplicatedEvaluator::from_degrees(&wf, &platform, &[2; 200]);
    for strategy in [
        CheckpointStrategy::Periodic,
        CheckpointStrategy::ByDecreasingWork,
    ] {
        for policy in [SweepPolicy::Exhaustive, SweepPolicy::Strided { stride: 9 }] {
            let [one, four] = under_thread_counts(|| {
                optimize_checkpoints_with(&wf, &obj, &order, strategy, policy)
            });
            assert_optimized_identical(&one, &four, &format!("aware {strategy:?} {policy:?}"));
        }
    }
}

/// The joint descent: aware sweeps, then replica-set passes on one engine.
#[test]
fn joint_descent_is_bit_identical_across_thread_counts() {
    let wf = cybershake200();
    let platform = hetero2();
    let order = linearize(&wf, LinearizationStrategy::DepthFirst);
    let [one, four]: [JointSchedule; 2] = under_thread_counts(|| {
        optimize_joint(
            &wf,
            &platform,
            &order,
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Strided { stride: 9 },
            &[1; 200],
            3,
        )
    });
    assert_eq!(one.schedule, four.schedule);
    assert_eq!(one.replica_sets, four.replica_sets);
    assert_eq!(
        one.expected_makespan.to_bits(),
        four.expected_makespan.to_bits()
    );
    assert_eq!(
        (one.best_n, one.evaluated, one.rounds),
        (four.best_n, four.evaluated, four.rounds)
    );
}

/// Per-task storage selection: uniform tiers, then tier passes on one
/// engine.
#[test]
fn storage_selection_is_bit_identical_across_thread_counts() {
    let wf = cybershake200();
    let platform = hetero2();
    let order = linearize(&wf, LinearizationStrategy::DepthFirst);
    let s = Schedule::new(
        &wf,
        order,
        FixedBitSet::from_indices(200, (0..200).filter(|i| i % 4 == 1)),
    )
    .unwrap();
    let tier = |name: &str, write_bw: f64, read_bw: f64| StorageTier {
        name: name.to_string(),
        write_bw,
        read_bw,
        compression: 1.0,
        contention: 0.25,
    };
    let h =
        StorageHierarchy::new(vec![tier("wfast", 4.0, 0.25), tier("rfast", 0.25, 4.0)]).unwrap();
    let [one, four] = under_thread_counts(|| {
        let mut ev = ReplicatedEvaluator::from_degrees(&wf, &platform, &[2; 200])
            .with_storage(&h, &[0; 200]);
        select_storage(&mut ev, &s, h.n_tiers(), StorageStrategy::PerTask, 2)
    });
    assert_eq!(one.0, four.0);
    assert_eq!(one.1.to_bits(), four.1.to_bits());
    assert_eq!(one.2, four.2);
}
