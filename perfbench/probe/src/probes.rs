//! Fixed-size layer probes on seeded inputs: the same measurements on
//! every workload, so a layer's speed can be read without the workload's
//! mix around it.

use crate::out::Report;
use crate::serve::{campaign_queries, cell_answer};
use crate::trace::{median, time_each};
use dagchkpt_bench::{run_cell_full, ScenarioSpec};
use dagchkpt_core::strategies::periodic_set;
use dagchkpt_core::{
    expected_makespan, linearize, optimize_checkpoints, optimize_checkpoints_with,
    CheckpointStrategy, CostRule, LinearizationStrategy, ReplicatedEvaluator, Schedule,
    SweepPolicy, Workflow,
};
use dagchkpt_failure::{ExponentialInjector, FaultModel, HeteroPlatform};
use dagchkpt_serve::{Request, ResponseCache};
use dagchkpt_sim::{
    run_nonblocking_trials_with, run_replicated_trials_with, run_tenant_trials_with,
    run_trials_with, NonBlockingConfig, QuantileSketch, TenantConfig, TenantJob, TenantPolicy,
    TrialPlan, TrialSpec,
};
use dagchkpt_workflows::PegasusKind;
use std::time::Instant;

const LAMBDA: f64 = 1e-3;
const DOWNTIME: f64 = 1.0;

fn cybershake(n: usize, seed: u64) -> Workflow {
    PegasusKind::CyberShake.generate(n, CostRule::ProportionalToWork { ratio: 0.1 }, seed)
}

/// Depth-first order checkpointing every fourth task of it.
fn quarter_schedule(wf: &Workflow) -> Schedule {
    let order = linearize(wf, LinearizationStrategy::DepthFirst);
    let set = periodic_set(wf, &order, wf.n_tasks() / 4);
    Schedule::new(wf, order, set).expect("a linearization is a valid order")
}

/// Median trials per second of `run` (which runs `trials` trials) over
/// three repetitions.
fn trials_per_s(trials: usize, mut run: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64()
        })
        .collect();
    trials as f64 / median(&secs)
}

pub fn run(seed: u64) -> Report {
    let mut r = Report::new();
    let model = FaultModel::new(LAMBDA, DOWNTIME);
    let rule = CostRule::ProportionalToWork { ratio: 0.1 };

    r.num(
        "workflows.generate_us",
        1e6 * time_each(50, || PegasusKind::CyberShake.generate(200, rule, seed)),
    );
    let wf = cybershake(200, seed);
    r.num(
        "linearize.us",
        1e6 * time_each(200, || linearize(&wf, LinearizationStrategy::BreadthFirst)),
    );
    for (n, reps) in [(50, 2000), (200, 300), (700, 30)] {
        let wf = cybershake(n, seed);
        let s = quarter_schedule(&wf);
        r.num(
            &format!("evaluator.eval_us.n{n}"),
            1e6 * time_each(reps, || expected_makespan(&wf, model, &s)),
        );
    }
    let order = linearize(&wf, LinearizationStrategy::DepthFirst);
    r.num(
        "strategies.sweep_ms.n200",
        1e3 * time_each(3, || {
            optimize_checkpoints(
                &wf,
                model,
                &order,
                CheckpointStrategy::ByDecreasingWork,
                SweepPolicy::Exhaustive,
            )
        }),
    );

    let platform = HeteroPlatform::homogeneous(3, LAMBDA, DOWNTIME)
        .expect("a homogeneous pool is a valid platform");
    let degrees = vec![2; wf.n_tasks()];
    let ev = ReplicatedEvaluator::from_degrees(&wf, &platform, &degrees);
    let budgets: Vec<Schedule> = (0..=wf.n_tasks())
        .step_by(10)
        .map(|b| {
            Schedule::new(&wf, order.clone(), periodic_set(&wf, &order, b))
                .expect("a linearization is a valid order")
        })
        .collect();
    let mut i = 0;
    r.num(
        "replicated.eval_us",
        1e6 * time_each(budgets.len() * 3, || {
            i = (i + 1) % budgets.len();
            ev.expected_makespan(&budgets[i])
        }),
    );

    r.num(
        "replicated.sweep_ms.n200",
        1e3 * time_each(2, || {
            let ev = ReplicatedEvaluator::from_degrees(&wf, &platform, &degrees);
            optimize_checkpoints_with(
                &wf,
                &ev,
                &order,
                CheckpointStrategy::ByDecreasingWork,
                SweepPolicy::Exhaustive,
            )
        }),
    );

    let s = quarter_schedule(&wf);
    r.num(
        "trialplan.compile_us",
        1e6 * time_each(300, || TrialPlan::compile(&wf, &s)),
    );
    let trials = 20_000;
    let tspec = TrialSpec::new(trials, seed);
    let exp = |x: u64| ExponentialInjector::new(LAMBDA, x);
    r.num(
        "mc.blocking.trials_per_s",
        trials_per_s(trials, || {
            std::hint::black_box(run_trials_with(&wf, &s, DOWNTIME, tspec, exp));
        }),
    );
    let cfg = NonBlockingConfig {
        downtime: DOWNTIME,
        compute_rate: 0.9,
        record_trace: false,
    };
    r.num(
        "mc.nonblocking.trials_per_s",
        trials_per_s(trials, || {
            std::hint::black_box(run_nonblocking_trials_with(&wf, &s, cfg, tspec, exp));
        }),
    );
    let pair = HeteroPlatform::homogeneous(2, LAMBDA, DOWNTIME)
        .expect("a homogeneous pool is a valid platform");
    r.num(
        "mc.replicated.trials_per_s",
        trials_per_s(trials, || {
            std::hint::black_box(run_replicated_trials_with(
                &wf,
                &s,
                &pair,
                &degrees,
                tspec,
                |_, x| ExponentialInjector::new(LAMBDA, x),
            ));
        }),
    );
    let jobs: Vec<TenantJob> = (0..8)
        .map(|k| TenantJob {
            arrival: 2000.0 * k as f64,
            tenant: k % 2,
        })
        .collect();
    let tcfg = TenantConfig {
        speeds: vec![1.0, 1.0],
        downtime: DOWNTIME,
        policy: TenantPolicy::Priority,
        weights: vec![4.0, 1.0],
        deadlines: vec![f64::INFINITY, f64::INFINITY],
    };
    let tenant_trials = 500;
    r.num(
        "mc.tenant.trials_per_s",
        trials_per_s(tenant_trials, || {
            std::hint::black_box(run_tenant_trials_with(
                &wf,
                &s,
                &jobs,
                &tcfg,
                TrialSpec::new(tenant_trials, seed),
                exp,
            ));
        }),
    );

    // P²: one observation stream, and the chunk-order merge of 64 chunk
    // sketches (the reduction the trial executor pays once per dispatch).
    let xs: Vec<f64> = (0..1_000_000u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64)
        .collect();
    r.num(
        "quantile.push_ns",
        1e9 * time_each(5, || {
            let mut q = QuantileSketch::new();
            for &x in &xs {
                q.push(x);
            }
            q
        }) / xs.len() as f64,
    );
    let parts: Vec<QuantileSketch> = xs
        .chunks(xs.len() / 64)
        .map(|c| {
            let mut q = QuantileSketch::new();
            q.push_slice(c);
            q
        })
        .collect();
    r.num(
        "quantile.merge_us",
        1e6 * time_each(20, || {
            parts
                .iter()
                .cloned()
                .fold(QuantileSketch::new(), QuantileSketch::merge)
        }),
    );

    // Serve framing and the request-path layers on the first query of the
    // serve workload's campaign.
    let query = campaign_queries(seed)
        .expect("the loadgen campaign builds")
        .swap_remove(0);
    let (spec, req) = (&query.spec, query.request());
    let frame = serde_json::to_string(&req).expect("a request serializes");
    r.num(
        "protocol.decode_us",
        1e6 * time_each(300, || serde_json::from_str::<Request>(&frame)),
    );
    let spec_json = spec.to_json();
    r.num(
        "scenario.parse_us",
        1e6 * time_each(300, || ScenarioSpec::from_json(&spec_json)),
    );
    r.num("scenario.expand_us", 1e6 * time_each(300, || spec.expand()));
    r.num(
        "scenario.to_json_us",
        1e6 * time_each(300, || spec.to_json()),
    );
    r.num(
        "cache.key_us",
        1e6 * time_each(300, || {
            ResponseCache::key(&spec_json, query.cell, query.format)
        }),
    );
    let plans = spec.expand().expect("the loadgen campaign expands");
    let exec = run_cell_full(spec, &plans[query.cell]).expect("the loadgen campaign runs");
    let resp = cell_answer(&query, exec).to_response(true);
    r.num(
        "protocol.encode_us",
        1e6 * time_each(300, || serde_json::to_string(&resp)),
    );
    r
}
