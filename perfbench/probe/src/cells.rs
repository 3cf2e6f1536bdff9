//! The traced pass of a batch workload: the same campaigns the release
//! binary runs, executed cell by cell in this process with a span around
//! every call into a layer.
//!
//! Where a layer sits underneath `run_cell_full`, the cell is executed by
//! calling that layer's public entry points directly on the cell's inputs
//! (generator, linearization, budget sweep with a counting objective,
//! joint descent, trial engines); the rows are then formatted by the
//! engine's own `cell_csv_rows` and every file must byte-equal the file
//! the release binary wrote for the same seed. Cells whose axes have no
//! direct decomposition here (storage tiers, arrival streams, quantile
//! objectives, non-heuristic strategies, Weibull or trace faults) run
//! through `run_cell_full` inside their cell span; their trials and faults
//! are not in the counts, only in the CSV bytes.

use crate::out::Report;
use crate::trace::{quantile, Counted, Recorder, ROOT};
use crate::workloads::campaigns;
use dagchkpt_bench::csvout::CsvWriter;
use dagchkpt_bench::{
    cell_best_rows, cell_csv_rows, run_cell_full, stage_header, tenant_csv_rows, ArrivalSpec,
    CellPlan, CellResult, FailureCell, ObjectiveSpec, OptimizerSpec, OutputFormat, Row,
    ScenarioSpec, SimulatorSpec, Stage, StorageSpec, StrategyCell, TenantRow,
};
use dagchkpt_core::{
    expected_makespan_replicated, linearize, optimize_checkpoints_with, optimize_joint,
    ProxyObjective, ReplicatedEvaluator, ReplicationStrategy,
};
use dagchkpt_failure::ExponentialInjector;
use dagchkpt_sim::trialplan::plan_compile_count;
use dagchkpt_sim::{
    run_nonblocking_trials_with, run_replicated_sets_trials_with, run_replicated_trials_with,
    run_trials_with, NonBlockingConfig, Stats, TrialSpec,
};
use std::path::Path;
use std::time::Instant;

/// Coordinate-descent rounds the campaign engine gives the joint
/// optimizer; a traced joint cell reproduces its row only with the same
/// value, so a change there shows up as a byte mismatch.
const JOINT_ROUNDS: usize = 4;

/// Work counted while the pass runs. Every field is a function of the
/// workload and seed alone, so it must repeat exactly between runs.
#[derive(Default)]
struct Counts {
    cells: u64,
    direct_cells: u64,
    evaluator_evals: u64,
    replicated_evals: u64,
    memo_entries: u64,
    sweeps: u64,
    candidates: u64,
    joint_candidates: u64,
    trials: u64,
    faults: u64,
}

fn total_faults(faults: &Stats) -> u64 {
    (faults.mean() * faults.n() as f64).round() as u64
}

/// Runs the workload's traced pass, writing its CSVs under `out_dir` and
/// comparing each with the same file under `reference_dir`.
pub fn traced_pass(
    workload: &str,
    seed: u64,
    out_dir: &Path,
    reference_dir: &Path,
) -> Result<Report, String> {
    let rec = Recorder::new();
    let mut counts = Counts::default();
    let mut files: Vec<String> = Vec::new();
    let compiles_before = plan_compile_count();
    let started = Instant::now();
    let campaigns = rec.span(ROOT, "campaign.build", |_| campaigns(workload, seed))?;
    for campaign in &campaigns {
        for stage in &campaign.stages {
            let Stage::Scenario { scenario, output } = stage else {
                return Err(format!("{}: study stages are not traced", campaign.name));
            };
            let plans = rec
                .span(ROOT, "scenario.expand", |_| scenario.expand())
                .map_err(|e| e.to_string())?;
            let header = stage_header(output.format, &scenario.simulators);
            let header: Vec<&str> = header.iter().map(String::as_str).collect();
            let path = out_dir.join(&output.file);
            let mut csv = CsvWriter::open(&path, &header, false)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            files.push(output.file.clone());
            let mut best = if output.best_file.is_empty() {
                None
            } else {
                let p = out_dir.join(&output.best_file);
                files.push(output.best_file.clone());
                Some(
                    CsvWriter::open(&p, &Row::CSV_HEADER, false)
                        .map_err(|e| format!("{}: {e}", p.display()))?,
                )
            };
            for plan in &plans {
                let (rows, tenants) = rec.span(ROOT, "exec.cell", |cell| {
                    run_cell(scenario, plan, &rec, cell, &mut counts)
                })?;
                counts.cells += 1;
                let body = if output.format == OutputFormat::TenantRows {
                    tenant_csv_rows(&tenants)
                } else {
                    cell_csv_rows(output.format, &rows)
                };
                rec.span(ROOT, "csvout.write", |_| -> Result<(), String> {
                    for line in body {
                        csv.write_row(line).map_err(|e| e.to_string())?;
                    }
                    csv.flush().map_err(|e| e.to_string())?;
                    if let Some(w) = best.as_mut() {
                        for line in cell_best_rows(&rows) {
                            w.write_row(line).map_err(|e| e.to_string())?;
                        }
                        w.flush().map_err(|e| e.to_string())?;
                    }
                    Ok(())
                })?;
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();

    let mut mismatched = Vec::new();
    let mut csv_bytes = 0u64;
    for f in &files {
        let ours = std::fs::read(out_dir.join(f)).map_err(|e| format!("{f}: {e}"))?;
        let theirs = std::fs::read(reference_dir.join(f)).unwrap_or_default();
        csv_bytes += ours.len() as u64;
        if ours != theirs {
            mismatched.push(f.clone());
        }
    }

    let cell_ms = rec.durations_ms("exec.cell");
    let totals = rec.totals();
    let self_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);
    let mut r = Report::new();
    r.num("traced_wall_s", wall_s)
        .int("files", files.len() as u64)
        .list("mismatched_files", &mismatched)
        .int("exec.cells", counts.cells)
        .int("exec.direct_cells", counts.direct_cells)
        .num("exec.cell_ms.p50", quantile(&cell_ms, 0.5))
        .num("exec.cell_ms.p99", quantile(&cell_ms, 0.99))
        .int("evaluator.evals", counts.evaluator_evals)
        .int("strategies.sweeps", counts.sweeps)
        .int("strategies.candidates", counts.candidates)
        .int("strategies.joint_candidates", counts.joint_candidates)
        .num("strategies.sweep_self_ms", self_ms("strategies.sweep"))
        .num("strategies.joint_self_ms", self_ms("strategies.joint"))
        .int("replicated.evals", counts.replicated_evals)
        .int("replicated.memo_entries", counts.memo_entries)
        .int("trialplan.compiles", plan_compile_count() - compiles_before)
        .int("mc.trials", counts.trials)
        .int("mc.faults", counts.faults)
        .num("csvout.write_ms", total_ms("csvout.write"))
        .int("csvout.bytes", csv_bytes);
    for (name, t) in &totals {
        r.num(&format!("{name}.self_ms"), t.self_ns as f64 / 1e6)
            .int(&format!("{name}.count"), t.count);
    }
    Ok(r)
}

/// Executes one cell: directly through the layers when its axes allow,
/// otherwise through `run_cell_full`.
fn run_cell(
    spec: &ScenarioSpec,
    plan: &CellPlan,
    rec: &Recorder,
    cell: u32,
    counts: &mut Counts,
) -> Result<(Vec<CellResult>, Vec<TenantRow>), String> {
    if let Some(rows) = direct_cell(spec, plan, rec, cell, counts)? {
        counts.direct_cells += 1;
        return Ok((rows, Vec::new()));
    }
    let exec = rec
        .span(cell, "exec.run_cell_full", |_| run_cell_full(spec, plan))
        .map_err(|e| e.to_string())?;
    // `run_cell_full` reports no trial or fault counts, so this cell adds
    // none to `mc.trials` / `mc.faults`; its work is pinned by the CSV hash.
    Ok((exec.rows, exec.tenants))
}

/// The direct-layer execution of a cell, or `None` when one of its axes
/// has no decomposition here.
fn direct_cell(
    spec: &ScenarioSpec,
    plan: &CellPlan,
    rec: &Recorder,
    cell: u32,
    counts: &mut Counts,
) -> Result<Option<Vec<CellResult>>, String> {
    if !ArrivalSpec::is_off(&spec.arrivals)
        || !StorageSpec::is_off(&spec.storage)
        || !ObjectiveSpec::is_mean(&spec.objective)
    {
        return Ok(None);
    }
    let FailureCell::Exponential { lambda, downtime } = plan.failure else {
        return Ok(None);
    };
    let Some(heuristics) = spec
        .strategy_cells()
        .into_iter()
        .map(|s| match s {
            StrategyCell::Heuristic(h) => Some(h),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()
    else {
        return Ok(None);
    };
    let platform = match &plan.platform {
        None => None,
        Some(p) => {
            let platform = p.resolve(&plan.failure).map_err(|e| e.to_string())?;
            let nonblocking = spec
                .simulators
                .iter()
                .any(|s| matches!(s, SimulatorSpec::NonBlocking { .. }));
            if nonblocking || platform.procs().iter().any(|pr| pr.shape.is_some()) {
                return Ok(None);
            }
            Some(platform)
        }
    };

    let source = &spec.workflows[plan.source];
    let wf = rec
        .span(cell, "workflows.generate", |_| {
            source.generate(plan.n, plan.seed)
        })
        .map_err(|e| e.to_string())?;
    let model = plan.failure.proxy_model();
    let policy = spec.sweep.policy(plan.n);
    let tinf = wf.total_work();
    // The engine's degenerate collapse: one reference processor with no
    // replication runs the homogeneous path.
    let hetero = platform.map(|platform| {
        let degrees = plan
            .replication
            .map(|r| r.strategy())
            .unwrap_or(ReplicationStrategy::None)
            .degrees(&wf, platform.n_procs());
        (platform, degrees)
    });
    let hetero = hetero.filter(|(platform, degrees)| {
        !(platform.is_degenerate()
            && platform.procs()[0].lambda == model.lambda()
            && degrees.iter().all(|&d| d == 1))
    });

    let mut rows = Vec::new();
    for h in heuristics {
        let order = rec.span(cell, "linearize", |_| linearize(&wf, h.lin));
        let (schedule, expected, best_n, sets) = match (plan.optimizer, &hetero) {
            (OptimizerSpec::Proxy, _) | (_, None) => {
                let obj = ProxyObjective::new(&wf, model);
                let (r, calls) = rec.span(cell, "strategies.sweep", |sweep| {
                    let counted = Counted::new(&obj, rec, sweep, "evaluator.eval");
                    let r = optimize_checkpoints_with(&wf, &counted, &order, h.ckpt, policy);
                    (r, counted.calls())
                });
                counts.evaluator_evals += calls;
                counts.sweeps += 1;
                counts.candidates += r.evaluated as u64;
                let expected = match &hetero {
                    None => r.expected_makespan,
                    Some((platform, degrees)) => {
                        counts.replicated_evals += 1;
                        rec.span(cell, "replicated.eval", |_| {
                            expected_makespan_replicated(&wf, platform, &r.schedule, degrees)
                        })
                    }
                };
                (r.schedule, expected, r.best_n, None)
            }
            (OptimizerSpec::ReplicationAware, Some((platform, degrees))) => {
                let ev = ReplicatedEvaluator::from_degrees(&wf, platform, degrees);
                let (r, calls) = rec.span(cell, "strategies.sweep", |sweep| {
                    let counted = Counted::new(&ev, rec, sweep, "replicated.eval");
                    let r = optimize_checkpoints_with(&wf, &counted, &order, h.ckpt, policy);
                    (r, counted.calls())
                });
                counts.replicated_evals += calls;
                counts.memo_entries += ev.cached_entries() as u64;
                counts.sweeps += 1;
                counts.candidates += r.evaluated as u64;
                (r.schedule, r.expected_makespan, r.best_n, None)
            }
            (OptimizerSpec::Joint, Some((platform, degrees))) => {
                let j = rec.span(cell, "strategies.joint", |_| {
                    optimize_joint(&wf, platform, &order, h.ckpt, policy, degrees, JOINT_ROUNDS)
                });
                counts.joint_candidates += j.evaluated as u64;
                (
                    j.schedule,
                    j.expected_makespan,
                    j.best_n,
                    Some(j.replica_sets),
                )
            }
        };

        for sim in &spec.simulators {
            let nan5 = (f64::NAN, f64::NAN, f64::NAN, f64::NAN, f64::NAN);
            let (mc_mean, mc_sem, mc_p50, mc_p95, mc_p99) = match *sim {
                SimulatorSpec::Analytic => nan5,
                SimulatorSpec::MonteCarlo { trials } => {
                    let tspec = TrialSpec::new(trials, plan.seed);
                    let stats = match (&hetero, &sets) {
                        (None, _) => rec.span(cell, "sim.blocking", |_| {
                            run_trials_with(&wf, &schedule, downtime, tspec, |s| {
                                ExponentialInjector::new(lambda, s)
                            })
                        }),
                        (Some((platform, _)), Some(sets)) => {
                            rec.span(cell, "sim.replicated", |_| {
                                run_replicated_sets_trials_with(
                                    &wf,
                                    &schedule,
                                    platform,
                                    sets,
                                    tspec,
                                    |rank, s| {
                                        ExponentialInjector::new(platform.procs()[rank].lambda, s)
                                    },
                                )
                            })
                        }
                        (Some((platform, degrees)), None) => {
                            rec.span(cell, "sim.replicated", |_| {
                                run_replicated_trials_with(
                                    &wf,
                                    &schedule,
                                    platform,
                                    degrees,
                                    tspec,
                                    |rank, s| {
                                        ExponentialInjector::new(platform.procs()[rank].lambda, s)
                                    },
                                )
                            })
                        }
                    };
                    counts.trials += trials as u64;
                    counts.faults += total_faults(&stats.faults);
                    (
                        stats.makespan.mean(),
                        stats.makespan.sem(),
                        stats.tail.p50(),
                        stats.tail.p95(),
                        stats.tail.p99(),
                    )
                }
                SimulatorSpec::NonBlocking {
                    trials,
                    compute_rate,
                } => {
                    let cfg = NonBlockingConfig {
                        downtime,
                        compute_rate,
                        record_trace: false,
                    };
                    let (stats, sketch) = rec.span(cell, "sim.nonblocking", |_| {
                        run_nonblocking_trials_with(
                            &wf,
                            &schedule,
                            cfg,
                            TrialSpec::new(trials, plan.seed),
                            |s| ExponentialInjector::new(lambda, s),
                        )
                    });
                    counts.trials += trials as u64;
                    (
                        stats.mean(),
                        stats.sem(),
                        sketch.p50(),
                        sketch.p95(),
                        sketch.p99(),
                    )
                }
            };
            rows.push(CellResult {
                cell: plan.index,
                workflow: source.display_name(),
                n: wf.n_tasks(),
                lambda: model.lambda(),
                failure: plan.failure.label(),
                shape: plan.failure.shape(),
                rule: source.rule_label(),
                platform: plan
                    .platform
                    .as_ref()
                    .map_or_else(String::new, |p| p.label()),
                replication: plan
                    .replication
                    .as_ref()
                    .map_or_else(String::new, |r| r.label()),
                strategy: h.name(),
                simulator: sim.label(),
                expected,
                tinf,
                ratio: if tinf > 0.0 { expected / tinf } else { 1.0 },
                best_n,
                mc_mean,
                mc_sem,
                z: (mc_mean - expected) / mc_sem,
                mc_p50,
                mc_p95,
                mc_p99,
                storage: String::new(),
            });
        }
    }
    Ok(Some(rows))
}
