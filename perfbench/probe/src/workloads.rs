//! The batch workloads' campaigns, built from the benchmark seed alone.

use dagchkpt_bench::{builtin, Campaign, Scale, Stage};

/// Trials per Monte-Carlo row of `mc_engines`: enough that the trial
/// engines, not the (strided) budget sweep, dominate every cell.
pub const MC_TRIALS: usize = 60_000;
/// Contention-engine trials per strategy of the `mc_engines` tenant stage.
pub const TENANT_TRIALS: usize = 1_200;

/// The `mc_engines` campaign as spec-file JSON: CyberShake and Montage at
/// n = 200 under one heuristic with a strided sweep, through the blocking,
/// non-blocking, 2-processor replicated and multi-tenant engines.
pub fn mc_engines_json(seed: u64) -> String {
    let workflows = r#"[
        { "Pegasus": { "kind": "CyberShake", "rule": { "ProportionalToWork": { "ratio": 0.1 } } } },
        { "Pegasus": { "kind": "Montage", "rule": { "ProportionalToWork": { "ratio": 0.1 } } } }
      ]"#;
    let common = format!(
        r#""workflows": {workflows},
          "sizes": [200],
          "failures": [ {{ "SourceDefault": {{ "downtime": 1.0 }} }} ],
          "strategies": [ {{ "Heuristic": {{ "lin": "DepthFirst", "ckpt": "ByDecreasingWork" }} }} ],
          "seed": {seed},
          "sweep": {{ "Strided": {{ "stride": 25 }} }}"#
    );
    let t = MC_TRIALS;
    let tt = TENANT_TRIALS;
    format!(
        r#"{{
  "name": "mc_engines",
  "description": "Monte-Carlo engines under a cold evaluator",
  "stages": [
    {{ "Scenario": {{
        "scenario": {{ "name": "mc_blocking_nonblocking", {common},
          "simulators": [ "Analytic", {{ "MonteCarlo": {{ "trials": {t} }} }},
                          {{ "NonBlocking": {{ "trials": {t}, "compute_rate": 0.9 }} }} ] }},
        "output": {{ "file": "mc_blocking_nonblocking.csv", "format": "RowsTail" }} }} }},
    {{ "Scenario": {{
        "scenario": {{ "name": "mc_replicated", {common},
          "platforms": [ {{ "Uniform": {{ "count": 2 }} }} ],
          "replications": [ {{ "Uniform": {{ "degree": 2 }} }} ],
          "simulators": [ "Analytic", {{ "MonteCarlo": {{ "trials": {t} }} }} ] }},
        "output": {{ "file": "mc_replicated.csv", "format": "RowsTail" }} }} }},
    {{ "Scenario": {{
        "scenario": {{ "name": "mc_tenant", {common},
          "platforms": [ {{ "Uniform": {{ "count": 2 }} }} ],
          "simulators": [ {{ "MonteCarlo": {{ "trials": {tt} }} }} ],
          "arrivals": {{ "Poisson": {{ "count": 8, "mean_gap": 2000.0 }} }},
          "tenancy": {{ "tenants": [
              {{ "name": "gold", "weight": 4.0, "slo_factor": 1.7 }},
              {{ "name": "bronze", "weight": 1.0, "slo_factor": 2.7 }} ],
            "policy": "Priority" }} }},
        "output": {{ "file": "mc_tenant.csv", "format": "TenantRows" }} }} }}
  ]
}}
"#
    )
}

/// The campaigns one pass of a batch workload runs, in order.
pub fn campaigns(workload: &str, seed: u64) -> Result<Vec<Campaign>, String> {
    let named = |name: &str| {
        builtin(name, Scale::Quick, seed).ok_or_else(|| format!("no built-in campaign `{name}`"))
    };
    match workload {
        "paper_sweep" => Ok(vec![named("fig6")?]),
        "replicated_joint" => Ok(vec![named("replication_aware")?, named("storage_tiers")?]),
        "mc_engines" => Ok(vec![
            Campaign::from_json(&mc_engines_json(seed)).map_err(|e| e.to_string())?
        ]),
        other => Err(format!("`{other}` is not a batch workload")),
    }
}

/// The CSV files a pass of `campaign` writes, in stage order: each
/// scenario stage's output file and its best-row file if it has one.
pub fn output_files(campaign: &Campaign) -> Vec<String> {
    let mut files = Vec::new();
    for stage in &campaign.stages {
        if let Stage::Scenario { output, .. } = stage {
            files.push(output.file.clone());
            if !output.best_file.is_empty() {
                files.push(output.best_file.clone());
            }
        }
    }
    files
}

/// Seconds one set-up of a batch workload takes, averaged over each of
/// `batches` batches of `per_batch` set-ups. A set-up builds the
/// workload's campaigns (parsing the spec for `mc_engines`) and expands
/// every scenario stage into cells, as the campaign binary does before it
/// runs its first cell. One set-up takes well under a millisecond, shorter
/// than the spells in which a shared host runs this process fast or slow,
/// so single set-ups time those spells; a batch spans several of them.
pub fn setup_times(
    workload: &str,
    seed: u64,
    batches: usize,
    per_batch: usize,
) -> Result<Vec<f64>, String> {
    let per_batch = per_batch.max(1);
    (0..batches.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            let mut cells = 0;
            for _ in 0..per_batch {
                for campaign in campaigns(workload, seed)? {
                    for stage in &campaign.stages {
                        if let Stage::Scenario { scenario, .. } = stage {
                            cells += scenario.expand().map_err(|e| e.to_string())?.len();
                        }
                    }
                }
            }
            std::hint::black_box(cells);
            Ok(t.elapsed().as_secs_f64() / per_batch as f64)
        })
        .collect()
}
