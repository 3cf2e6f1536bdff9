//! Golden regression corpus: every built-in campaign re-run at `--quick`
//! scale with the pinned seed must emit **byte-identical** CSV to the
//! checked-in expectations under `tests/golden/quick/` (which were
//! generated by the pre-refactor one-binary-per-figure harness — this is
//! the proof that the declarative campaign engine reproduces it exactly).
//!
//! The corpus deliberately excludes `ablation_evaluator.csv`: that file
//! records wall-clock milliseconds and is nondeterministic by nature
//! (`ablation_priority.csv`, the deterministic half of the study, is
//! pinned).
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_campaigns
//! ```
//!
//! then review the diff like any other code change.

use dagchkpt_bench::campaign::{builtin, run_campaign, RunContext, Stage, StudyKind};
use dagchkpt_bench::Scale;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The pinned seed of the corpus.
const SEED: u64 = 42;

/// Every built-in campaign with its own corpus entry (`sweep_all` is a
/// concatenation of the others and adds no new files).
const CAMPAIGNS: &[&str] = &[
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "validate",
    "optgap",
    "ablation",
    "weibull",
    "nonblocking",
    "extensions",
    "hetero_replication",
    "replication_aware",
    "tail_latency",
    "multi_tenant",
    "storage_tiers",
];

/// Files excluded from the corpus (wall-clock measurements).
const NONDETERMINISTIC: &[&str] = &["ablation_evaluator.csv"];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quick")
}

/// Output file names a campaign produces, straight from its stage specs
/// (no execution needed).
fn campaign_files(name: &str) -> Vec<String> {
    let c = builtin(name, Scale::Quick, SEED).expect("builtin");
    let mut files = Vec::new();
    for stage in &c.stages {
        match stage {
            Stage::Scenario { output, .. } => {
                files.push(output.file.clone());
                if !output.best_file.is_empty() {
                    files.push(output.best_file.clone());
                }
            }
            Stage::Study { which, .. } => match which {
                StudyKind::Optgap => files.push("optgap.csv".to_string()),
                StudyKind::Ablation => files.extend([
                    "ablation_evaluator.csv".to_string(),
                    "ablation_priority.csv".to_string(),
                ]),
                StudyKind::Extensions => files.push("extensions.csv".to_string()),
            },
        }
    }
    files
}

/// Runs `name` at quick scale into a temp dir and diffs (or, with
/// `UPDATE_GOLDEN=1`, refreshes) its corpus files byte-for-byte.
fn check_campaign(name: &str) {
    let out = std::env::temp_dir().join(format!("dagchkpt_golden_{name}"));
    std::fs::remove_dir_all(&out).ok();
    let campaign = builtin(name, Scale::Quick, SEED).expect("builtin");
    let ctx = RunContext {
        charts: false,
        ..RunContext::new(&out)
    };
    run_campaign(&campaign, &ctx).unwrap_or_else(|e| panic!("running {name}: {e}"));

    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let golden = golden_dir();
    for file in campaign_files(name) {
        if NONDETERMINISTIC.contains(&file.as_str()) {
            continue;
        }
        let produced = out.join(&file);
        let pinned = golden.join(&file);
        let got = std::fs::read(&produced)
            .unwrap_or_else(|e| panic!("{name} did not produce {}: {e}", produced.display()));
        if update {
            std::fs::create_dir_all(&golden).unwrap();
            std::fs::write(&pinned, &got).unwrap();
            continue;
        }
        let want = std::fs::read(&pinned).unwrap_or_else(|e| {
            panic!(
                "missing golden {} (run with UPDATE_GOLDEN=1 to create): {e}",
                pinned.display()
            )
        });
        assert!(
            got == want,
            "{name}: {} differs from the golden corpus.\n\
             If the change is intentional, regenerate with \
             `UPDATE_GOLDEN=1 cargo test --test golden_campaigns` and review the diff.",
            file
        );
    }
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn golden_fig2() {
    check_campaign("fig2");
}

#[test]
fn golden_fig3() {
    check_campaign("fig3");
}

#[test]
fn golden_fig4() {
    check_campaign("fig4");
}

#[test]
fn golden_fig5() {
    check_campaign("fig5");
}

#[test]
fn golden_fig6() {
    check_campaign("fig6");
}

#[test]
fn golden_fig7() {
    check_campaign("fig7");
}

#[test]
fn golden_validate() {
    check_campaign("validate");
}

#[test]
fn golden_optgap() {
    check_campaign("optgap");
}

#[test]
fn golden_ablation() {
    check_campaign("ablation");
}

#[test]
fn golden_weibull() {
    check_campaign("weibull");
}

#[test]
fn golden_nonblocking() {
    check_campaign("nonblocking");
}

#[test]
fn golden_extensions() {
    check_campaign("extensions");
}

#[test]
fn golden_hetero_replication() {
    check_campaign("hetero_replication");
}

#[test]
fn golden_replication_aware() {
    check_campaign("replication_aware");
}

#[test]
fn golden_tail_latency() {
    check_campaign("tail_latency");
}

#[test]
fn golden_multi_tenant() {
    check_campaign("multi_tenant");
}

#[test]
fn golden_storage_tiers() {
    check_campaign("storage_tiers");
}

/// The acceptance anchor of the platform axis: a figure campaign forced
/// onto a degenerate single-processor platform with degree-1 replication
/// emits **byte-identical** CSV to the existing homogeneous golden corpus.
#[test]
fn degenerate_platform_reproduces_homogeneous_golden_csvs() {
    use dagchkpt_bench::{PlatformSpec, ReplicationSpec};
    let out = std::env::temp_dir().join("dagchkpt_golden_degenerate");
    std::fs::remove_dir_all(&out).ok();
    let mut campaign = builtin("fig2", Scale::Quick, SEED).expect("builtin");
    for stage in &mut campaign.stages {
        if let Stage::Scenario { scenario, .. } = stage {
            scenario.platforms = vec![PlatformSpec::Uniform { count: 1 }];
            scenario.replications = vec![ReplicationSpec::Uniform { degree: 1 }];
        }
    }
    let ctx = RunContext {
        charts: false,
        ..RunContext::new(&out)
    };
    run_campaign(&campaign, &ctx).unwrap();
    for file in campaign_files("fig2") {
        let got = std::fs::read(out.join(&file)).unwrap();
        let want = std::fs::read(golden_dir().join(&file)).unwrap();
        assert!(
            got == want,
            "{file}: degenerate platform must reproduce the homogeneous golden CSV byte-for-byte"
        );
    }
    std::fs::remove_dir_all(&out).ok();
}

/// The storage-axis twin of the degenerate-platform proof: a hierarchy
/// whose single tier is the **unit tier** (bandwidths 1, compression 1,
/// contention 0) scales every checkpoint and recovery cost by exactly
/// `1.0` — an IEEE-754 identity — so the whole pipeline (tier argmin,
/// analytic evaluator, Monte-Carlo engines, CSV formatting) must
/// reproduce the storage-free fig2 golden CSVs byte for byte.
#[test]
fn unit_tier_storage_reproduces_homogeneous_golden_csvs() {
    use dagchkpt_bench::{StorageSelect, StorageSpec, TierSpec};
    let out = std::env::temp_dir().join("dagchkpt_golden_unit_tier");
    std::fs::remove_dir_all(&out).ok();
    let mut campaign = builtin("fig2", Scale::Quick, SEED).expect("builtin");
    for stage in &mut campaign.stages {
        if let Stage::Scenario { scenario, .. } = stage {
            scenario.storage = StorageSpec::Tiers {
                tiers: vec![TierSpec {
                    name: "unit".to_string(),
                    write_bw: 1.0,
                    read_bw: 1.0,
                    compression: 1.0,
                    contention: 0.0,
                }],
                select: StorageSelect::Best,
            };
        }
    }
    let ctx = RunContext {
        charts: false,
        ..RunContext::new(&out)
    };
    run_campaign(&campaign, &ctx).unwrap();
    for file in campaign_files("fig2") {
        let got = std::fs::read(out.join(&file)).unwrap();
        let want = std::fs::read(golden_dir().join(&file)).unwrap();
        assert!(
            got == want,
            "{file}: a unit storage tier must reproduce the storage-free golden CSV byte-for-byte"
        );
    }
    std::fs::remove_dir_all(&out).ok();
}

/// Byte-compares `got` against the pinned file `name` under
/// `tests/golden/` (or, with `UPDATE_GOLDEN=1`, refreshes it).
fn check_pinned(name: &str, got: &[u8]) {
    let pinned = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&pinned, got).unwrap();
        return;
    }
    let want = std::fs::read(&pinned).unwrap_or_else(|e| {
        panic!(
            "missing golden {} (run with UPDATE_GOLDEN=1 to create): {e}",
            pinned.display()
        )
    });
    assert!(
        got == want.as_slice(),
        "{name} differs from the golden corpus.\n\
         If the change is intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test golden_campaigns` and review the diff."
    );
}

/// Replicated cells no built-in campaign reaches: an anti-correlated
/// three-processor pool with static `Uniform { degree: 2 }` replication,
/// run through blocking *and* non-blocking Monte-Carlo under every
/// optimizer (the `proxy`/`replication_aware` rows simulate the static
/// prefix sets, the `joint` rows the descent's own sets).
fn replicated_spec() -> dagchkpt_bench::ScenarioSpec {
    dagchkpt_bench::ScenarioSpec::from_json(
        r#"{
          "name": "replicated_rows",
          "workflows": [
            { "Pegasus": { "kind": "CyberShake",
                           "rule": { "ProportionalToWork": { "ratio": 0.1 } } } }
          ],
          "sizes": [50],
          "failures": [ { "SourceDefault": { "downtime": 1.0 } } ],
          "platforms": [
            { "Explicit": { "processors": [
                { "speed": 1.4, "rel_rate": 8.0 },
                { "speed": 1.0, "rel_rate": 1.0 },
                { "speed": 0.7, "rel_rate": 0.25 }
              ] } }
          ],
          "replications": [ { "Uniform": { "degree": 2 } } ],
          "strategies": [ "Paper" ],
          "simulators": [
            "Analytic",
            { "MonteCarlo": { "trials": 1500 } },
            { "NonBlocking": { "trials": 1500, "compute_rate": 0.7 } }
          ],
          "seed": 42,
          "seed_policy": "LegacyXorN",
          "sweep": "Exhaustive"
        }"#,
    )
    .expect("valid replicated spec")
}

/// Runs every cell of each `(optimizer, storage)` variant of
/// [`replicated_spec`] through `run_cell_full` and returns the CSV bytes
/// in `format`.
fn replicated_csv(
    variants: &[(dagchkpt_bench::OptimizerSpec, dagchkpt_bench::StorageSpec)],
    format: dagchkpt_bench::OutputFormat,
    tag: &str,
) -> Vec<u8> {
    let mut rows = Vec::new();
    let mut header = Vec::new();
    for (optimizer, storage) in variants {
        let mut spec = replicated_spec();
        spec.optimizer = *optimizer;
        spec.storage = storage.clone();
        header = dagchkpt_bench::stage_header(format, &spec.simulators);
        for plan in spec.expand().expect("spec expands") {
            let exec = dagchkpt_bench::run_cell_full(&spec, &plan).expect("cell runs");
            rows.extend(dagchkpt_bench::cell_csv_rows(format, &exec.rows));
        }
    }
    let path = std::env::temp_dir().join(format!("dagchkpt_golden_{tag}.csv"));
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    dagchkpt_bench::csvout::write_csv(&path, &header, rows).unwrap();
    let got = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    got
}

/// Pins the replicated blocking and non-blocking Monte-Carlo rows of the
/// cell executor byte for byte, for static prefix sets and for the joint
/// optimizer's selected sets (including the p50/p95/p99 tail columns).
#[test]
fn golden_replicated_nonblocking_rows() {
    use dagchkpt_bench::{OptimizerSpec, OutputFormat, StorageSpec};
    let variants: Vec<_> = [
        OptimizerSpec::Proxy,
        OptimizerSpec::ReplicationAware,
        OptimizerSpec::Joint,
    ]
    .into_iter()
    .map(|o| (o, StorageSpec::Off))
    .collect();
    let got = replicated_csv(&variants, OutputFormat::RowsTail, "replicated_nonblocking");
    check_pinned("replicated_nonblocking.csv", &got);
}

/// Pins the storage-axis rows on a replicated platform that the built-in
/// `storage_tiers` campaign does not reach: per-task tier refinement on
/// the static prefix sets (proxy and replication-aware optimizers) and
/// the joint descent under uniform best-tier selection.
#[test]
fn golden_replicated_storage_rows() {
    use dagchkpt_bench::{OptimizerSpec, OutputFormat, StorageSelect, StorageSpec, TierSpec};
    let tiers = vec![
        TierSpec {
            name: "wfast".to_string(),
            write_bw: 8.0,
            read_bw: 0.125,
            compression: 1.0,
            contention: 0.5,
        },
        TierSpec {
            name: "rfast".to_string(),
            write_bw: 0.125,
            read_bw: 8.0,
            compression: 0.8,
            contention: 0.0,
        },
    ];
    let storage = |select| StorageSpec::Tiers {
        tiers: tiers.clone(),
        select,
    };
    let variants = vec![
        (OptimizerSpec::Proxy, storage(StorageSelect::PerTask)),
        (
            OptimizerSpec::ReplicationAware,
            storage(StorageSelect::PerTask),
        ),
        (OptimizerSpec::Joint, storage(StorageSelect::Best)),
    ];
    let got = replicated_csv(&variants, OutputFormat::StorageRows, "replicated_storage");
    check_pinned("replicated_storage.csv", &got);
}

/// Every file in the corpus belongs to exactly one campaign, and every
/// campaign file (minus the nondeterministic exclusions) is pinned — no
/// strays in either direction.
#[test]
fn corpus_covers_exactly_the_campaign_outputs() {
    let mut expected: BTreeSet<String> = BTreeSet::new();
    for name in CAMPAIGNS {
        for f in campaign_files(name) {
            if !NONDETERMINISTIC.contains(&f.as_str()) {
                assert!(expected.insert(f.clone()), "{f} produced by two campaigns");
            }
        }
    }
    let mut pinned: BTreeSet<String> = BTreeSet::new();
    for entry in std::fs::read_dir(golden_dir()).expect("golden corpus exists") {
        pinned.insert(entry.unwrap().file_name().to_string_lossy().to_string());
    }
    assert_eq!(expected, pinned, "corpus and campaign outputs disagree");
}
