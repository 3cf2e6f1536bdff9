//! End-to-end tests of the `dagchkpt-bench` campaign CLI, including the
//! `from_args` usage/exit paths that unit tests cannot reach (they call
//! `process::exit`).

use std::path::PathBuf;
use std::process::Command;

fn bench_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dagchkpt-bench"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dagchkpt_bench_cli_{tag}"));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn no_arguments_exits_2_with_usage() {
    let out = bench_bin().output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("nothing to run"), "{err}");
    assert!(err.contains("usage: dagchkpt-bench"), "{err}");
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    let out = bench_bin().arg("--bogus").output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag: --bogus"), "{err}");
    assert!(err.contains("usage: dagchkpt-bench"), "{err}");
}

#[test]
fn unknown_campaign_exits_2_and_lists_names() {
    let out = bench_bin()
        .args(["--campaign", "nope"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown campaign `nope`"), "{err}");
    assert!(err.contains("fig2") && err.contains("sweep_all"), "{err}");
}

#[test]
fn missing_spec_file_exits_2() {
    let out = bench_bin()
        .args(["--spec", "/definitely/not/here.json"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_shard_exits_2() {
    let out = bench_bin()
        .args(["--campaign", "fig2", "--shard", "4/4"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad shard"));
}

#[test]
fn list_prints_builtins_and_exits_0() {
    let out = bench_bin().arg("--list").output().expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in dagchkpt_bench::builtin_names() {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
    // `--list` must never die on a panic: a registry entry that fails to
    // build is routed through the CLI error path (exit 2, message on
    // stderr), so no thread-panic banner can appear either way.
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("panicked"),
        "--list panicked"
    );
}

/// `--list` works at every scale flag (each scale rebuilds every builtin,
/// so a scale-dependent construction bug would surface here as exit 2
/// rather than a panic).
#[test]
fn list_builds_every_builtin_at_every_scale() {
    for scale in ["--quick", "--full"] {
        let out = bench_bin().args(["--list", scale]).output().expect("run");
        assert!(out.status.success(), "--list {scale} failed");
        assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
    }
}

/// A tiny spec-file campaign runs end to end: CSV + JSON rows land in the
/// output directory and an explicit `--seed` overrides the file's.
#[test]
fn spec_file_campaign_runs_end_to_end() {
    let dir = tmpdir("spec_e2e");
    let spec = dir.join("tiny.json");
    std::fs::write(
        &spec,
        r#"{
  "name": "tiny",
  "workflows": [
    { "RandomChain": { "min_weight": 5.0, "max_weight": 20.0,
                       "rule": { "ProportionalToWork": { "ratio": 0.1 } },
                       "default_lambda": 0.002 } }
  ],
  "sizes": [5],
  "failures": [ { "SourceDefault": {} } ],
  "strategies": [
    { "Heuristic": { "lin": "DepthFirst", "ckpt": "ByDecreasingWork" } },
    "ExactChain"
  ],
  "simulators": [ "Analytic", { "MonteCarlo": { "trials": 200 } } ],
  "seed": 1
}"#,
    )
    .unwrap();
    let out = bench_bin()
        .args(["--spec", spec.to_str().unwrap()])
        .args(["--out", dir.to_str().unwrap()])
        .args(["--seed", "7", "--no-charts"])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(dir.join("tiny.csv")).unwrap();
    // Header + 1 cell × 2 strategies × 2 simulators.
    assert_eq!(csv.lines().count(), 5, "{csv}");
    assert!(csv.starts_with("cell,workflow,n,lambda"), "{csv}");
    assert!(csv.contains("ExactChain"), "{csv}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("worst Monte-Carlo |z|"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every checked-in example spec stays valid and runs end to end through
/// the CLI.
#[test]
fn example_campaign_spec_parses() {
    let examples =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaigns");
    let mut specs: Vec<PathBuf> = std::fs::read_dir(&examples)
        .expect("examples/campaigns exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    specs.sort();
    assert!(specs.len() >= 6, "examples went missing: {specs:?}");
    let dir = tmpdir("examples");
    for path in &specs {
        let text = std::fs::read_to_string(path).expect("example spec exists");
        let campaign = dagchkpt_bench::Campaign::from_json(&text).expect("example spec parses");
        for stage in &campaign.stages {
            if let dagchkpt_bench::Stage::Scenario { scenario, .. } = stage {
                scenario.validate().expect("example scenario is valid");
            }
        }
        let out = bench_bin()
            .args(["--spec", path.to_str().unwrap()])
            .args(["--out", dir.to_str().unwrap(), "--no-charts"])
            .output()
            .expect("run");
        assert!(
            out.status.success(),
            "{}: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The release path of a built-in campaign, byte for byte: the binary's
/// CSV equals the pinned golden corpus (`tests/golden_campaigns.rs`
/// byte-checks every campaign in process).
#[test]
fn builtin_campaign_cli_output_matches_golden_csv() {
    let dir = tmpdir("golden_hetero");
    let out = bench_bin()
        .args([
            "--campaign",
            "hetero_replication",
            "--quick",
            "--seed",
            "42",
        ])
        .args(["--out", dir.to_str().unwrap(), "--no-charts"])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/quick/hetero_replication.csv");
    let want = std::fs::read(golden).expect("golden CSV exists");
    let got = std::fs::read(dir.join("hetero_replication.csv")).expect("CSV written");
    assert!(
        got == want,
        "hetero_replication.csv drifted from the golden corpus"
    );
    std::fs::remove_dir_all(&dir).ok();
}
