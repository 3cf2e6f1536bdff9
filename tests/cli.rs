//! End-to-end tests of the `dagchkpt` CLI binary
//! (generate → solve → eval → simulate round trip through JSON files).

use dagchkpt::workflows::PegasusKind;
use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dagchkpt"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dagchkpt_cli_{tag}"));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn generate_solve_eval_simulate_roundtrip() {
    let dir = tmpdir("roundtrip");
    let wf = dir.join("wf.json");
    let sched = dir.join("sched.json");

    let out = bin()
        .args(["generate", "--kind", "montage", "-n", "50", "--seed", "9"])
        .args(["--out", wf.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(wf.exists());

    let out = bin()
        .args(["solve", "--workflow", wf.to_str().unwrap()])
        .args(["--lambda", "1e-3", "--heuristic", "DF-CkptW"])
        .args(["--out", sched.to_str().unwrap()])
        .output()
        .expect("run solve");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DF-CkptW"), "{stdout}");

    let out = bin()
        .args(["eval", "--workflow", wf.to_str().unwrap()])
        .args(["--schedule", sched.to_str().unwrap(), "--lambda", "1e-3"])
        .output()
        .expect("run eval");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("E[makespan]"), "{stdout}");
    assert!(stdout.contains("T/Tinf"), "{stdout}");

    let out = bin()
        .args(["simulate", "--workflow", wf.to_str().unwrap()])
        .args(["--schedule", sched.to_str().unwrap()])
        .args(["--lambda", "1e-3", "--trials", "2000", "--seed", "1"])
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The z-score line proves analytic and simulated agree in-band.
    let z_line = stdout.lines().find(|l| l.contains("z =")).expect("z line");
    let z: f64 = z_line
        .split("z = ")
        .nth(1)
        .and_then(|s| s.trim_end_matches(')').trim().parse().ok())
        .expect("parse z");
    assert!(z.abs() < 5.0, "CLI simulate z out of band: {z_line}");

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn solve_from_kind_without_file() {
    let out = bin()
        .args(["solve", "--kind", "ligo", "-n", "40", "--lambda", "1e-3"])
        .output()
        .expect("run solve");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // All 14 heuristics reported.
    assert_eq!(
        stdout.lines().filter(|l| l.contains("Ckpt")).count(),
        14,
        "{stdout}"
    );
}

#[test]
fn bad_usage_fails_with_help() {
    for args in [
        vec!["frobnicate"],
        vec!["solve", "--lambda", "1e-3"], // no workflow source
        vec!["generate", "--kind", "nosuch", "-n", "50"],
        vec![
            "generate", "--kind", "montage", "-n", "50", "--rule", "banana",
        ],
        // Below the generator minimum: a usage error, never a panic.
        vec!["generate", "--kind", "montage", "-n", "5"],
        vec!["solve", "--kind", "montage", "-n", "5", "--lambda", "1e-3"],
    ] {
        let out = bin().args(&args).output().expect("run");
        assert!(!out.status.success(), "{args:?} unexpectedly succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// Runs `cmd --kind K -n N` for every kind at exactly its generator
/// minimum (must succeed) and one task below it (must be a usage error
/// naming the minimum, never a panic).
fn assert_kind_minimum_enforced(cmd: &[&str]) {
    for kind in PegasusKind::ALL {
        let (name, min) = (kind.name().to_ascii_lowercase(), kind.min_tasks());
        let run = |n: usize| {
            let n = n.to_string();
            bin()
                .args(cmd)
                .args(["--kind", &name, "-n", &n])
                .output()
                .expect("run")
        };
        let at_min = run(min);
        let stderr = String::from_utf8_lossy(&at_min.stderr);
        assert!(at_min.status.success(), "{cmd:?} {kind} -n {min}: {stderr}");
        let below = run(min - 1);
        assert_eq!(
            below.status.code(),
            Some(2),
            "{cmd:?} {kind} -n {}",
            min - 1
        );
        let stderr = String::from_utf8_lossy(&below.stderr);
        assert!(
            stderr.contains(&format!("{kind} needs ≥ {min} tasks")),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn generate_accepts_each_kind_at_its_minimum_and_rejects_one_below() {
    assert_kind_minimum_enforced(&["generate"]);
}

/// `solve`'s `--kind K -n N` workflow source shares the same check.
#[test]
fn solve_from_kind_flags_rejects_below_minimum() {
    assert_kind_minimum_enforced(&["solve", "--lambda", "1e-3", "--heuristic", "DF-CkptW"]);
}

#[test]
fn weibull_simulation_flag() {
    let dir = tmpdir("weibull");
    let wf = dir.join("wf.json");
    let sched = dir.join("sched.json");
    assert!(bin()
        .args(["generate", "--kind", "cybershake", "-n", "30", "--out"])
        .arg(&wf)
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["solve", "--workflow"])
        .arg(&wf)
        .args(["--lambda", "1e-3", "--heuristic", "DF-CkptW", "--out"])
        .arg(&sched)
        .status()
        .unwrap()
        .success());
    let out = bin()
        .args(["simulate", "--workflow"])
        .arg(&wf)
        .args(["--schedule"])
        .arg(&sched)
        .args([
            "--lambda",
            "1e-3",
            "--trials",
            "500",
            "--weibull-shape",
            "0.7",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(dir).ok();
}
