//! The acceptance check of the tail-latency objective, read straight
//! off the golden corpus: the `tail_latency` campaign runs the **same
//! cells** (same chain instances, seeds, row simulators) under the mean
//! and p99 objectives, so its two CSVs are comparable row by row, and the
//! objectives must *diverge both ways*:
//!
//! * the mean-minimizing stage wins on `mc_mean` — strictly, on every
//!   row (otherwise the p99 objective would be a free lunch);
//! * the p99-minimizing stage wins on `mc_p99` — strictly, on every row
//!   (otherwise the quantile sweep would be dead weight).
//!
//! Both stages share the row simulator stream (`SeedPolicy::LegacyXorN`),
//! so the differences are pure schedule differences, not sampling noise.

use std::collections::BTreeMap;
use std::path::Path;

/// `(cell, strategy) → (best_n, mc_mean, mc_p99)` from one golden CSV.
fn load(name: &str) -> BTreeMap<(String, String), (u64, f64, f64)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/quick")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading golden {}: {e}", path.display()));
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .unwrap_or_else(|| panic!("no `{name}` column in {header:?}"))
    };
    let (cell, strategy) = (col("cell"), col("strategy"));
    let (best_n, mc_mean, mc_p99) = (col("best_n"), col("mc_mean"), col("mc_p99"));
    let mut out = BTreeMap::new();
    for line in lines {
        let f: Vec<&str> = line.split(',').collect();
        let key = (f[cell].to_string(), f[strategy].to_string());
        let row = (
            f[best_n].parse::<u64>().expect("numeric best_n"),
            f[mc_mean].parse::<f64>().expect("numeric mc_mean"),
            f[mc_p99].parse::<f64>().expect("numeric mc_p99"),
        );
        assert!(out.insert(key, row).is_none(), "duplicate row in {name}");
    }
    out
}

#[test]
fn tail_latency_golden_diverges_both_ways() {
    let mean = load("tail_latency_mean.csv");
    let p99 = load("tail_latency_p99.csv");
    assert_eq!(mean.len(), p99.len());
    assert!(!mean.is_empty(), "empty tail_latency goldens");

    let mut schedules_differ = 0usize;
    for (key, &(n_mean, mean_mean, mean_p99)) in &mean {
        let (n_p99, p99_mean, p99_p99) = p99[key];
        assert!(
            mean_mean < p99_mean,
            "{key:?}: the mean objective lost on mc_mean ({mean_mean} vs {p99_mean})"
        );
        assert!(
            p99_p99 < mean_p99,
            "{key:?}: the p99 objective lost on mc_p99 ({p99_p99} vs {mean_p99})"
        );
        if n_mean != n_p99 {
            schedules_differ += 1;
        }
    }
    assert!(
        schedules_differ > 0,
        "the two objectives picked identical checkpoint counts everywhere — \
         the quantile sweep never changed a decision"
    );
}
