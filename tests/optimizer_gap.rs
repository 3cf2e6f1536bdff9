//! The acceptance check of the objective-driven optimizer core, read
//! straight off the golden corpus: the `replication_aware` campaign runs
//! the **same cells** (same workflows, seeds, platform, replication) under
//! the three optimizer backends, so its three CSVs are comparable row by
//! row, and
//!
//! * `aware ≤ proxy` and `joint ≤ aware` on every row (never-worse
//!   dominance — both sweeps enumerate the same candidate family, the
//!   descent only accepts improvements);
//! * `aware < proxy` strictly on at least one heterogeneous cell (the
//!   proxy optimizer is *measurably* suboptimal under replication), and
//!   `joint < aware` strictly somewhere (per-task replica selection finds
//!   non-prefix assignments on the anti-correlated pool).

use std::collections::BTreeMap;
use std::path::Path;

/// `(cell, strategy) → expected` from one golden CSV.
fn load(name: &str) -> BTreeMap<(String, String), f64> {
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
    let (cell, strategy, expected) = (col("cell"), col("strategy"), col("expected"));
    let mut out = BTreeMap::new();
    for line in lines {
        let f: Vec<&str> = line.split(',').collect();
        let key = (f[cell].to_string(), f[strategy].to_string());
        let v: f64 = f[expected].parse().expect("numeric expected");
        assert!(out.insert(key, v).is_none(), "duplicate row in {name}");
    }
    out
}

#[test]
fn replication_aware_golden_shows_positive_optimality_gaps() {
    let proxy = load("replication_aware_proxy.csv");
    let aware = load("replication_aware_aware.csv");
    let joint = load("replication_aware_joint.csv");
    assert_eq!(proxy.len(), aware.len());
    assert_eq!(proxy.len(), joint.len());
    assert!(proxy.len() >= 14, "expected the 14 paper heuristics");

    let mut aware_strict = 0usize;
    let mut joint_strict = 0usize;
    for (key, &p) in &proxy {
        let a = aware[key];
        let j = joint[key];
        assert!(a <= p + 1e-9 * p, "{key:?}: aware {a} worse than proxy {p}");
        assert!(j <= a + 1e-9 * a, "{key:?}: joint {j} worse than aware {a}");
        if a < p - 1e-9 * p {
            aware_strict += 1;
        }
        if j < a - 1e-9 * a {
            joint_strict += 1;
        }
    }
    assert!(
        aware_strict > 0,
        "the replication-aware sweep never strictly beat the proxy on any cell"
    );
    assert!(
        joint_strict > 0,
        "per-task replica selection never strictly beat the aware sweep on any cell"
    );
}
