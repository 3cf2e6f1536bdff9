//! Result rows of heuristic runs, the size-matched sweep policy, and the
//! best-row-per-checkpoint-strategy reduction the paper plots.

use dagchkpt_core::SweepPolicy;

/// One result row (one heuristic on one cell).
#[derive(Debug, Clone)]
pub struct Row {
    /// Application name.
    pub workflow: String,
    /// Task count.
    pub n: usize,
    /// Failure rate.
    pub lambda: f64,
    /// Cost-rule label (`c=0.1w`, `c=5s`, …).
    pub rule: String,
    /// Heuristic name (`DF-CkptW`, …).
    pub heuristic: String,
    /// Expected makespan `T` (seconds).
    pub expected: f64,
    /// Failure-free, checkpoint-free time `T_inf = Σ w_i`.
    pub tinf: f64,
    /// `T / T_inf` — the paper's plotted metric.
    pub ratio: f64,
    /// Winning checkpoint budget for swept strategies.
    pub best_n: Option<usize>,
}

impl Row {
    /// CSV header matching [`Row::to_csv`].
    pub const CSV_HEADER: [&'static str; 9] = [
        "workflow",
        "n",
        "lambda",
        "cost_rule",
        "heuristic",
        "expected_makespan",
        "tinf",
        "ratio",
        "best_n",
    ];

    /// Serializes the row for [`crate::csvout::write_csv`].
    pub fn to_csv(&self) -> Vec<String> {
        vec![
            self.workflow.clone(),
            self.n.to_string(),
            format!("{:e}", self.lambda),
            self.rule.clone(),
            self.heuristic.clone(),
            format!("{:.6}", self.expected),
            format!("{:.6}", self.tinf),
            format!("{:.6}", self.ratio),
            self.best_n.map_or(String::new(), |n| n.to_string()),
        ]
    }
}

/// Sweep policy matched to the instance size: the paper's exhaustive search
/// up to 300 tasks, then a strided sweep with local refinement (identical
/// answers whenever `E[T]` is locally unimodal in the budget `N`, which it
/// empirically is — see the `strategies` tests).
pub fn auto_policy(n: usize) -> SweepPolicy {
    if n <= 300 {
        SweepPolicy::Exhaustive
    } else {
        SweepPolicy::Strided {
            stride: (n / 64).max(2),
        }
    }
}

/// The best row per checkpoint strategy (minimum expected makespan over the
/// linearizations) — what the paper plots in Figures 3, 5, 6 and 7.
pub fn best_per_ckpt_strategy(rows: &[Row]) -> Vec<Row> {
    let mut best: Vec<Row> = Vec::new();
    for suffix in ["CkptNvr", "CkptAlws", "CkptPer", "CkptW", "CkptC", "CkptD"] {
        if let Some(r) = rows
            .iter()
            .filter(|r| r.heuristic.ends_with(suffix))
            .min_by(|a, b| a.expected.total_cmp(&b.expected))
        {
            best.push(r.clone());
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagchkpt_core::{paper_heuristics, run_heuristic, CostRule};
    use dagchkpt_failure::FaultModel;
    use dagchkpt_workflows::PegasusKind;

    #[test]
    fn auto_policy_switches_at_300() {
        assert_eq!(auto_policy(100), SweepPolicy::Exhaustive);
        assert_eq!(auto_policy(300), SweepPolicy::Exhaustive);
        assert!(matches!(
            auto_policy(700),
            SweepPolicy::Strided { stride: 10 }
        ));
    }

    #[test]
    fn best_per_ckpt_strategy_covers_all_six() {
        let wf =
            PegasusKind::CyberShake.generate(50, CostRule::ProportionalToWork { ratio: 0.1 }, 2);
        let model = FaultModel::new(1e-3, 0.0);
        let rows: Vec<Row> = paper_heuristics(1)
            .into_iter()
            .map(|h| {
                let r = run_heuristic(&wf, model, h, auto_policy(50));
                Row {
                    workflow: "CyberShake".to_string(),
                    n: 50,
                    lambda: 1e-3,
                    rule: "c=0.1w".to_string(),
                    heuristic: r.name,
                    expected: r.expected_makespan,
                    tinf: wf.total_work(),
                    ratio: r.ratio,
                    best_n: r.best_n,
                }
            })
            .collect();
        assert_eq!(rows[0].to_csv().len(), Row::CSV_HEADER.len());
        let best = best_per_ckpt_strategy(&rows);
        assert_eq!(best.len(), 6);
        // CkptW best-of-3 ≤ every CkptW row.
        let w_best = best
            .iter()
            .find(|r| r.heuristic.ends_with("CkptW"))
            .unwrap();
        for r in rows.iter().filter(|r| r.heuristic.ends_with("CkptW")) {
            assert!(w_best.expected <= r.expected + 1e-9);
        }
    }
}
