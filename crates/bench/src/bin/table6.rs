//! Reproduces **Table 6** (Appendix D.1): GGR vs the optimal OPHR oracle on
//! small dataset prefixes.
//!
//! The paper runs OPHR on the first 10–200 rows of each dataset (PDMX cut to
//! 10 columns), terminating runs over two hours, and reports that GGR lands
//! within ~2 points of the optimal prefix hit rate while being orders of
//! magnitude faster. Our OPHR is memoized and budgeted
//! (`LLMQO_OPHR_BUDGET_S`, default 60 s per dataset).

use llmqo_bench::{harness, report};
use llmqo_core::{phc_of_plan, Ggr, Ophr, Reorderer, SolveError};
use llmqo_datasets::DatasetId;
use std::time::Duration;

fn main() {
    let budget_s: u64 = std::env::var("LLMQO_OPHR_BUDGET_S")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    // Paper's per-dataset sample sizes (largest successful OPHR runs).
    let cases = [
        (DatasetId::Movies, 50usize, (80.6, 80.6)),
        (DatasetId::Products, 25, (19.7, 18.5)),
        (DatasetId::Bird, 50, (77.5, 76.2)),
        (DatasetId::Pdmx, 25, (29.4, 28.6)),
        (DatasetId::Fever, 50, (7.3, 6.9)),
        (DatasetId::Beer, 10, (25.7, 25.6)),
        (DatasetId::Squad, 10, (34.0, 34.0)),
    ];
    let mut rows = Vec::new();
    for (id, nrows, (paper_ophr, paper_ggr)) in cases {
        let (table, fds) = harness::table6_sample(id, nrows);

        let ggr = Ggr::default().reorder(&table, &fds).expect("ggr");
        let ggr_rate = phc_of_plan(&table, &ggr.plan).hit_rate();

        let ophr = Ophr::with_budget(Duration::from_secs(budget_s)).reorder(&table, &fds);
        let (ophr_cell, ophr_time, diff) = match &ophr {
            Ok(sol) => {
                let rate = phc_of_plan(&table, &sol.plan).hit_rate();
                assert!(
                    phc_of_plan(&table, &sol.plan).phc >= phc_of_plan(&table, &ggr.plan).phc,
                    "optimal solver beaten by greedy on {}",
                    id.name()
                );
                (
                    report::pct(rate),
                    report::secs(sol.solve_time.as_secs_f64()),
                    format!("{:+.1}pp", (ggr_rate - rate) * 100.0),
                )
            }
            Err(SolveError::BudgetExceeded { .. }) => (
                "timeout".to_owned(),
                format!(">{budget_s}s"),
                "n/a".to_owned(),
            ),
            Err(e) => panic!("unexpected solver error: {e}"),
        };
        rows.push(vec![
            format!("{}-{}", id.name(), nrows),
            ophr_cell,
            report::pct(ggr_rate),
            diff,
            format!("{paper_ophr:.1}% / {paper_ggr:.1}%"),
            ophr_time,
            report::secs(ggr.solve_time.as_secs_f64()),
        ]);
    }
    report::section(
        "Table 6 (D.1): OPHR vs GGR on dataset prefixes (paper: GGR within \
         ~2pp of optimal, hours faster)",
        &[
            "Sample",
            "OPHR PHR",
            "GGR PHR",
            "GGR-OPHR",
            "paper (OPHR/GGR)",
            "OPHR time",
            "GGR time",
        ],
        &rows,
    );
}
