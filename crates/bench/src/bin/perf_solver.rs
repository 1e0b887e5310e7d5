//! Solver performance suite: wall-time and claimed PHC for every reordering
//! solver on the movies filter workload at 250 / 1000 / 4000 rows, plus the
//! exact OPHR on a 16-row movies prefix and on a 19-row PDMX prefix cut to
//! `table6`'s 10 fields (the reference needs about 5 s there). Writes
//! `BENCH_solver.json` — the repo's solver-performance trajectory — and
//! prints the table with the speedup of the columnar [`Ggr`]/[`Ophr`] core
//! over the frozen [`GgrReference`]/[`OphrReference`] implementations.
//!
//! Times are medians over repeated runs (more repeats at small sizes); plan
//! and claimed PHC are asserted identical between each optimized solver and
//! its reference before timing, so the numbers always describe equivalent
//! work.

use llmqo_bench::{harness, report};
use llmqo_core::{
    FunctionalDeps, Ggr, GgrReference, Ophr, OphrReference, OriginalOrder, ReorderPlan,
    ReorderTable, Reorderer, SortedFixed, StatFixed,
};
use llmqo_datasets::{Dataset, DatasetId};
use llmqo_relational::{encode_table, project_fds, QueryKind};
use llmqo_tokenizer::Tokenizer;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Output schema of `BENCH_solver.json`.
const SCHEMA: &str = "llmqo.bench_solver.v2";

/// Rows of the PDMX prefix the exact solvers are compared on.
const PDMX_ROWS: usize = 19;

/// The largest PDMX prefix [`Ophr`] was found to solve within `table6`'s
/// default budget on a 2-vCPU VM (38 rows exceed it).
const PDMX_LIMIT_ROWS: usize = 37;

/// `table6`'s default OPHR budget (`LLMQO_OPHR_BUDGET_S`).
const TABLE6_BUDGET: Duration = Duration::from_secs(60);

struct Measurement {
    solver: &'static str,
    dataset: &'static str,
    rows: usize,
    median_ms: f64,
    claimed_phc: u64,
    plan: ReorderPlan,
}

fn movies_table(rows: usize) -> (ReorderTable, FunctionalDeps) {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, rows);
    let q = ds.query_of_kind(QueryKind::Filter).expect("filter query");
    let e = encode_table(&Tokenizer::new(), &ds.table, q).expect("encoding succeeds");
    let fds = project_fds(&ds.fds, &e.used_cols);
    (e.reorder, fds)
}

fn median_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn measure(
    solver: &dyn Reorderer,
    name: &'static str,
    dataset: &'static str,
    table: &ReorderTable,
    fds: &FunctionalDeps,
    iters: usize,
) -> Measurement {
    let solution = solver.reorder(table, fds).expect("solver succeeds");
    let median_ms = median_ms(iters, || {
        solver.reorder(table, fds).expect("solver succeeds");
    });
    Measurement {
        solver: name,
        dataset,
        rows: table.nrows(),
        median_ms,
        claimed_phc: solution.claimed_phc,
        plan: solution.plan,
    }
}

/// Asserts `opt` reproduces `reference`'s plan and claimed PHC, and returns
/// the reference's median over the optimized solver's.
fn checked_speedup(opt: &Measurement, reference: &Measurement) -> f64 {
    let what = format!("{} on {}-{}", opt.solver, opt.dataset, opt.rows);
    assert_eq!(
        opt.claimed_phc, reference.claimed_phc,
        "{what}: claimed PHC diverged from the reference"
    );
    assert!(
        opt.plan == reference.plan,
        "{what}: plan diverged from the reference"
    );
    reference.median_ms / opt.median_ms
}

fn main() {
    let sizes = [250usize, 1000, 4000];
    let mut all: Vec<Measurement> = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();

    for &rows in &sizes {
        let (table, fds) = movies_table(rows);
        let iters = if rows >= 4000 { 15 } else { 41 };
        let ggr_reference = GgrReference::default();
        let ggr = Ggr::default();
        let solvers: Vec<(&dyn Reorderer, &'static str)> = vec![
            (&OriginalOrder, "original"),
            (&SortedFixed, "sorted-fixed"),
            (&StatFixed, "stat-fixed"),
            (&ggr_reference, "ggr-reference"),
            (&ggr, "ggr"),
        ];
        let mut by_name: Vec<Measurement> = solvers
            .into_iter()
            .map(|(solver, name)| measure(solver, name, "movies", &table, &fds, iters))
            .collect();
        let ggr = by_name.iter().find(|m| m.solver == "ggr").expect("ggr ran");
        let reference = by_name
            .iter()
            .find(|m| m.solver == "ggr-reference")
            .expect("reference ran");
        speedups.push((
            format!("ggr/movies-{rows}"),
            checked_speedup(ggr, reference),
        ));
        all.append(&mut by_name);
    }

    // Exact solver on small prefixes (OPHR is exponential). The PDMX
    // reference takes seconds per solve, so it gets a single timed run.
    let (full, fds) = movies_table(64);
    let movies_head = full.head(16);
    let (pdmx, pdmx_fds) = harness::table6_sample(DatasetId::Pdmx, PDMX_ROWS);
    for (dataset, table, fds, iters, ref_iters) in [
        ("movies", &movies_head, &fds, 21, 21),
        ("pdmx", &pdmx, &pdmx_fds, 5, 1),
    ] {
        let ophr_ref = measure(
            &OphrReference::unbounded(),
            "ophr-reference",
            dataset,
            table,
            fds,
            ref_iters,
        );
        let ophr = measure(&Ophr::unbounded(), "ophr", dataset, table, fds, iters);
        speedups.push((
            format!("ophr/{dataset}-{}", table.nrows()),
            checked_speedup(&ophr, &ophr_ref),
        ));
        all.push(ophr_ref);
        all.push(ophr);
    }

    // The exact solver's row limit: one budgeted solve at the recorded
    // limit (`None` if it no longer fits the budget on this machine).
    let (limit_table, limit_fds) = harness::table6_sample(DatasetId::Pdmx, PDMX_LIMIT_ROWS);
    let limit_s = Ophr::with_budget(TABLE6_BUDGET)
        .reorder(&limit_table, &limit_fds)
        .ok()
        .map(|s| s.solve_time.as_secs_f64());
    println!(
        "ophr on pdmx-{PDMX_LIMIT_ROWS} within table6's {} s budget: {}",
        TABLE6_BUDGET.as_secs(),
        limit_s.map_or_else(|| "timeout".to_owned(), report::secs)
    );

    // Report table.
    let rows_fmt: Vec<Vec<String>> = all
        .iter()
        .map(|m| {
            vec![
                m.solver.to_string(),
                m.dataset.to_string(),
                m.rows.to_string(),
                format!("{:.3}", m.median_ms),
                m.claimed_phc.to_string(),
            ]
        })
        .collect();
    report::section(
        "Solver wall-time (T1 filter workloads, medians)",
        &["solver", "dataset", "rows", "median ms", "claimed PHC"],
        &rows_fmt,
    );
    let speedup_rows: Vec<Vec<String>> = speedups
        .iter()
        .map(|(k, v)| vec![k.clone(), format!("{v:.1}x")])
        .collect();
    report::section(
        "Columnar core vs frozen reference",
        &["workload", "speedup"],
        &speedup_rows,
    );

    // BENCH_solver.json: hand-rolled (the vendored serde has no JSON
    // backend). Row counts are absolute (`LLMQO_SCALE` is not read) and the
    // datasets come from their generators' built-in seeds.
    let mut json = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"scale\": 1.0,\n  \"seed\": \"built-in\",\n  \"rev\": \"{}\",\n",
        report::revision()
    );
    json.push_str("  \"workload\": \"T1 filter query encodings (synthetic, seeded)\",\n");
    json.push_str("  \"metric\": \"median wall-time ms over repeated in-process runs\",\n");
    json.push_str("  \"measurements\": [\n");
    for (i, m) in all.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"solver\": \"{}\", \"dataset\": \"{}\", \"rows\": {}, \"median_ms\": {:.4}, \"claimed_phc\": {}}}{}",
            m.solver,
            m.dataset,
            m.rows,
            m.median_ms,
            m.claimed_phc,
            if i + 1 == all.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"speedup_vs_reference\": {\n");
    for (i, (k, v)) in speedups.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{k}\": {v:.2}{}",
            if i + 1 == speedups.len() { "" } else { "," }
        );
    }
    let _ = writeln!(
        json,
        "  }},\n  \"ophr_row_limit\": {{\"dataset\": \"pdmx\", \"rows\": {PDMX_LIMIT_ROWS}, \"budget_s\": {}, \"solve_s\": {}}}\n}}",
        TABLE6_BUDGET.as_secs(),
        limit_s.map_or_else(|| "null".to_owned(), |s| format!("{s:.3}"))
    );
    std::fs::write("BENCH_solver.json", &json).expect("write BENCH_solver.json");
    println!("\nwrote BENCH_solver.json");
}
