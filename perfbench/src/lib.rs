//! End-to-end benchmark of the llmqo workspace.
//!
//! One run = one workload, one seed, one measuring window. The run builds
//! its inputs from the seed (set-up, repeated between the timed passes and
//! reported as a median), makes one untimed warm-up pass that also runs the
//! reference checks, then repeats the workload's body in a closed loop —
//! each call waits for the previous one — until the window is spent.
//! Wall-clock metrics come from each operation's fastest repetition across
//! the timed passes; simulated-clock metrics are deterministic and come
//! from the warm-up pass, and every later pass must reproduce them.
//!
//! With tracing on, timed passes alternate: untraced, then traced (every
//! call wrapped in a span, [`trace`]), so both kinds share the window's
//! host conditions. The per-layer table is computed from the spans.
//!
//! See `perfbench/README.md` for the metrics, their units and the layer →
//! end-to-end mapping.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod ophr;
pub mod rag;
pub mod rng;
pub mod sql;
pub mod trace;

use llmqo::core::{FunctionalDeps, Ggr};
use llmqo::costmodel::{Pricing, Usage};
use llmqo::relational::{LlmQuery, QueryExecutor, Table};
use llmqo::serve::{EngineReport, OracleLlm, SimEngine};
use llmqo::tokenizer::Tokenizer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

/// Version of the result layout printed by [`Outcome::describe_json`].
pub const SCHEMA: &str = "llmqo-perfbench/1";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Retrieval + long-field encode + GGR + one engine run (paper T5).
    RagT5,
    /// The SQL statement matrix over five relational datasets.
    SqlMix,
    /// GGR-ordered request sets through the 8-replica cluster.
    ClusterServe,
    /// OPHR against GGR on small seeded samples (paper Table 6).
    OphrExact,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::RagT5,
        Workload::SqlMix,
        Workload::ClusterServe,
        Workload::OphrExact,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RagT5 => "rag_t5",
            Workload::SqlMix => "sql_mix",
            Workload::ClusterServe => "cluster_serve",
            Workload::OphrExact => "ophr_exact",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale: `Full` is the benchmark; `Tiny` keeps the same code path on
/// inputs small enough for unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's inputs.
    Full,
    /// Test-sized inputs.
    Tiny,
}

/// A deliberately wrong expectation, one per correctness check. Tests use
/// these to prove that each check can fail; the benchmark never sets one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Outputs equal the `OracleLlm` truth.
    Truth,
    /// The decomposed encode → solve → engine path matches
    /// `QueryExecutor::execute`'s engine report.
    ExecuteReport,
    /// SQL rows equal the benchmark-computed expectation.
    SqlRows,
    /// The SQL expectation is non-empty.
    SqlNonEmpty,
    /// The second issue of a statement returns the first issue's rows.
    SecondIssue,
    /// Cluster ledgers balance: `succeeded + failed + shed == offered`.
    Ledger,
    /// OPHR's PHC is at least GGR's.
    OphrBeatsGgr,
    /// A solver's claimed PHC equals `phc_of_plan`.
    ClaimedPhc,
    /// Every pass reproduces the warm-up pass's simulated-clock summary.
    Deterministic,
}

impl Sabotage {
    /// Every check, for tests that trip each one.
    pub const ALL: [Sabotage; 9] = [
        Sabotage::Truth,
        Sabotage::ExecuteReport,
        Sabotage::SqlRows,
        Sabotage::SqlNonEmpty,
        Sabotage::SecondIssue,
        Sabotage::Ledger,
        Sabotage::OphrBeatsGgr,
        Sabotage::ClaimedPhc,
        Sabotage::Deterministic,
    ];

    /// The check's name as it appears in failure messages.
    pub fn check_name(self) -> &'static str {
        match self {
            Sabotage::Truth => "truth",
            Sabotage::ExecuteReport => "execute_report",
            Sabotage::SqlRows => "sql_rows",
            Sabotage::SqlNonEmpty => "sql_nonempty",
            Sabotage::SecondIssue => "second_issue",
            Sabotage::Ledger => "ledger",
            Sabotage::OphrBeatsGgr => "ophr_beats_ggr",
            Sabotage::ClaimedPhc => "claimed_phc",
            Sabotage::Deterministic => "deterministic",
        }
    }

    /// The workloads that run this check.
    pub fn workloads(self) -> &'static [Workload] {
        match self {
            Sabotage::Truth => &[Workload::RagT5, Workload::OphrExact],
            Sabotage::ExecuteReport => &[Workload::RagT5, Workload::OphrExact],
            Sabotage::SqlRows | Sabotage::SqlNonEmpty | Sabotage::SecondIssue => {
                &[Workload::SqlMix]
            }
            Sabotage::Ledger => &[Workload::ClusterServe],
            Sabotage::OphrBeatsGgr => &[Workload::OphrExact],
            Sabotage::ClaimedPhc => &[Workload::RagT5, Workload::ClusterServe, Workload::OphrExact],
            Sabotage::Deterministic => &Workload::ALL,
        }
    }
}

/// Run parameters.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring window, seconds (at least one timed pass always runs).
    pub seconds: f64,
    /// Whether to alternate traced passes with the untraced ones.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Set-up repetitions, at least: one before the warm-up pass, one after
    /// each timed pass, and more after the window until there are this
    /// many (the median is reported).
    pub setups: usize,
    /// A deliberately wrong expectation (tests only).
    pub sabotage: Option<Sabotage>,
}

/// Simulated-clock summary of one pass. Deterministic for a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sim {
    /// Summed job completion time or makespan, sim seconds.
    pub jct_s: f64,
    /// Prompt tokens offered to the engines.
    pub prompt_tokens: u64,
    /// Prompt tokens served from a prefix cache.
    pub cached_tokens: u64,
    /// Prompt tokens prefilled.
    pub computed_tokens: u64,
    /// Output tokens generated.
    pub output_tokens: u64,
    /// LLM calls (engine requests) made.
    pub llm_calls: u64,
    /// p99 simulated wait; see the README for its per-workload meaning.
    pub wait_p99_s: f64,
    /// Highest sustained request rate; see the README.
    pub max_rate_rps: f64,
    /// Successful requests per simulated second.
    pub goodput_rps: f64,
    /// Operations or requests offered.
    pub offered: u64,
    /// Of those, served without error, shed or failed check.
    pub served: u64,
}

impl Sim {
    /// Adds one engine run's ledger.
    pub fn add_engine(&mut self, r: &EngineReport) {
        self.jct_s += r.job_completion_time_s;
        self.prompt_tokens += r.total_prompt_tokens;
        self.cached_tokens += r.cached_prompt_tokens;
        self.computed_tokens += r.computed_prompt_tokens;
        self.output_tokens += r.total_output_tokens;
        self.wait_p99_s = self.wait_p99_s.max(r.ttft_p99_s);
    }

    /// Sets the batch-job rates: every request is offered at time zero, so
    /// the highest rate sustained is the rate the job drains at.
    pub fn finish_batch(&mut self) {
        let rate = if self.jct_s > 0.0 {
            self.llm_calls as f64 / self.jct_s
        } else {
            0.0
        };
        self.goodput_rps = rate;
        self.max_rate_rps = rate;
    }

    /// Cached over offered prompt tokens.
    pub fn hit_rate(&self) -> f64 {
        if self.prompt_tokens == 0 {
            0.0
        } else {
            self.cached_tokens as f64 / self.prompt_tokens as f64
        }
    }

    /// The token ledger priced at Claude 3.5 Sonnet rates.
    pub fn cost_usd(&self) -> f64 {
        Usage {
            uncached_input: self.computed_tokens,
            cached_input: self.cached_tokens,
            cache_write: 0,
            output: self.output_tokens,
        }
        .cost(&Pricing::claude35_sonnet())
    }
}

/// Per-layer counters of one pass, keyed by per-layer metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Adds an engine report's work counters to `counts`.
pub fn count_engine(counts: &mut Counts, r: &EngineReport) {
    *counts.entry("serve.steps").or_default() += r.steps as f64;
    *counts.entry("serve.evictions").or_default() += r.evictions as f64;
    *counts.entry("serve.cached_tokens").or_default() += r.cached_prompt_tokens as f64;
    *counts.entry("serve.computed_tokens").or_default() += r.computed_prompt_tokens as f64;
    *counts.entry("serve.output_tokens").or_default() += r.total_output_tokens as f64;
}

/// Outcome of one pass over a workload body.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Input rows or requests through the body.
    pub rows: u64,
    /// Simulated-clock summary.
    pub sim: Sim,
    /// Per-layer counters.
    pub counts: Counts,
    /// Solver wall time the execution reports carry, seconds.
    pub solve_s: f64,
    /// Wall time of each operation of the pass, ms, in call order (set by
    /// the runner).
    pub op_ms: Vec<f64>,
}

impl Pass {
    /// Whether two passes did the same work: equal rows, simulated-clock
    /// summary and counters. Wall-clock fields are excluded, and so is
    /// `served`, which also counts the warm-up pass's reference checks.
    pub fn same_work(&self, other: &Pass) -> bool {
        let work = |p: &Pass| Sim { served: 0, ..p.sim };
        self.rows == other.rows && work(self) == work(other) && self.counts == other.counts
    }
}

/// Per-run context handed to a workload body: the tracer, the timer for
/// top-level operations, and the correctness ledger.
#[derive(Debug)]
pub struct Cx {
    /// Span recorder (disabled outside traced passes).
    pub tracer: Tracer,
    sabotage: Option<Sabotage>,
    failures: Vec<String>,
    /// Wall time of every operation of the current pass, ms.
    op_ms: Vec<f64>,
    ops: u64,
    ops_failed: u64,
    op_failures_at_start: usize,
}

impl Cx {
    fn new(trace: bool, sabotage: Option<Sabotage>) -> Self {
        Cx {
            tracer: Tracer::new(trace),
            sabotage,
            failures: Vec::new(),
            op_ms: Vec::new(),
            ops: 0,
            ops_failed: 0,
            op_failures_at_start: 0,
        }
    }

    /// Times one top-level operation (a statement, a cell, a solve, a
    /// query). Only the calls inside `f` are timed; checks go after it.
    /// Close the operation with [`end_op`](Cx::end_op).
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op_failures_at_start = self.failures.len();
        let start = Instant::now();
        let out = f(&mut self.tracer);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.op_ms.push(ms);
        self.ops += 1;
        out
    }

    /// Ends the operation opened by the last [`op`](Cx::op): it counts as
    /// failed if an error or a failed check was recorded since then.
    /// Returns whether it succeeded.
    pub fn end_op(&mut self) -> bool {
        let ok = self.failures.len() == self.op_failures_at_start;
        if !ok {
            self.ops_failed += 1;
        }
        ok
    }

    /// Records a failed operation that returned an error.
    pub fn error(&mut self, what: &str, err: impl std::fmt::Display) {
        self.failures.push(format!("error: {what}: {err}"));
    }

    /// Whether this run deliberately breaks `check`'s expectation.
    pub fn sabotaged(&self, check: Sabotage) -> bool {
        self.sabotage == Some(check)
    }

    /// Records the outcome of one correctness check. Returns `ok`.
    pub fn check(&mut self, check: Sabotage, ok: bool, detail: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures
                .push(format!("check {} failed: {}", check.check_name(), detail()));
        }
        ok
    }

    /// Runs check-only work inside a span, so traced passes account for it.
    pub fn checking<T>(&mut self, f: impl FnOnce(&mut Cx) -> T) -> T {
        self.tracer.begin("bench.check");
        let out = f(self);
        self.tracer.end();
        out
    }
}

/// The warm-up pass's reference checks of one GGR-ordered query:
/// `QueryExecutor::execute` on the same inputs must report the decomposed
/// encode → GGR → `plan_requests` → `SimEngine::run` path's engine report,
/// and its outputs must equal the `OracleLlm` truth, one per row.
#[allow(clippy::too_many_arguments)]
pub fn check_execute(
    cx: &mut Cx,
    what: &str,
    engine: &SimEngine,
    table: &Table,
    query: &LlmQuery,
    fds: &FunctionalDeps,
    truth: &dyn Fn(usize) -> String,
    decomposed: EngineReport,
) {
    let executor = QueryExecutor::new(engine, &OracleLlm, Tokenizer::new());
    let out = match executor.execute(table, query, &Ggr::default(), fds, truth) {
        Ok(out) => out,
        Err(e) => return cx.error(&format!("{what}: QueryExecutor::execute"), e),
    };
    let mut expected = decomposed;
    if cx.sabotaged(Sabotage::ExecuteReport) {
        expected.steps += 1;
    }
    cx.check(
        Sabotage::ExecuteReport,
        out.report.engine == expected,
        || {
            format!(
                "{what}: execute {:?} vs decomposed {expected:?}",
                out.report.engine
            )
        },
    );
    let salt = if cx.sabotaged(Sabotage::Truth) {
        "!"
    } else {
        ""
    };
    let bad = out
        .outputs
        .iter()
        .filter(|o| o.text != format!("{}{salt}", truth(o.row)))
        .count();
    cx.check(
        Sabotage::Truth,
        bad == 0 && out.outputs.len() == table.nrows(),
        || {
            format!(
                "{what}: {bad} of {} outputs differ from the truth",
                out.outputs.len()
            )
        },
    );
}

/// A workload's prepared inputs and its timed body.
pub trait Body {
    /// Input sizes, for the self-describing header.
    fn sizes(&self) -> Vec<(&'static str, u64)>;

    /// One pass of the body. `first` marks the untimed warm-up pass, which
    /// also runs the reference checks.
    fn pass(&self, cx: &mut Cx, first: bool) -> Pass;
}

/// Builds a workload's inputs from the seed.
fn setup(cfg: &Config, tracer: &mut Tracer) -> Box<dyn Body> {
    match cfg.workload {
        Workload::RagT5 => Box::new(rag::setup(cfg.seed, cfg.size, tracer)),
        Workload::SqlMix => Box::new(sql::setup(cfg.seed, cfg.size, tracer)),
        Workload::ClusterServe => Box::new(cluster::setup(cfg.seed, cfg.size, tracer)),
        Workload::OphrExact => Box::new(ophr::setup(cfg.seed, cfg.size, tracer)),
    }
}

/// One metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Measured value.
    pub value: f64,
    /// Unit, as named in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The run's parameters.
    pub config: Config,
    /// Input sizes.
    pub sizes: Vec<(&'static str, u64)>,
    /// Timed passes (untraced, traced).
    pub passes: (usize, usize),
    /// Operations attempted (warm-up pass included).
    pub attempted: u64,
    /// Operations that errored or failed a check.
    pub failed: u64,
    /// Failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics, by name.
    pub end_to_end: BTreeMap<&'static str, Metric>,
    /// Per-layer metrics, by name (traced runs only).
    pub per_layer: BTreeMap<&'static str, Metric>,
    /// The traced run's spans as JSON (traced runs only).
    pub spans_json: Option<String>,
}

/// Per-layer span names and their metric names, in report order.
pub const LAYER_SPANS: [(&str, &str); 12] = [
    ("datasets.generate", "datasets.generate_s"),
    ("rag.retrieve", "rag.retrieve_s"),
    ("relational.encode", "relational.encode_s"),
    ("relational.plan_requests", "relational.plan_requests_s"),
    ("relational.sql_run", "relational.sql_run_s"),
    ("core.ggr", "core.ggr_s"),
    ("core.ophr", "core.ophr_s"),
    ("serve.run", "serve.run_s"),
    ("cluster.run", "cluster.run_s"),
    ("cluster.run_with_faults", "cluster.faults_s"),
    ("cluster.run_overloaded", "cluster.overload_s"),
    ("bench.check", "bench.check_s"),
];

/// Per-layer counters and their units, in report order. Every workload
/// reports every one (zero where the layer does no work).
pub const LAYER_COUNTS: [(&str, &str); 17] = [
    ("relational.prompt_tokens", "count"),
    ("relational.llm_calls", "count"),
    ("relational.rows_deduped", "count"),
    ("relational.answer_cache_hits", "count"),
    ("relational.answer_cache_hit_rate", "frac"),
    ("core.claimed_phc", "count"),
    ("core.ophr_phc", "count"),
    ("serve.steps", "count"),
    ("serve.evictions", "count"),
    ("serve.cached_tokens", "count"),
    ("serve.computed_tokens", "count"),
    ("serve.output_tokens", "count"),
    ("cluster.retries", "count"),
    ("cluster.failovers", "count"),
    ("cluster.shed", "count"),
    ("cluster.macro_steps", "count"),
    ("cluster.load_skew", "ratio"),
];

/// Runs one benchmark run end to end.
pub fn run(config: Config) -> Outcome {
    let mut cx = Cx::new(false, config.sabotage);

    // Set-up, repeated; the median is reported. The first repetition builds
    // the inputs the passes use. The others run between timed passes (and
    // after them, up to `config.setups`), so the median samples the host
    // over the whole window, not over one burst at the start. Generation
    // spans are recorded only when tracing, into their own run id.
    let mut setup_times: Vec<f64> = Vec::new();
    let mut gen_tracer = Tracer::new(config.trace);
    let body = timed_setup(&config, &mut gen_tracer, &mut setup_times);

    // Warm-up pass: reference checks, deterministic sim metrics. Peak memory
    // is read here, after one set-up and one pass, so that it does not
    // depend on how many passes the window holds.
    let warm = body.pass(&mut cx, true);
    let peak_rss = peak_rss_mib();

    let (untraced, traced) = timed_passes(
        &*body,
        &mut cx,
        &warm,
        config.seconds,
        config.trace,
        &mut || drop(timed_setup(&config, &mut gen_tracer, &mut setup_times)),
    );
    while setup_times.len() < config.setups {
        timed_setup(&config, &mut gen_tracer, &mut setup_times);
    }
    let setups = setup_times.len();
    let setup_s = median(&mut setup_times);

    let mut best_ms = best_op_ms(&untraced);
    let rows_per_s = warm.rows as f64 / (best_ms.iter().sum::<f64>() / 1e3).max(1e-9);
    let mut e2e = BTreeMap::new();
    let put = |m: &mut BTreeMap<&'static str, Metric>, name, value, unit| {
        m.insert(name, Metric { value, unit });
    };
    let sim = warm.sim;
    best_ms.sort_by(f64::total_cmp);
    put(&mut e2e, "setup_s", setup_s, "s");
    put(&mut e2e, "rows_per_s", rows_per_s, "1/s");
    put(&mut e2e, "stmt_p50_ms", band_quantile(&best_ms, 0.50), "ms");
    put(&mut e2e, "stmt_p90_ms", band_quantile(&best_ms, 0.90), "ms");
    put(&mut e2e, "peak_rss_mib", peak_rss, "MiB");
    put(&mut e2e, "sim_jct_s", sim.jct_s, "s");
    put(&mut e2e, "prefix_hit_rate", sim.hit_rate(), "frac");
    put(&mut e2e, "cost_usd", sim.cost_usd(), "USD");
    put(&mut e2e, "llm_calls", sim.llm_calls as f64, "count");
    put(&mut e2e, "sim_wait_p99_s", sim.wait_p99_s, "s");
    put(&mut e2e, "sim_max_rate_rps", sim.max_rate_rps, "1/s");
    put(&mut e2e, "goodput_rps", sim.goodput_rps, "1/s");
    let served = if sim.offered == 0 {
        0.0
    } else {
        sim.served as f64 / sim.offered as f64
    };
    put(&mut e2e, "served_frac", served, "frac");

    let mut per_layer = BTreeMap::new();
    let mut spans_json = None;
    if config.trace {
        let n = traced.len().max(1) as f64;
        let own = cx.tracer.self_seconds();
        let gen = gen_tracer.self_seconds();
        for (span, metric) in LAYER_SPANS {
            let v = if span == "datasets.generate" {
                gen.get(span).copied().unwrap_or(0.0) / setups as f64
            } else {
                own.get(span).copied().unwrap_or(0.0) / n
            };
            put(&mut per_layer, metric, v, "s");
        }
        for (name, unit) in LAYER_COUNTS {
            put(
                &mut per_layer,
                name,
                warm.counts.get(name).copied().unwrap_or(0.0),
                unit,
            );
        }
        let solve_s: f64 = traced.iter().map(|p| p.solve_s).sum();
        put(&mut per_layer, "relational.solve_s", solve_s / n, "s");
        let traced_s = best_op_ms(&traced).iter().sum::<f64>() / 1e3;
        let traced_rate = warm.rows as f64 / traced_s.max(1e-9);
        let overhead = if rows_per_s > 0.0 {
            1.0 - traced_rate / rows_per_s
        } else {
            0.0
        };
        put(&mut per_layer, "trace.overhead_frac", overhead, "frac");
        let unspanned = own.get(trace::PASS).copied().unwrap_or(0.0) / n;
        put(&mut per_layer, "trace.unspanned_s", unspanned, "s");
        spans_json = Some(format!(
            "{{\"setup\":{},\n\"passes\":{}}}",
            gen_tracer.to_json(),
            cx.tracer.to_json()
        ));
    }

    Outcome {
        config,
        sizes: body.sizes(),
        passes: (untraced.len(), traced.len()),
        attempted: cx.ops,
        failed: cx.ops_failed,
        failures: cx.failures,
        end_to_end: e2e,
        per_layer,
        spans_json,
    }
}

/// One timed set-up repetition; its time is appended to `times`.
fn timed_setup(config: &Config, tracer: &mut Tracer, times: &mut Vec<f64>) -> Box<dyn Body> {
    tracer.begin_run();
    let start = Instant::now();
    let body = setup(config, tracer);
    times.push(start.elapsed().as_secs_f64());
    body
}

/// Repeats the body until `window` seconds have passed (at least once),
/// checking that every pass reproduces the warm-up pass's work, and runs
/// `between` after each pass. Returns the untraced and the traced passes:
/// with `trace`, passes alternate between the two, starting untraced, and
/// the window closes after a traced one.
fn timed_passes(
    body: &dyn Body,
    cx: &mut Cx,
    warm: &Pass,
    window: f64,
    trace: bool,
    between: &mut dyn FnMut(),
) -> (Vec<Pass>, Vec<Pass>) {
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        let traced_pass = trace && traced.len() < untraced.len();
        cx.tracer.set_enabled(traced_pass);
        cx.tracer.begin_run();
        cx.tracer.begin(trace::PASS);
        cx.op_ms.clear();
        let mut pass = body.pass(cx, false);
        pass.op_ms = std::mem::take(&mut cx.op_ms);
        let expected = if cx.sabotaged(Sabotage::Deterministic) {
            Pass {
                rows: warm.rows + 1,
                ..warm.clone()
            }
        } else {
            warm.clone()
        };
        // A pass that diverges counts as one more failed operation.
        let same = cx.checking(|cx| {
            cx.check(Sabotage::Deterministic, pass.same_work(&expected), || {
                format!(
                    "pass diverged from warm-up: {:?} vs {:?}",
                    pass.sim, expected.sim
                )
            })
        });
        if !same {
            cx.ops_failed += 1;
        }
        cx.tracer.end();
        between();
        if traced_pass {
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
        if start.elapsed().as_secs_f64() >= window
            && traced.len() == usize::from(trace) * untraced.len()
        {
            return (untraced, traced);
        }
    }
}

/// The fastest repetition of each operation across `passes`, which run the
/// same operations in the same order. Other processes on the machine can
/// only slow an operation down, and their load comes and goes over seconds,
/// so the fastest repetition is the steadiest estimate of its cost.
fn best_op_ms(passes: &[Pass]) -> Vec<f64> {
    let mut best = passes.first().map(|p| p.op_ms.clone()).unwrap_or_default();
    for p in passes.iter().skip(1) {
        for (b, &t) in best.iter_mut().zip(&p.op_ms) {
            *b = b.min(t);
        }
    }
    best
}

/// Median of `v` (0 for an empty slice). Reorders `v`.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5)
}

/// Nearest-rank quantile of an ascending slice (0 for an empty slice).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Smoothed quantile of an ascending slice: the mean of the samples
/// between quantiles `q - 0.05` and `q + 0.05` (at least one sample; 0 for
/// an empty slice). Statement latencies mix operations of very different
/// sizes, and a single order statistic jumps between them from run to run.
pub fn band_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len() as f64;
    // The epsilon keeps exact band edges (e.g. 0.55 × 100) from rounding
    // one sample outward.
    let lo = (((q - 0.05) * n + 1e-9).floor().max(0.0) as usize).min(sorted.len() - 1);
    let hi = (((q + 0.05) * n - 1e-9).ceil() as usize).clamp(lo + 1, sorted.len());
    sorted[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Peak resident set size of this process, MiB (`VmHWM`; 0 if unknown).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Outcome {
    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The self-describing header: schema, workload, seed, input sizes,
    /// source revision and processor count.
    pub fn describe_json(&self, rev: &str, nproc: usize) -> String {
        let sizes: Vec<String> = self
            .sizes
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\
             \"trace\":{},\"sizes\":{{{}}},\"rev\":\"{}\",\"nproc\":{},\
             \"passes\":{{\"untraced\":{},\"traced\":{}}},\"failures\":{}}}",
            self.config.workload.name(),
            self.config.seed,
            self.config.seconds,
            self.config.trace,
            sizes.join(","),
            json_escape(rev),
            nproc,
            self.passes.0,
            self.passes.1,
            self.failures.len(),
        )
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// (end-to-end untraced, per-layer traced).
    pub fn result_json(&self) -> String {
        let metrics = if self.config.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut body = String::new();
        for (i, (name, m)) in metrics.iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A finite JSON number with all its digits (non-finite values become 0).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}

/// Escapes `s` for a JSON string body.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_a_known_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(band_quantile(&v, 0.5), 50.5);
        assert_eq!(band_quantile(&v, 0.9), 90.5);
        assert_eq!(band_quantile(&[7.0], 0.9), 7.0);
        assert_eq!(band_quantile(&[], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}
