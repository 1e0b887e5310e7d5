//! `sql_mix`: a statement matrix through `SqlRunner::run`.
//!
//! Five relational datasets (Movies, Products, BIRD, PDMX, Beer) of
//! [`ROWS`] rows each, rows permuted by the seed. Per dataset five
//! statements — a T1 filter behind a SQL predicate, a T2 projection, a T3
//! two-LLM-filter conjunction, a T4 `AVG(LLM())` and a `LIMIT 10` filter
//! — each issued twice on one executor (the first issue fills the answer
//! and prefix caches, the second reads them), under three optimizer
//! configurations: the relay (`OptimizerConfig::all`), `pipelined(4)`, and
//! a cascade that escalates every row (byte-identical to the single-tier
//! oracle).

use crate::rng::{mix, Rng};
use crate::trace::Tracer;
use crate::{count_engine, Body, Cx, Pass, Sabotage, Size};
use llmqo::core::{FunctionalDeps, Ggr};
use llmqo::costmodel::CascadePlan;
use llmqo::datasets::{Dataset, DatasetId};
use llmqo::relational::{
    CascadeConfig, OptimizerConfig, QueryExecutor, SqlResult, SqlRunner, Table,
};
use llmqo::serve::{OracleLlm, SimEngine};
use llmqo::tokenizer::Tokenizer;

/// How the benchmark chooses a statement's columns on one dataset.
struct Spec {
    id: DatasetId,
    name: &'static str,
    /// Plain column the filters return.
    key: &'static str,
    /// Fields of the main LLM call.
    a: &'static str,
    b: &'static str,
    /// Field of the second filter of the T3 conjunction.
    c: &'static str,
    /// `column >= literal` predicate of the T1 filter (numeric when both
    /// sides parse as numbers, lexicographic otherwise — the SQL rule).
    pred: (&'static str, &'static str),
}

const SPECS: [Spec; 5] = [
    Spec {
        id: DatasetId::Movies,
        name: "movies",
        key: "movietitle",
        a: "movieinfo",
        b: "reviewcontent",
        c: "reviewtype",
        pred: ("topcritic", "true"),
    },
    Spec {
        id: DatasetId::Products,
        name: "products",
        key: "product_title",
        a: "text",
        b: "review_title",
        c: "verified_purchase",
        pred: ("rating", "4"),
    },
    Spec {
        id: DatasetId::Bird,
        name: "bird",
        key: "PostId",
        a: "Body",
        b: "Text",
        c: "PostDate",
        pred: ("Text", "m"),
    },
    Spec {
        id: DatasetId::Pdmx,
        name: "pdmx",
        key: "artistname",
        a: "genre",
        b: "composername",
        c: "groups",
        pred: ("complexity", "2"),
    },
    Spec {
        id: DatasetId::Beer,
        name: "beer",
        key: "beer/name",
        a: "beer/style",
        b: "review/overall",
        c: "review/palate",
        pred: ("review/overall", "4"),
    },
];

/// Which ground truth a statement's LLM calls answer from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Truth {
    /// "Yes" on a seeded third of the rows, else "No".
    YesNo,
    /// A per-row free-text answer.
    Text,
    /// A seeded score 1..=5.
    Score,
}

/// One statement of the matrix with what the benchmark expects back.
struct Stmt {
    sql: String,
    truth: Truth,
    /// Filter statements: whether the T1 SQL predicate applies, and the
    /// `LIMIT`.
    pred: bool,
    limit: Option<usize>,
}

/// One dataset, permuted, with its statements.
struct SqlTable {
    spec: &'static Spec,
    table: Table,
    fds: FunctionalDeps,
    stmts: Vec<Stmt>,
}

/// Prepared `sql_mix` inputs.
pub struct SqlInputs {
    seed: u64,
    tables: Vec<SqlTable>,
    engine: SimEngine,
}

/// Rows per dataset. At the paper's full sizes (10 000 to 28 479 rows) one
/// pass of the matrix takes ~16 s, so a measuring window would hold a
/// single timed pass; 2 000 rows each fit several.
const ROWS: usize = 2_000;

fn rows_for(size: Size) -> usize {
    match size {
        Size::Full => ROWS,
        Size::Tiny => 90,
    }
}

fn statements(s: &Spec) -> Vec<Stmt> {
    let (t, key, a, b, c) = (s.name, s.key, s.a, s.b, s.c);
    let filter = |sql: String, pred, limit| Stmt {
        sql,
        truth: Truth::YesNo,
        pred,
        limit,
    };
    vec![
        filter(
            format!(
                "SELECT {key} FROM {t} WHERE {} >= '{}' AND LLM('Is this record relevant? Answer Yes or No.', {a}, {b}) = 'Yes'",
                s.pred.0, s.pred.1
            ),
            true,
            None,
        ),
        Stmt {
            sql: format!("SELECT LLM('Summarize this record in one sentence.', {a}, {b}) AS summary FROM {t}"),
            truth: Truth::Text,
            pred: false,
            limit: None,
        },
        filter(
            format!(
                "SELECT {key} FROM {t} WHERE LLM('Is this record relevant? Answer Yes or No.', {a}, {b}) = 'Yes' \
                 AND LLM('Is this field informative? Answer Yes or No.', {c}) = 'Yes'"
            ),
            false,
            None,
        ),
        Stmt {
            sql: format!("SELECT AVG(LLM('Rate this record from 1 to 5.', {a}, {b})) AS score FROM {t}"),
            truth: Truth::Score,
            pred: false,
            limit: None,
        },
        filter(
            format!("SELECT {key} FROM {t} WHERE LLM('Does this record qualify? Answer Yes or No.', {b}, {a}) = 'Yes' LIMIT 10"),
            false,
            Some(10),
        ),
    ]
}

/// Generates and permutes the five datasets for `seed`.
pub fn setup(seed: u64, size: Size, tracer: &mut Tracer) -> SqlInputs {
    let mut rng = Rng::new(seed, 0x5351_4c4d);
    let tables = SPECS
        .iter()
        .map(|spec| {
            let ds = tracer.span("datasets.generate", || {
                Dataset::generate_with_rows(spec.id, rows_for(size))
            });
            let perm = rng.permutation(ds.table.nrows());
            SqlTable {
                spec,
                table: ds.table.select_rows(&perm),
                fds: ds.fds,
                stmts: statements(spec),
            }
        })
        .collect();
    SqlInputs {
        seed,
        tables,
        engine: crate::rag::engine(),
    }
}

/// The three optimizer configurations of the matrix.
fn configs(seed: u64) -> [(&'static str, OptimizerConfig); 3] {
    [
        ("relay", OptimizerConfig::all()),
        ("pipelined", OptimizerConfig::pipelined(4)),
        (
            "cascaded",
            OptimizerConfig::cascaded(CascadeConfig::new(CascadePlan::mini_to_sonnet(1.0, seed))),
        ),
    ]
}

impl SqlInputs {
    fn truth(&self, kind: Truth, table: usize, row: usize) -> String {
        let h = mix(self.seed ^ mix(table as u64 + 1) ^ mix(row as u64 + 0x100));
        match kind {
            Truth::YesNo if h.is_multiple_of(3) => "Yes".to_string(),
            Truth::YesNo => "No".to_string(),
            Truth::Text => format!("record {row} of table {table}"),
            Truth::Score => (h % 5 + 1).to_string(),
        }
    }

    /// The rows (or aggregate) a statement must return, computed from the
    /// table and the truth alone.
    fn expected(&self, ti: usize, st: &Stmt) -> (Vec<Vec<String>>, Option<f64>) {
        let t = &self.tables[ti];
        let n = t.table.nrows();
        match st.truth {
            Truth::Text => (
                (0..n)
                    .map(|r| vec![self.truth(Truth::Text, ti, r)])
                    .collect(),
                None,
            ),
            Truth::Score => {
                let sum: f64 = (0..n)
                    .map(|r| {
                        self.truth(Truth::Score, ti, r)
                            .parse::<f64>()
                            .unwrap_or(0.0)
                    })
                    .sum();
                let avg = sum / n as f64;
                (vec![vec![format!("{avg:.3}")]], Some(avg))
            }
            Truth::YesNo => {
                let schema = t.table.schema();
                let key = schema.index_of(t.spec.key).expect("key column exists");
                let pcol = schema
                    .index_of(t.spec.pred.0)
                    .expect("predicate column exists");
                let mut rows: Vec<Vec<String>> = (0..n)
                    .filter(|&r| {
                        !st.pred || at_least(&t.table.value(r, pcol).to_string(), t.spec.pred.1)
                    })
                    .filter(|&r| self.truth(Truth::YesNo, ti, r) == "Yes")
                    .map(|r| vec![t.table.value(r, key).to_string()])
                    .collect();
                if let Some(l) = st.limit {
                    rows.truncate(l);
                }
                (rows, None)
            }
        }
    }
}

/// `value >= literal`: numeric when both parse as numbers, else
/// lexicographic.
fn at_least(value: &str, literal: &str) -> bool {
    match (value.parse::<f64>(), literal.parse::<f64>()) {
        (Ok(a), Ok(b)) => a >= b,
        _ => value >= literal,
    }
}

fn same_result(a: &SqlResult, b: &SqlResult) -> bool {
    a.columns == b.columns && a.rows == b.rows && a.aggregate == b.aggregate
}

impl Body for SqlInputs {
    fn sizes(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<(&'static str, u64)> = self
            .tables
            .iter()
            .map(|t| (t.spec.name, t.table.nrows() as u64))
            .collect();
        let stmts: usize = self.tables.iter().map(|t| t.stmts.len()).sum();
        v.push(("statements", stmts as u64));
        v.push(("configs", configs(self.seed).len() as u64));
        v.push(("issues", 2));
        v
    }

    fn pass(&self, cx: &mut Cx, _first: bool) -> Pass {
        let mut pass = Pass::default();
        let ggr = Ggr::default();
        let (mut hits, mut lookups) = (0u64, 0u64);
        for (_, opt) in configs(self.seed) {
            for (ti, t) in self.tables.iter().enumerate() {
                let executor = QueryExecutor::new(&self.engine, &OracleLlm, Tokenizer::new());
                let mut runner = SqlRunner::new(&executor, &ggr).with_optimizer(opt);
                runner.register(t.spec.name, &t.table, &t.fds);
                for st in &t.stmts {
                    let truth = |row: usize| self.truth(st.truth, ti, row);
                    let mut first: Option<SqlResult> = None;
                    for issue in 0..2 {
                        pass.rows += t.table.nrows() as u64;
                        pass.sim.offered += 1;
                        let res = cx
                            .op(|tr| tr.span("relational.sql_run", || runner.run(&st.sql, &truth)));
                        let res = match res {
                            Ok(r) => r,
                            Err(e) => {
                                cx.error(&st.sql, e);
                                cx.end_op();
                                continue;
                            }
                        };
                        for stage in &res.stages {
                            let r = &stage.report;
                            pass.sim.add_engine(&r.engine);
                            pass.sim.llm_calls += r.opt.llm_calls;
                            pass.solve_s += r.solve_time_s;
                            count_engine(&mut pass.counts, &r.engine);
                            for (k, v) in [
                                ("relational.prompt_tokens", r.engine.total_prompt_tokens),
                                ("relational.llm_calls", r.opt.llm_calls),
                                ("relational.rows_deduped", r.opt.rows_deduped),
                                ("relational.answer_cache_hits", r.opt.cache_hits),
                                ("core.claimed_phc", r.claimed_phc),
                            ] {
                                *pass.counts.entry(k).or_default() += v as f64;
                            }
                        }
                        cx.checking(|cx| {
                            if issue == 0 {
                                let (mut rows, mut agg) = self.expected(ti, st);
                                if cx.sabotaged(Sabotage::SqlRows) {
                                    rows.push(vec!["?".to_string()]);
                                    agg = agg.map(|a| a + 1.0);
                                }
                                let expected_rows = if cx.sabotaged(Sabotage::SqlNonEmpty) {
                                    0
                                } else {
                                    rows.len()
                                };
                                cx.check(Sabotage::SqlNonEmpty, expected_rows > 0, || {
                                    format!("empty expectation for {}", st.sql)
                                });
                                let agg_ok = match (agg, res.aggregate) {
                                    (Some(e), Some(a)) => (e - a).abs() <= 1e-9 * e.abs().max(1.0),
                                    (None, None) => true,
                                    _ => false,
                                };
                                cx.check(Sabotage::SqlRows, res.rows == rows && agg_ok, || {
                                    format!(
                                        "{}: {} rows, expected {}",
                                        st.sql,
                                        res.rows.len(),
                                        rows.len()
                                    )
                                });
                            } else if let Some(f) = &first {
                                let wrong;
                                let expected = if cx.sabotaged(Sabotage::SecondIssue) {
                                    let mut rows = f.rows.clone();
                                    rows.push(vec!["?".to_string()]);
                                    wrong = SqlResult { rows, ..f.clone() };
                                    &wrong
                                } else {
                                    f
                                };
                                cx.check(
                                    Sabotage::SecondIssue,
                                    same_result(&res, expected),
                                    || format!("second issue of {} changed its result", st.sql),
                                );
                            }
                        });
                        if cx.end_op() {
                            pass.sim.served += 1;
                        }
                        if issue == 0 {
                            first = Some(res);
                        }
                    }
                }
                let stats = executor.answer_cache_stats();
                hits += stats.hits;
                lookups += stats.hits + stats.misses;
            }
        }
        if lookups > 0 {
            pass.counts.insert(
                "relational.answer_cache_hit_rate",
                hits as f64 / lookups as f64,
            );
        }
        pass.sim.finish_batch();
        pass
    }
}
