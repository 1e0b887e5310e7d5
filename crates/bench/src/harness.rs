//! Shared measurement plumbing for the reproduction binaries.

use llmqo_core::{FunctionalDeps, Ggr, OriginalOrder, ReorderTable, Reorderer};
use llmqo_datasets::{Dataset, DatasetId};
use llmqo_relational::{
    encode_table, project_fds, ExecError, LlmQuery, QueryExecutor, QueryKind, QueryOutput,
};
use llmqo_serve::{
    Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, OracleLlm, SimEngine, SimLlm,
};
use llmqo_tokenizer::Tokenizer;

/// Scaling factor from the `LLMQO_SCALE` environment variable (default 1.0,
/// clamped to `[0.001, 1.0]`). Scaled runs keep each dataset's duplication
/// structure but shrink row counts proportionally.
pub fn scale() -> f64 {
    std::env::var("LLMQO_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.001, 1.0)
}

/// Rows to generate for `id` under the current scale.
pub fn rows_for(id: DatasetId) -> usize {
    ((id.paper().nrows as f64) * scale()).round().max(30.0) as usize
}

/// Generates `id` at the current scale.
pub fn load(id: DatasetId) -> Dataset {
    Dataset::generate_with_rows(id, rows_for(id))
}

/// `table6`'s sample of `id` (Appendix D.1): the T1 query's encoding (T5
/// where a dataset has no T1), first `rows` rows, with PDMX cut to its
/// first 10 fields to make the exact solver feasible. Returns the table and
/// the FDs projected onto its columns.
pub fn table6_sample(id: DatasetId, rows: usize) -> (ReorderTable, FunctionalDeps) {
    let ds = Dataset::generate_with_rows(id, rows.max(30));
    let query = ds
        .query_of_kind(QueryKind::Filter)
        .or_else(|| ds.query_of_kind(QueryKind::Rag))
        .expect("T1 or T5 query");
    let encoded = encode_table(&Tokenizer::new(), &ds.table, query).expect("encode");
    let mut table = encoded.reorder.head(rows);
    let mut used_cols = encoded.used_cols;
    if id == DatasetId::Pdmx {
        let cols: Vec<usize> = (0..10).collect();
        table = table.select_columns(&cols);
        used_cols.truncate(10);
    }
    (table, project_fds(&ds.fds, &used_cols))
}

/// Llama-3-8B on a single L4 (the paper's primary setup).
pub fn deployment_8b() -> Deployment {
    Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4()))
}

/// Llama-3-70B on 8×L4 with tensor parallelism (paper Fig. 5).
pub fn deployment_70b() -> Deployment {
    Deployment::new(
        ModelSpec::llama3_70b(),
        GpuCluster::tensor_parallel(GpuSpec::l4(), 8),
    )
}

/// Llama-3.2-1B on a single L4 (paper Appendix D.2).
pub fn deployment_1b() -> Deployment {
    Deployment::new(ModelSpec::llama3_2_1b(), GpuCluster::single(GpuSpec::l4()))
}

/// The three evaluation arms of the paper's end-to-end figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Prefix cache disabled.
    NoCache,
    /// Prefix cache on, original row/field order.
    CacheOriginal,
    /// Prefix cache on, GGR-reordered schedule.
    CacheGgr,
}

impl Method {
    /// All three arms in the paper's plotting order.
    pub fn all() -> [Method; 3] {
        [Method::NoCache, Method::CacheOriginal, Method::CacheGgr]
    }

    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Method::NoCache => "No Cache",
            Method::CacheOriginal => "Cache (Original)",
            Method::CacheGgr => "Cache (GGR)",
        }
    }
}

/// Runs one query under one method and deployment, returning the output
/// (with its [`ExecutionReport`](llmqo_relational::ExecutionReport)).
///
/// # Errors
///
/// Propagates [`ExecError`] from the executor.
pub fn run_method(
    ds: &Dataset,
    query: &LlmQuery,
    method: Method,
    deployment: &Deployment,
) -> Result<QueryOutput, ExecError> {
    let config = match method {
        Method::NoCache => EngineConfig::no_cache(),
        _ => EngineConfig::default(),
    };
    let engine = SimEngine::new(deployment.clone(), config);
    let executor = QueryExecutor::new(&engine, &OracleLlm, Tokenizer::new());
    let truth = ds.truth_fn(query);
    match method {
        Method::CacheGgr => executor.execute(&ds.table, query, &Ggr::default(), &ds.fds, &truth),
        _ => executor.execute(&ds.table, query, &OriginalOrder, &ds.fds, &truth),
    }
}

/// Runs a T3 multi-invocation chain under one method.
///
/// # Errors
///
/// Propagates [`ExecError`] from the executor.
pub fn run_multi_method(
    ds: &Dataset,
    stages: (&LlmQuery, &LlmQuery),
    method: Method,
    deployment: &Deployment,
) -> Result<Vec<QueryOutput>, ExecError> {
    let config = match method {
        Method::NoCache => EngineConfig::no_cache(),
        _ => EngineConfig::default(),
    };
    let engine = SimEngine::new(deployment.clone(), config);
    let executor = QueryExecutor::new(&engine, &OracleLlm, Tokenizer::new());
    let truths = (ds.truth_fn(stages.0), ds.truth_fn(stages.1));
    let solver_ggr = Ggr::default();
    let solver_orig = OriginalOrder;
    let solver: &dyn Reorderer = match method {
        Method::CacheGgr => &solver_ggr,
        _ => &solver_orig,
    };
    executor.execute_multi(
        &ds.table,
        &[stages.0, stages.1],
        solver,
        &ds.fds,
        &[&*truths.0, &*truths.1],
    )
}

/// Runs one query with a custom labeler (accuracy experiments).
///
/// # Errors
///
/// Propagates [`ExecError`] from the executor.
pub fn run_with_llm(
    ds: &Dataset,
    query: &LlmQuery,
    method: Method,
    deployment: &Deployment,
    llm: &dyn SimLlm,
) -> Result<QueryOutput, ExecError> {
    let config = match method {
        Method::NoCache => EngineConfig::no_cache(),
        _ => EngineConfig::default(),
    };
    let engine = SimEngine::new(deployment.clone(), config);
    let executor = QueryExecutor::new(&engine, llm, Tokenizer::new());
    let truth = ds.truth_fn(query);
    match method {
        Method::CacheGgr => executor.execute(&ds.table, query, &Ggr::default(), &ds.fds, &truth),
        _ => executor.execute(&ds.table, query, &OriginalOrder, &ds.fds, &truth),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmqo_relational::QueryKind;

    #[test]
    fn scale_env_round_trips() {
        // Default (no env in tests unless set) is within the clamp.
        let s = scale();
        assert!((0.001..=1.0).contains(&s));
    }

    #[test]
    fn methods_have_labels() {
        for m in Method::all() {
            assert!(!m.label().is_empty());
        }
    }

    #[test]
    fn run_method_smoke() {
        let ds = Dataset::generate_with_rows(DatasetId::Beer, 60);
        let q = ds.query_of_kind(QueryKind::Filter).unwrap();
        let dep = deployment_8b();
        let out = run_method(&ds, q, Method::CacheGgr, &dep).unwrap();
        assert_eq!(out.outputs.len(), 60);
        let out2 = run_method(&ds, q, Method::NoCache, &dep).unwrap();
        assert_eq!(out2.report.engine.cached_prompt_tokens, 0);
    }
}
