//! `rag_t5`: the paper's T5 query over a SQuAD-shaped RAG table.
//!
//! Set-up generates eight independent topical corpora, each with
//! Zipf-popular questions, with the shapes of `llmqo-datasets`' SQuAD
//! generator (30 questions and 5 contexts per topic, 228-token contexts,
//! 22-token questions, 75% topic words). For each corpus the timed body
//! retrieves the top-4 contexts per question (96-dim embedder), builds the
//! table, encodes it, orders it with GGR, builds the engine requests and
//! serves them on Llama-3-8B / L4 — one query per corpus.

use crate::rng::{Rng, Zipf};
use crate::trace::Tracer;
use crate::{check_execute, count_engine, Body, Cx, Pass, Sabotage, Size};
use llmqo::core::{phc_of_plan, FunctionalDeps, Ggr, Reorderer};
use llmqo::rag::{retrieve_contexts, Embedder};
use llmqo::relational::{encode_table, plan_requests, LlmQuery, Schema, Table};
use llmqo::serve::{Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, SimEngine};
use llmqo::tokenizer::Tokenizer;
use std::collections::HashMap;

const QUESTIONS_PER_TOPIC: usize = 30;
const CONTEXTS_PER_TOPIC: usize = 5;
const CONTEXT_TOKENS: usize = 228;
const QUESTION_TOKENS: usize = 22;
const TOPIC_FRAC: f64 = 0.75;
const K: usize = 4;
const DIM: usize = 96;

/// Corpora per run and questions per corpus. Full-size SQuAD (22 665
/// questions) spends ~12 s in quadratic retrieval alone; eight tables of
/// 1 000 questions keep the shape at a per-pass cost that fits many passes
/// into a measuring window, and summing eight independent queries keeps
/// the simulated metrics close to their mean for every seed.
fn shape(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (8, 1_000),
        Size::Tiny => (2, 90),
    }
}

/// The Llama-3-8B on one L4 deployment every batch workload serves on.
pub fn engine() -> SimEngine {
    SimEngine::new(
        Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
        EngineConfig::default(),
    )
}

/// One generated corpus with its questions.
struct Corpus {
    contexts: Vec<String>,
    questions: Vec<String>,
}

/// Generated corpora.
pub struct RagInputs {
    seed: u64,
    corpora: Vec<Corpus>,
    query: LlmQuery,
    engine: SimEngine,
}

/// Topical text: `TOPIC_FRAC` of the words from the topic vocabulary, the
/// rest global filler, until `target` tokens are reached.
struct TopicText {
    tokenizer: Tokenizer,
    cache: HashMap<String, usize>,
}

impl TopicText {
    fn text(&mut self, rng: &mut Rng, vocab: &[String], target: usize) -> String {
        let mut out = String::new();
        let mut tokens = 0;
        while tokens < target {
            let word = if rng.unit() < TOPIC_FRAC {
                vocab[rng.below(vocab.len())].clone()
            } else {
                format!("w{}", rng.below(400))
            };
            let n = match self.cache.get(&word) {
                Some(&n) => n,
                None => {
                    let n = self.tokenizer.count(&format!(" {word}"));
                    self.cache.insert(word.clone(), n);
                    n
                }
            };
            if !out.is_empty() {
                out.push(' ');
            }
            tokens += n;
            out.push_str(&word);
        }
        out
    }
}

/// Generates the corpora and questions for `seed`.
pub fn setup(seed: u64, size: Size, tracer: &mut Tracer) -> RagInputs {
    let (count, n) = shape(size);
    let corpora = tracer.span("datasets.generate", || {
        let mut tt = TopicText {
            tokenizer: Tokenizer::new(),
            cache: HashMap::new(),
        };
        (0..count)
            .map(|c| {
                let mut rng = Rng::new(seed, 0x5241_4754 + c as u64);
                let ntopics = (n / QUESTIONS_PER_TOPIC).max(1);
                let vocabs: Vec<Vec<String>> = (0..ntopics)
                    .map(|t| (0..12).map(|w| format!("t{t}x{w}")).collect())
                    .collect();
                let mut contexts = Vec::with_capacity(ntopics * CONTEXTS_PER_TOPIC);
                for vocab in &vocabs {
                    for _ in 0..CONTEXTS_PER_TOPIC {
                        contexts.push(tt.text(&mut rng, vocab, CONTEXT_TOKENS));
                    }
                }
                let zipf = Zipf::new(ntopics, 1.05);
                let questions = (0..n)
                    .map(|_| {
                        let t = zipf.sample(&mut rng);
                        tt.text(&mut rng, &vocabs[t], QUESTION_TOKENS)
                    })
                    .collect();
                Corpus {
                    contexts,
                    questions,
                }
            })
            .collect()
    });
    let mut fields = vec!["question".to_string()];
    fields.extend((1..=K).map(|i| format!("context{i}")));
    let query = LlmQuery::rag(
        "squad-rag",
        "Given a question and supporting contexts, answer the provided question.",
        fields,
        Vec::new(),
        11.0,
    )
    .with_key_field("question");
    RagInputs {
        seed,
        corpora,
        query,
        engine: engine(),
    }
}

impl RagInputs {
    fn truth(&self, corpus: usize, row: usize) -> String {
        format!("answer {} for question {row} of corpus {corpus}", self.seed)
    }

    fn table(&self, corpus: &Corpus, retrieved: &[Vec<usize>]) -> Table {
        let names: Vec<&str> = self.query.fields.iter().map(String::as_str).collect();
        let mut table = Table::new(Schema::of_strings(&names));
        for (q, ctx) in corpus.questions.iter().zip(retrieved) {
            let mut row = vec![q.clone().into()];
            for i in 0..K {
                let text = ctx.get(i).map(|&id| corpus.contexts[id].clone());
                row.push(text.unwrap_or_default().into());
            }
            table.push_row(row).expect("row arity matches the schema");
        }
        table
    }

    /// Runs the T5 query over one corpus and checks it.
    fn query(&self, cx: &mut Cx, pass: &mut Pass, ci: usize, first: bool) {
        let corpus = &self.corpora[ci];
        let tokenizer = Tokenizer::new();
        let embedder = Embedder::new(DIM);
        let ggr = Ggr::default();
        pass.rows += corpus.questions.len() as u64;
        pass.sim.offered += 1;
        let result = cx.op(|t| {
            let retrieved = t.span("rag.retrieve", || {
                retrieve_contexts(&embedder, &corpus.contexts, &corpus.questions, K)
            });
            let table = self.table(corpus, &retrieved);
            let encoded = t
                .span("relational.encode", || {
                    encode_table(&tokenizer, &table, &self.query)
                })
                .map_err(|e| e.to_string())?;
            let fds = FunctionalDeps::empty(encoded.reorder.ncols());
            let solution = t
                .span("core.ggr", || ggr.reorder(&encoded.reorder, &fds))
                .map_err(|e| e.to_string())?;
            let requests = t.span("relational.plan_requests", || {
                plan_requests(&encoded, &solution.plan, &self.query)
            });
            let report = t
                .span("serve.run", || self.engine.run(&requests))
                .map_err(|e| e.to_string())?;
            Ok::<_, String>((table, encoded, solution, requests.len(), report))
        });
        let (table, encoded, solution, nreq, report) = match result {
            Ok(r) => r,
            Err(e) => {
                cx.error("rag_t5 query", e);
                cx.end_op();
                return;
            }
        };
        cx.checking(|cx| {
            let actual = phc_of_plan(&encoded.reorder, &solution.plan).phc;
            let claimed = solution.claimed_phc + u64::from(cx.sabotaged(Sabotage::ClaimedPhc));
            cx.check(Sabotage::ClaimedPhc, claimed == actual, || {
                format!("ggr claimed {claimed}, plan has {actual}")
            });
            if !first {
                return;
            }
            let truth = |row: usize| self.truth(ci, row);
            let fds = FunctionalDeps::empty(table.ncols());
            check_execute(
                cx,
                "rag_t5",
                &self.engine,
                &table,
                &self.query,
                &fds,
                &truth,
                report,
            );
        });
        if cx.end_op() {
            pass.sim.served += 1;
        }
        pass.sim.llm_calls += nreq as u64;
        pass.sim.add_engine(&report);
        count_engine(&mut pass.counts, &report);
        for (k, v) in [
            ("relational.prompt_tokens", encoded.total_prompt_tokens()),
            ("relational.llm_calls", nreq as u64),
            ("core.claimed_phc", solution.claimed_phc),
        ] {
            *pass.counts.entry(k).or_default() += v as f64;
        }
    }
}

impl Body for RagInputs {
    fn sizes(&self) -> Vec<(&'static str, u64)> {
        let sum = |f: fn(&Corpus) -> usize| self.corpora.iter().map(f).sum::<usize>() as u64;
        vec![
            ("corpora", self.corpora.len() as u64),
            ("questions", sum(|c| c.questions.len())),
            ("contexts", sum(|c| c.contexts.len())),
            ("k", K as u64),
            ("dim", DIM as u64),
        ]
    }

    fn pass(&self, cx: &mut Cx, first: bool) -> Pass {
        let mut pass = Pass::default();
        for ci in 0..self.corpora.len() {
            self.query(cx, &mut pass, ci, first);
        }
        pass.sim.finish_batch();
        pass
    }
}
