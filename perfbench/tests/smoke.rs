//! The benchmark's own tests: a tiny-input run of every workload emits
//! every metric `BENCHMARK.json` names, with its unit, and a deliberately
//! wrong expectation trips each correctness check.

use llmqo_perfbench::{run, Config, Outcome, Sabotage, Size, Workload};
use std::collections::BTreeMap;

fn tiny(workload: Workload, trace: bool, sabotage: Option<Sabotage>) -> Outcome {
    run(Config {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        setups: 1,
        sabotage,
    })
}

/// `name → unit` of one metric list of `BENCHMARK.json` (`end_to_end` or
/// `per_layer`), read without a JSON dependency: every entry of those lists
/// is written as `{"name": "...", "unit": "...", ...}`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry.split('"').next().expect("name").to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("unit")
                .to_string();
            (name, unit)
        })
        .collect()
}

fn emitted(out: &Outcome, trace: bool) -> BTreeMap<String, String> {
    let metrics = if trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    metrics
        .iter()
        .map(|(k, m)| (k.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(list);
        assert!(want.len() > 5, "{list}: {want:?}");
        for w in Workload::ALL {
            let out = tiny(w, trace, None);
            assert!(out.correct(), "{}: {:?}", w.name(), out.failures);
            assert!(out.attempted > 0);
            assert_eq!(emitted(&out, trace), want, "{} ({list})", w.name());
            let line = out.result_json();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for name in want.keys() {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
            }
            if !trace {
                for name in [
                    "rows_per_s",
                    "sim_jct_s",
                    "prefix_hit_rate",
                    "llm_calls",
                    "served_frac",
                ] {
                    assert!(
                        out.end_to_end[name].value > 0.0,
                        "{}: {name} is 0",
                        w.name()
                    );
                }
            }
        }
    }
}

#[test]
fn traced_runs_write_spans_with_parents_and_run_ids() {
    let out = tiny(Workload::RagT5, true, None);
    let spans = out.spans_json.expect("traced run keeps its spans");
    for needle in [
        "\"name\":\"rag.retrieve\"",
        "\"name\":\"bench.pass\"",
        "\"parent\":0",
        "\"run\":1",
    ] {
        assert!(spans.contains(needle), "{needle}");
    }
    assert!(out.per_layer["rag.retrieve_s"].value > 0.0);
    assert_eq!(out.per_layer["core.ophr_s"].value, 0.0);
}

#[test]
fn each_check_trips_on_a_wrong_expectation() {
    for check in Sabotage::ALL {
        for &w in check.workloads() {
            let out = tiny(w, false, Some(check));
            let needle = format!("check {} failed", check.check_name());
            assert!(
                !out.correct(),
                "{} on {} did not trip",
                check.check_name(),
                w.name()
            );
            assert!(out.failed > 0, "{} on {}", check.check_name(), w.name());
            assert!(
                out.failures.iter().all(|f| f.starts_with(&needle)),
                "{} on {}: {:?}",
                check.check_name(),
                w.name(),
                out.failures
            );
        }
    }
}

#[test]
fn same_seed_same_simulated_results() {
    let a = tiny(Workload::SqlMix, false, None);
    let b = tiny(Workload::SqlMix, false, None);
    for name in ["sim_jct_s", "cost_usd", "llm_calls", "prefix_hit_rate"] {
        assert_eq!(a.end_to_end[name], b.end_to_end[name], "{name}");
    }
}
