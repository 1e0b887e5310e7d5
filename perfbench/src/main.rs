//! Command-line entry point of the benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rag_t5 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Prints a self-describing header line and,
//! as the last line, the result object (`correct`, `attempted`, `failed`,
//! `metrics`). `--trace 1` prints the per-layer metrics instead of the
//! end-to-end ones and writes the spans to `.bench_out/`.

use llmqo_perfbench::{run, Config, Size, Workload};
use std::path::Path;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: llmqo-perfbench --workload <rag_t5|sql_mix|cluster_serve|ophr_exact> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage(
            "--workload, --seed, --seconds and --trace are all required and must be valid",
        );
    };
    let config = Config {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
        setups: 7,
        sabotage: None,
    };
    let outcome = run(config);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("{}", outcome.describe_json(&revision(), nproc));
    for f in outcome.failures.iter().take(20) {
        eprintln!("{f}");
    }
    if let Some(spans) = &outcome.spans_json {
        let dir = Path::new(".bench_out");
        let file = dir.join(format!("trace-{}-{seed}.json", workload.name()));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, spans)) {
            eprintln!("warning: could not write {}: {e}", file.display());
        }
    }
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}

/// The source revision: the git commit of the checkout, or `unknown`
/// outside a git repository. The ceiling keeps a repository that merely
/// encloses the checkout from answering.
fn revision() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd
        .parent()
        .map(|p| p.as_os_str().to_owned())
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}
