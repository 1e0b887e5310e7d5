//! `cluster_serve`: GGR-ordered request sets through an 8-replica cluster.
//!
//! Four request sets — a T1 filter (2 output tokens, prefill-heavy) and a
//! T2 projection (decode-heavy) on Movies and on BIRD, 3 000 rows each,
//! permuted by the seed — are encoded, ordered with GGR, turned into engine
//! requests and tagged with depth-1 prefix keys inside the timed body. Each
//! set then arrives open-loop as seeded Poisson traffic at fixed rates (as
//! multiples of the set's fault-free capacity) and goes through:
//!
//! * `ClusterSim::run` with `PrefixAffinity::bounded(1.25)` at half
//!   capacity (four arrival streams), and with `RoundRobin` at half
//!   capacity;
//! * `run_with_faults` at half capacity: replica 2 crashes and restarts,
//!   2% of attempts fail transiently, three attempts allowed;
//! * a bisection for the highest rate whose p99 queue wait stays within
//!   10 s: six `ClusterSim::run` calls with `PrefixAffinity` between half
//!   and twice capacity;
//! * `run_overloaded` at twice capacity with bounded admission and a KV
//!   gate.

use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{count_engine, Body, Counts, Cx, Pass, Sabotage, Sim, Size};
use llmqo::cluster::{
    tag_requests, AdmissionPolicy, ArrivalProcess, ClusterConfig, ClusterError, ClusterReport,
    ClusterRequest, ClusterSim, FaultPlan, OverloadPolicy, PrefixAffinity, RetryPolicy, RoundRobin,
};
use llmqo::core::{phc_of_plan, FunctionalDeps, Ggr, Reorderer, Solution};
use llmqo::datasets::{Dataset, DatasetId};
use llmqo::relational::{
    encode_table, plan_requests, project_fds, EncodedTable, LlmQuery, QueryKind, Table,
};
use llmqo::tokenizer::Tokenizer;

const REPLICAS: usize = 8;
const QUEUE_CAP: usize = 8;
/// Requests per set. At full size (about 15 000) one pass takes
/// ~7.6 s, so a measuring window would hold two timed passes.
const SET_ROWS: usize = 3_000;
/// Arrival rates, as multiples of a set's capacity: the below-capacity
/// rate, and the overload rate.
const BELOW: f64 = 0.5;
const OVERLOAD: f64 = 2.0;
/// Arrival streams at the below-capacity rate.
const BELOW_STREAMS: usize = 4;
/// The highest sustained rate is searched between `BELOW` and this
/// multiple of capacity, in `SEARCH_STEPS` halvings (resolution 2.3% of
/// capacity).
const SEARCH_TOP: f64 = 2.0;
const SEARCH_STEPS: usize = 6;
/// p99 queue-wait limit that defines the highest sustained rate, sim s.
const WAIT_LIMIT_S: f64 = 10.0;

/// One request set: a dataset, a query and the set's fault-free capacity.
struct Set {
    name: &'static str,
    table: Table,
    fds: FunctionalDeps,
    query: LlmQuery,
    /// Requests per sim second the 8-replica fleet completes when the whole
    /// set arrives at once (measured with `PrefixAffinity`; fixed so the
    /// arrival rates do not depend on the seed).
    capacity_rps: f64,
}

/// Prepared `cluster_serve` inputs.
pub struct ClusterInputs {
    seed: u64,
    sets: Vec<Set>,
    sim: ClusterSim,
}

/// Generates and permutes Movies and BIRD for `seed`.
pub fn setup(seed: u64, size: Size, tracer: &mut Tracer) -> ClusterInputs {
    let mut rng = Rng::new(seed, 0x434c_5553);
    let mut sets = Vec::new();
    let datasets = [
        (DatasetId::Movies, ["movies_t1", "movies_t2"], [57.0, 43.0]),
        (DatasetId::Bird, ["bird_t1", "bird_t2"], [23.0, 17.0]),
    ];
    for (id, names, caps) in datasets {
        let rows = match size {
            Size::Full => SET_ROWS,
            Size::Tiny => 120,
        };
        let ds = tracer.span("datasets.generate", || {
            Dataset::generate_with_rows(id, rows)
        });
        let perm = rng.permutation(ds.table.nrows());
        let table = ds.table.select_rows(&perm);
        let kinds = [QueryKind::Filter, QueryKind::Projection];
        for ((kind, name), cap) in kinds.into_iter().zip(names).zip(caps) {
            let query = ds
                .query_of_kind(kind)
                .expect("dataset has T1 and T2")
                .clone();
            let scale = rows as f64 / SET_ROWS as f64;
            sets.push(Set {
                name,
                table: table.clone(),
                fds: ds.fds.clone(),
                query,
                capacity_rps: cap * scale.max(0.05),
            });
        }
    }
    ClusterInputs {
        seed,
        sets,
        sim: ClusterSim::new(
            crate::rag::engine(),
            ClusterConfig {
                replicas: REPLICAS,
                queue_cap: QUEUE_CAP,
            },
        ),
    }
}

fn add_cluster(sim: &mut Sim, counts: &mut Counts, r: &ClusterReport) {
    sim.jct_s += r.makespan_s;
    for rep in &r.replicas {
        sim.prompt_tokens += rep.engine.total_prompt_tokens;
        sim.cached_tokens += rep.engine.cached_prompt_tokens;
        sim.computed_tokens += rep.engine.computed_prompt_tokens;
        sim.output_tokens += rep.engine.total_output_tokens;
        sim.llm_calls += rep.engine.completed as u64;
        count_engine(counts, &rep.engine);
    }
    *counts.entry("cluster.retries").or_default() += r.faults.retries as f64;
    *counts.entry("cluster.failovers").or_default() += r.faults.failovers as f64;
    *counts.entry("cluster.shed").or_default() += r.shed.shed as f64;
    *counts.entry("cluster.macro_steps").or_default() += r.backpressure_macro_steps as f64;
}

impl ClusterInputs {
    /// Encodes one set, orders it with GGR and builds its prefix-tagged
    /// requests. Returns the requests, the encoded table and the solution.
    fn build(
        &self,
        set: &Set,
        t: &mut Tracer,
    ) -> Result<(Vec<ClusterRequest>, EncodedTable, Solution), String> {
        let encoded = t
            .span("relational.encode", || {
                encode_table(&Tokenizer::new(), &set.table, &set.query)
            })
            .map_err(|e| e.to_string())?;
        let fds = project_fds(&set.fds, &encoded.used_cols);
        let solution = t
            .span("core.ggr", || {
                Ggr::default().reorder(&encoded.reorder, &fds)
            })
            .map_err(|e| e.to_string())?;
        let requests = t.span("relational.plan_requests", || {
            let requests = plan_requests(&encoded, &solution.plan, &set.query);
            let keys = solution.plan.prefix_keys(&encoded.reorder, 1);
            tag_requests(requests, &keys)
        });
        Ok((requests, encoded, solution))
    }

    fn arrivals(&self, base: &[ClusterRequest], rate: f64, salt: u64) -> Vec<ClusterRequest> {
        let mut r = base.to_vec();
        ArrivalProcess::Poisson {
            rate_rps: rate,
            seed: self.seed ^ salt,
        }
        .assign(&mut r);
        r
    }
}

impl Body for ClusterInputs {
    fn sizes(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<(&'static str, u64)> = self
            .sets
            .iter()
            .map(|s| (s.name, s.table.nrows() as u64))
            .collect();
        v.push(("replicas", REPLICAS as u64));
        v.push(("search_steps", SEARCH_STEPS as u64));
        v
    }

    fn pass(&self, cx: &mut Cx, _first: bool) -> Pass {
        let mut pass = Pass::default();
        let (mut waits, mut max_rates, mut skews) = (Vec::new(), Vec::new(), Vec::new());
        let (mut useful, mut fault_makespan) = (0.0, 0.0);
        let pa = || PrefixAffinity::bounded(1.25);
        for (si, set) in self.sets.iter().enumerate() {
            let built = cx.op(|t| self.build(set, t));
            let (base, encoded, solution) = match built {
                Ok(b) => b,
                Err(e) => {
                    cx.error(set.name, e);
                    cx.end_op();
                    continue;
                }
            };
            let claimed = solution.claimed_phc;
            cx.checking(|cx| {
                let actual = phc_of_plan(&encoded.reorder, &solution.plan).phc;
                let claimed = claimed + u64::from(cx.sabotaged(Sabotage::ClaimedPhc));
                cx.check(Sabotage::ClaimedPhc, claimed == actual, || {
                    format!("{}: ggr claimed {claimed}, plan has {actual}", set.name)
                });
            });
            cx.end_op();
            *pass.counts.entry("relational.llm_calls").or_default() += base.len() as f64;
            *pass.counts.entry("relational.prompt_tokens").or_default() +=
                encoded.total_prompt_tokens() as f64;
            *pass.counts.entry("core.claimed_phc").or_default() += claimed as f64;

            let salt = (si as u64 + 1) << 32;
            let below = BELOW * set.capacity_rps;
            let mut sustained = true;
            for stream in 0..BELOW_STREAMS {
                let requests = self.arrivals(&base, below, salt | stream as u64);
                let r = cx.op(|t| t.span("cluster.run", || self.sim.run(&mut pa(), &requests)));
                match account(cx, &mut pass, set.name, requests.len(), r) {
                    Some(rep) => {
                        sustained &= rep.queue_wait_p99_s <= WAIT_LIMIT_S;
                        waits.push(rep.queue_wait_p99_s);
                        skews.push(rep.load_skew());
                    }
                    None => sustained = false,
                }
                if stream != 0 {
                    continue;
                }
                let r =
                    cx.op(|t| t.span("cluster.run", || self.sim.run(&mut RoundRobin, &requests)));
                account(cx, &mut pass, set.name, requests.len(), r);
                let plan = FaultPlan::seeded(self.seed ^ salt)
                    .crash_restart(2, 60.0, 120.0)
                    .transient_errors_ppm(20_000);
                let r = cx.op(|t| {
                    t.span("cluster.run_with_faults", || {
                        let retry = RetryPolicy::retries(3);
                        self.sim
                            .run_with_faults(&mut pa(), &requests, &plan, &retry)
                    })
                });
                if let Some(rep) = account(cx, &mut pass, set.name, requests.len(), r) {
                    useful += rep.goodput_rps() * rep.makespan_s;
                    fault_makespan += rep.makespan_s;
                }
            }
            // Bisection on the simulated clock for the highest sustained
            // rate. Every step replays one arrival stream scaled to its rate,
            // so the p99 wait is compared on the same arrivals.
            let (mut lo, mut hi) = (BELOW, SEARCH_TOP);
            for _ in 0..SEARCH_STEPS {
                if !sustained {
                    break;
                }
                let mid = 0.5 * (lo + hi);
                let requests = self.arrivals(&base, mid * set.capacity_rps, salt | 0x100);
                let r = cx.op(|t| t.span("cluster.run", || self.sim.run(&mut pa(), &requests)));
                let ok = account(cx, &mut pass, set.name, requests.len(), r)
                    .is_some_and(|rep| rep.queue_wait_p99_s <= WAIT_LIMIT_S);
                if ok {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let max_rate = if sustained {
                lo * set.capacity_rps
            } else {
                0.0
            };
            max_rates.push(max_rate);
            let requests = self.arrivals(&base, OVERLOAD * set.capacity_rps, salt | 0xff);
            let policy = OverloadPolicy::admission(
                AdmissionPolicy::bounded(4 * REPLICAS).with_kv_gate(0.95),
            );
            let none = FaultPlan::seeded(self.seed ^ salt);
            let r = cx.op(|t| {
                t.span("cluster.run_overloaded", || {
                    self.sim.run_overloaded(
                        &mut pa(),
                        &requests,
                        &none,
                        &RetryPolicy::disabled(),
                        &policy,
                    )
                })
            });
            account(cx, &mut pass, set.name, requests.len(), r);
        }
        pass.sim.wait_p99_s = mean(&waits);
        pass.sim.max_rate_rps = mean(&max_rates);
        pass.sim.goodput_rps = if fault_makespan > 0.0 {
            useful / fault_makespan
        } else {
            0.0
        };
        pass.counts.insert("cluster.load_skew", mean(&skews));
        pass
    }
}

/// Closes the operation of one cluster call: checks its ledger
/// (`succeeded + failed + shed == offered`) and adds its requests and
/// ledger to the pass. Returns the report if the call succeeded.
fn account(
    cx: &mut Cx,
    pass: &mut Pass,
    set: &str,
    offered: usize,
    result: Result<ClusterReport, ClusterError>,
) -> Option<ClusterReport> {
    pass.rows += offered as u64;
    pass.sim.offered += offered as u64;
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            cx.error(set, e);
            cx.end_op();
            return None;
        }
    };
    add_cluster(&mut pass.sim, &mut pass.counts, &report);
    let succeeded = if report.faults.engaged() {
        report.faults.succeeded
    } else {
        report.completed
    };
    let (failed, shed) = (report.faults.failed, report.shed.shed);
    let expected = offered + usize::from(cx.sabotaged(Sabotage::Ledger));
    cx.checking(|cx| {
        cx.check(Sabotage::Ledger, succeeded + failed + shed == expected, || {
            format!("{set}: succeeded {succeeded} + failed {failed} + shed {shed} != offered {expected}")
        })
    });
    if cx.end_op() {
        pass.sim.served += succeeded as u64;
    }
    Some(report)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
