//! One end-to-end benchmark of the Ostro placement stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <serve_steady|fleet_churn|all> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics; with
//! `--trace 1` it runs the workload twice with the same seed, untraced
//! then traced, and prints the per-layer metrics of the traced run with
//! the tracing overhead. Each metric is printed on its own line with
//! its unit and sample count; the last line is one JSON object. Any
//! failed correctness check exits with code 1 and reports no metrics.
//! See `README.md` beside this file for the workloads and metrics.

mod check;
mod closed;
mod cpus;
mod layers;
mod report;
mod serve;
mod trace;
mod world;

use std::process::ExitCode;

use ostro_core::PlacementRequest;

use crate::report::{peak_rss_mb, Report};
use crate::trace::Tracer;

/// End-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: [&str; 9] = [
    "latency_p50_ms",
    "latency_p90_ms",
    "goodput_rps",
    "ok_share",
    "max_rate_rps",
    "objective_mean",
    "fleet_objective_end",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics, as `BENCHMARK.json` lists them.
const PER_LAYER: [&str; 30] = [
    "loadgen.lag_p90_ms",
    "service.queue_wait_p50_ms",
    "service.queue_wait_p90_ms",
    "service.commit_ack_p50_ms",
    "service.commit_ack_p90_ms",
    "service.batch_size_mean",
    "service.plan_useful_ratio",
    "service.snapshots_per_commit",
    "wal.syncs_per_commit",
    "search.time_p50_ms",
    "search.time_p90_ms",
    "search.expanded_per_request",
    "session.place_p50_ms",
    "session.pre_search_p50_ms",
    "session.commit_p50_ms",
    "session.release_p50_ms",
    "session.evacuate_p50_ms",
    "session.dirty_hosts_per_request",
    "session.cache_hit_ratio",
    "shard.pods_scanned_per_request",
    "shard.pods_pruned_ratio",
    "shard.fallback_share",
    "candidates.scanned_per_request",
    "candidates.pruned_ratio",
    "heuristic.evals_per_request",
    "heuristic.memo_hit_ratio",
    "wal.records_per_commit",
    "wal.snapshots_taken",
    "wal.recover_ms",
    "trace.overhead_p50_ms",
];

/// What one workload run hands back for reporting.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Report,
    pub layers: Report,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any entry voids the run.
    pub failures: Vec<String>,
    /// Seconds each set-up took.
    pub setup_s: Vec<f64>,
    /// Traced minus untraced median latency, from a traced run.
    pub trace_overhead_ms: Option<f64>,
    pub spans: Tracer,
}

/// Set-ups per untraced run; `setup_s` is their median. The set-ups
/// take turns on the CPUs, and an even count splits them evenly
/// between two.
pub const SETUPS: usize = 16;

const WORKLOADS: [&str; 2] = ["serve_steady", "fleet_churn"];

/// Scoring runs on the calling thread alone, so client and planner
/// threads never outnumber two cores and a run does not depend on a
/// second core being free.
const SCORE_THREADS: usize = 1;

/// One tenant kind in four runs BA\* under a fixed expansion cap of 64
/// per pod searched; the rest run EG. Every request is sharded over the
/// top four pods. With a cap of 256, BA\* either finished within a few
/// expansions or ran to the cap, and its latencies spread from 24 to
/// 500 ms on one shape, which left `latency_p90_ms` at the mercy of a
/// handful of requests.
fn fleet_request(kind: usize) -> PlacementRequest {
    let engine = if kind < world::SMALL_KINDS {
        world::bastar_capped(SCORE_THREADS, 64)
    } else {
        world::eg(SCORE_THREADS)
    };
    PlacementRequest { shard: true, pods_considered: 4, ..engine }
}

fn fleet_spec() -> closed::Spec {
    closed::Spec {
        name: "fleet_churn",
        build: world::fleet_100k,
        kinds: 4 * world::SMALL_KINDS,
        tenant: world::small_tenant,
        request: fleet_request,
        evacuation: || fleet_request(world::SMALL_KINDS),
        prefill: 60,
        crash_every: 25,
        limit_ms: 250.0,
        replay_steps: 90,
    }
}

fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let mut out = match workload {
        "serve_steady" => serve::run(seed, seconds, trace),
        "fleet_churn" => closed::run(&fleet_spec(), seed, seconds, trace),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let correct = out.failures.is_empty();
    for f in &out.failures {
        eprintln!("{workload}: correctness check failed: {f}");
    }
    let (report, names): (Report, &[&str]) = if trace {
        let overhead = out.trace_overhead_ms.unwrap_or(0.0);
        out.layers.add("trace.overhead_p50_ms", overhead, "ms", None);
        let path = world::out_dir().join(format!("trace-{workload}-{seed}.jsonl"));
        if let Err(e) = out.spans.write(&path) {
            return Err(format!("writing the trace to {}: {e}", path.display()));
        }
        println!("{workload}: {} spans written to {}", out.spans.len(), path.display());
        (out.layers, &PER_LAYER)
    } else {
        let mut r = out.e2e;
        let ok_share = 1.0 - report::ratio(out.failed as f64, out.attempted as f64);
        r.add("ok_share", ok_share, "ratio", Some(out.attempted as usize));
        r.add("setup_s", report::median(out.setup_s.clone()), "s", Some(out.setup_s.len()));
        let each: Vec<String> = out.setup_s.iter().map(|s| format!("{s:.4}")).collect();
        println!("{workload} set-ups took {} s", each.join(", "));
        r.add("peak_rss_mb", peak_rss_mb(), "MiB", None);
        (r, &END_TO_END)
    };
    for name in names {
        assert!(report.get(name).is_some(), "{workload} did not report {name}");
    }
    println!("{workload} attempted = {}, failed = {}", out.attempted, out.failed);
    if correct {
        print!("{}", report.human(workload));
        println!("{}", report.json(true, out.attempted, out.failed));
    } else {
        println!("{}", Report::default().json(false, out.attempted, out.failed));
    }
    Ok(correct)
}

fn parse() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value}: out of range (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if workload == "all" { WORKLOADS.to_vec() } else { vec![&workload] };
    let mut all_correct = true;
    for name in names {
        match run_one(name, seed, seconds, trace) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
