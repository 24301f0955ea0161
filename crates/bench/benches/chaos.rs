//! Chaos harness for the overload-resilient placement service: seeded
//! fault plans (planner panics, WAL faults, planning latency spikes,
//! arrival bursts) driven through `PlacementService::serve`, asserting
//! the service's resilience contract rather than raw speed:
//!
//! * **No acked-but-lost commit** — a WAL-attached run under storm
//!   faults ends with recovery reproducing the live books exactly.
//! * **No hang** — every submitted ticket resolves; shed, panicked,
//!   and un-durable requests all get *typed* errors.
//! * **Degraded mode earns its keep** — under a seeded burst (waves of
//!   4x the batch size) the engine-ladder degradation sustains at
//!   least 2x the goodput of the same burst with degradation off,
//!   with bounded p99 (full runs only; smoke still records both).
//! * **Determinism** — two same-seed storm runs produce bit-identical
//!   deterministic reports (counts and order-independent digests).
//!
//! Writes `BENCH_chaos.json` at the repository root (`--smoke` writes
//! a fast variant under `target/`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ostro_core::{
    wal, Algorithm, DegradePolicy, DurabilityPolicy, Placement, PlacementError, PlacementRequest,
    PlacementService, SchedulerSession, ServiceConfig, ServiceResponse, Ticket, Wal, WalOptions,
};
use ostro_datacenter::{CapacityState, Infrastructure};
use ostro_model::ApplicationTopology;
use ostro_sim::scenarios::sized_datacenter;
use ostro_sim::stream::{arrival_stream, StreamConfig, StreamEvent, StreamPlan};
use ostro_sim::{ChaosConfig, ChaosPlan};
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct Scale {
    racks: usize,
    hosts_per_rack: usize,
    /// Arrivals in the burst drill.
    burst_requests: usize,
    /// Arrivals per burst wave (4x the service batch below).
    wave: usize,
    /// Service batch size for the burst drill.
    batch: usize,
    /// DBA* per-request planning deadline in the burst drill.
    plan_deadline_ms: u64,
    /// Admission deadline budget in the burst drill.
    budget_ms: u64,
    /// Degrade thresholds (high, low, floor) for the burst drill.
    degrade: (usize, usize, usize),
    /// Arrivals in the deterministic storm drill.
    storm_requests: usize,
}

const FULL: Scale = Scale {
    racks: 16,
    hosts_per_rack: 16,
    burst_requests: 96,
    wave: 32,
    batch: 8,
    plan_deadline_ms: 40,
    budget_ms: 120,
    degrade: (8, 2, 16),
    storm_requests: 96,
};
const SMOKE: Scale = Scale {
    racks: 4,
    hosts_per_rack: 16,
    burst_requests: 16,
    wave: 8,
    batch: 2,
    plan_deadline_ms: 10,
    budget_ms: 60,
    degrade: (2, 1, 4),
    storm_requests: 24,
};

/// splitmix64 finalizer, for order-independent decision digests.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Typed-outcome tally for one run; every arrival lands in exactly one
/// bucket, so `total()` == arrivals proves nothing hung or vanished.
#[derive(Default)]
struct Outcomes {
    placed: u64,
    shed_queue: u64,
    shed_deadline: u64,
    panicked: u64,
    durability: u64,
    rejected: u64,
    /// XOR fold over placed arrival ordinals (order-independent).
    commit_digest: u64,
    /// XOR fold over shed/panicked ordinals, tagged per kind.
    shed_digest: u64,
}

impl Outcomes {
    fn total(&self) -> u64 {
        self.placed
            + self.shed_queue
            + self.shed_deadline
            + self.panicked
            + self.durability
            + self.rejected
    }

    fn sheds(&self) -> u64 {
        self.shed_queue + self.shed_deadline
    }

    fn absorb(&mut self, arrival: usize, response: &ServiceResponse) {
        let a = arrival as u64;
        match response {
            ServiceResponse::Placed(_) => {
                self.placed += 1;
                self.commit_digest ^= mix64(a);
            }
            ServiceResponse::Failed(PlacementError::QueueFull { .. }) => {
                self.shed_queue += 1;
                self.shed_digest ^= mix64(a ^ 0x0dec_1ded);
            }
            ServiceResponse::Failed(PlacementError::DeadlineExceeded { .. }) => {
                self.shed_deadline += 1;
                self.shed_digest ^= mix64(a ^ 0xdead_11fe);
            }
            ServiceResponse::Failed(PlacementError::PlannerPanic { .. }) => {
                self.panicked += 1;
                self.shed_digest ^= mix64(a ^ 0x9a_0a1c);
            }
            ServiceResponse::Failed(PlacementError::Durability { .. }) => {
                self.durability += 1;
                self.shed_digest ^= mix64(a ^ 0xd15c_f011);
            }
            ServiceResponse::Failed(_) => self.rejected += 1,
            ServiceResponse::Released { .. } => unreachable!("arrival resolved as a release"),
        }
    }
}

struct BurstReport {
    outcomes: Outcomes,
    wall: Duration,
    latencies: Vec<Duration>,
    stats: ostro_core::ServiceStats,
}

impl BurstReport {
    fn goodput(&self) -> f64 {
        self.outcomes.placed as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn percentile_ms(&self, q: f64) -> f64 {
        let mut sorted = self.latencies.clone();
        sorted.sort();
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx].as_secs_f64() * 1e3
    }
}

/// The burst drill: the plan's waves are each dumped into the queue at
/// once (a 4x-batch arrival burst), drained, then the wave's
/// departures run — sustained overload pulses against a bounded queue
/// and a deadline budget, with or without engine-ladder degradation.
fn run_burst(
    infra: &Infrastructure,
    base: &CapacityState,
    plan: &StreamPlan,
    request: &PlacementRequest,
    scale: &Scale,
    degrade_enabled: bool,
) -> BurstReport {
    let (high, low, floor) = scale.degrade;
    let config = ServiceConfig {
        batch: scale.batch,
        durable_acks: false,
        queue_depth: scale.wave - scale.wave / 4,
        deadline_ms: scale.budget_ms,
        degrade: DegradePolicy {
            enabled: degrade_enabled,
            high,
            low,
            floor,
            ..DegradePolicy::default()
        },
        ..ServiceConfig::default()
    };
    let service = PlacementService::new(SchedulerSession::with_state(infra, base.clone()), config);
    let shapes: Vec<Arc<ApplicationTopology>> = plan.shapes.iter().cloned().map(Arc::new).collect();

    let mut outcomes = Outcomes::default();
    let mut latencies = Vec::with_capacity(plan.arrivals());
    let started = Instant::now();
    service.serve(|handle| {
        let mut placements: Vec<Option<Placement>> = vec![None; plan.arrivals()];
        for wave in plan.waves() {
            let mut tickets: Vec<(usize, Instant, Ticket)> = Vec::new();
            for event in wave {
                if let StreamEvent::Arrive { arrival, shape } = *event {
                    let ticket = handle.submit(Arc::clone(&shapes[shape]), request.clone());
                    tickets.push((arrival, Instant::now(), ticket));
                }
            }
            for (arrival, submitted, ticket) in tickets {
                let (response, delivered) = ticket.wait_timed();
                latencies.push(delivered.duration_since(submitted));
                if let ServiceResponse::Placed(outcome) = &response {
                    placements[arrival] = Some(outcome.outcome.placement.clone());
                }
                outcomes.absorb(arrival, &response);
            }
            let mut releases = Vec::new();
            for event in wave {
                if let StreamEvent::Depart { arrival } = *event {
                    if let Some(placement) = placements[arrival].take() {
                        let shape = plan.shape_of[arrival];
                        releases.push(handle.submit_release(Arc::clone(&shapes[shape]), placement));
                    }
                }
            }
            for ticket in releases {
                assert!(
                    matches!(ticket.wait(), ServiceResponse::Released { .. }),
                    "burst drill: releases must never fail"
                );
            }
        }
    });
    let wall = started.elapsed();
    let stats = service.stats();
    BurstReport { outcomes, wall, latencies, stats }
}

/// The deterministic chaos storm: batch 1, a serialized driver, and a
/// seeded [`ChaosPlan`] injecting planner panics, planning stalls, and
/// WAL faults (disk-full and torn appends) into a WAL-attached service
/// under the `Reject` durability policy. Returns the deterministic
/// report line — every count and digest, nothing wall-clock — which
/// must be bit-identical across same-seed runs.
fn run_storm(
    infra: &Infrastructure,
    base: &CapacityState,
    plan: &StreamPlan,
    request: &PlacementRequest,
    chaos: &ChaosPlan,
    run_tag: &str,
) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join(format!("bench-chaos-wal-{}-{run_tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (journal, _) =
        Wal::open(&dir, infra, WalOptions { snapshot_every: 0, ..WalOptions::default() })
            .expect("open storm WAL");
    let mut session = SchedulerSession::with_state(infra, base.clone());
    session.attach_wal(journal);
    session.checkpoint().expect("checkpoint storm base state");
    session.set_wal_fault_hook(Some(chaos.wal_hook()));
    let config = ServiceConfig {
        batch: 1,
        durable_acks: true,
        wal_policy: DurabilityPolicy::Reject,
        wal_retries: 1,
        ..ServiceConfig::default()
    };
    let mut service = PlacementService::new(session, config);
    service.set_plan_hook(Some(chaos.plan_hook()));
    let shapes: Vec<Arc<ApplicationTopology>> = plan.shapes.iter().cloned().map(Arc::new).collect();

    let mut outcomes = Outcomes::default();
    let mut released = 0u64;
    let mut release_failures = 0u64;
    service.serve(|handle| {
        let mut placements: Vec<Option<Placement>> = vec![None; plan.arrivals()];
        for event in &plan.events {
            match *event {
                StreamEvent::Arrive { arrival, shape } => {
                    let response =
                        handle.submit(Arc::clone(&shapes[shape]), request.clone()).wait();
                    if let ServiceResponse::Placed(outcome) = &response {
                        placements[arrival] = Some(outcome.outcome.placement.clone());
                    }
                    outcomes.absorb(arrival, &response);
                }
                StreamEvent::Depart { arrival } => {
                    if let Some(placement) = placements[arrival].take() {
                        let shape = plan.shape_of[arrival];
                        match handle.submit_release(Arc::clone(&shapes[shape]), placement).wait() {
                            ServiceResponse::Released { .. } => released += 1,
                            ServiceResponse::Failed(PlacementError::Durability { .. }) => {
                                release_failures += 1;
                            }
                            other => panic!("storm release failed untyped: {other:?}"),
                        }
                    }
                }
            }
        }
    });

    assert_eq!(
        outcomes.total(),
        plan.arrivals() as u64,
        "storm: every arrival must resolve exactly once (no hangs, no drops)"
    );
    let stats = service.stats();
    assert_eq!(stats.planner_panics, outcomes.panicked, "every panic surfaces as a typed error");

    // The resilience core: nothing acknowledged is lost. The live books
    // and a cold recovery from the journal must agree exactly — failed
    // group commits were rolled back off both.
    let mut session = service.into_session();
    let latched = session.take_wal_error();
    let live = session.into_state();
    let recovered = wal::recover(&dir, infra).expect("recover storm WAL");
    assert_eq!(recovered.state, live, "storm: recovered books diverged from acknowledged commits");
    let _ = std::fs::remove_dir_all(&dir);

    format!(
        concat!(
            "{{\n",
            "      \"arrivals\": {},\n",
            "      \"placed\": {},\n",
            "      \"released\": {},\n",
            "      \"release_durability_failures\": {},\n",
            "      \"planner_panics\": {},\n",
            "      \"shed_queue_full\": {},\n",
            "      \"shed_deadline\": {},\n",
            "      \"durability_rejections\": {},\n",
            "      \"capacity_rejections\": {},\n",
            "      \"wal_faults\": {},\n",
            "      \"wal_retry_syncs\": {},\n",
            "      \"non_durable_acks\": {},\n",
            "      \"wal_error_latched\": {},\n",
            "      \"commit_digest\": \"{:016x}\",\n",
            "      \"shed_digest\": \"{:016x}\"\n",
            "    }}"
        ),
        plan.arrivals(),
        outcomes.placed,
        released,
        release_failures,
        outcomes.panicked,
        outcomes.shed_queue,
        outcomes.shed_deadline,
        outcomes.durability + release_failures,
        outcomes.rejected,
        stats.wal_faults,
        stats.wal_retry_syncs,
        stats.non_durable_acks,
        latched.is_some(),
        outcomes.commit_digest,
        outcomes.shed_digest,
    )
}

fn json_burst(report: &BurstReport) -> String {
    format!(
        concat!(
            "{{\n",
            "      \"goodput_per_sec\": {:.2},\n",
            "      \"p50_ms\": {:.2},\n",
            "      \"p99_ms\": {:.2},\n",
            "      \"placed\": {},\n",
            "      \"shed_queue_full\": {},\n",
            "      \"shed_deadline\": {},\n",
            "      \"capacity_rejections\": {},\n",
            "      \"degraded_decisions\": {},\n",
            "      \"degraded_transitions\": {}\n",
            "    }}"
        ),
        report.goodput(),
        report.percentile_ms(0.50),
        report.percentile_ms(0.99),
        report.outcomes.placed,
        report.outcomes.shed_queue,
        report.outcomes.shed_deadline,
        report.outcomes.rejected,
        report.stats.degraded_decisions,
        report.stats.degraded_transitions,
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let scale = if smoke { SMOKE } else { FULL };
    let hosts = scale.racks * scale.hosts_per_rack;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut rng = SmallRng::seed_from_u64(0xC4A0_57AE);
    let (infra, base) = sized_datacenter(scale.racks, scale.hosts_per_rack, true, &mut rng)
        .expect("valid chaos data center");

    // ---- Drill 1: seeded 4x arrival burst, degraded mode off vs on.
    let burst_plan = arrival_stream(&StreamConfig {
        requests: scale.burst_requests,
        depart_prob: 0.3,
        seed: 0x5EED_57AE,
        burst: scale.wave,
    })
    .expect("valid burst stream");
    let burst_request = PlacementRequest {
        algorithm: Algorithm::DeadlineBoundedAStar {
            deadline: Duration::from_millis(scale.plan_deadline_ms),
        },
        ..PlacementRequest::default()
    };
    let baseline = run_burst(&infra, &base, &burst_plan, &burst_request, &scale, false);
    let degraded = run_burst(&infra, &base, &burst_plan, &burst_request, &scale, true);
    for (label, report) in [("baseline", &baseline), ("degraded", &degraded)] {
        println!(
            "burst {label}: {:.1} placed/s (p50 {:.1} ms, p99 {:.1} ms), \
             {} placed / {} queue-shed / {} deadline-shed / {} rejected, {} degraded decisions",
            report.goodput(),
            report.percentile_ms(0.50),
            report.percentile_ms(0.99),
            report.outcomes.placed,
            report.outcomes.shed_queue,
            report.outcomes.shed_deadline,
            report.outcomes.rejected,
            report.stats.degraded_decisions,
        );
        assert_eq!(
            report.outcomes.total(),
            burst_plan.arrivals() as u64,
            "burst {label}: every arrival must resolve exactly once"
        );
    }
    let ratio = degraded.goodput() / baseline.goodput().max(1e-9);
    println!("degraded-mode goodput ratio under 4x burst: {ratio:.2}x");
    assert!(
        baseline.outcomes.sheds() > 0,
        "the burst must overwhelm the undegraded service into shedding"
    );
    assert!(degraded.stats.degraded_decisions > 0, "the burst must trip the degrade ladder");
    assert!(
        degraded.percentile_ms(0.99) <= 10.0 * scale.budget_ms as f64,
        "degraded p99 {:.1} ms blew the bounded-latency contract",
        degraded.percentile_ms(0.99)
    );
    if !smoke {
        assert!(
            ratio >= 2.0,
            "degraded mode must sustain >=2x the goodput of no-degradation under the burst \
             (got {ratio:.2}x)"
        );
    }

    // ---- Drill 2: deterministic chaos storm, run twice for
    // bit-identity. Chaos panics unwind through the planner on
    // schedule; keep the default hook from spamming stderr.
    let storm_plan = arrival_stream(&StreamConfig {
        requests: scale.storm_requests,
        depart_prob: 0.3,
        seed: 0x5EED_57AE,
        burst: 0,
    })
    .expect("valid storm stream");
    let storm_request =
        PlacementRequest { algorithm: Algorithm::Greedy, ..PlacementRequest::default() };
    let chaos = ChaosPlan::new(ChaosConfig {
        seed: 0xC4A0_5EED,
        panic_prob: 0.08,
        latency_prob: 0.10,
        latency_ms: 1,
        wal_fault_prob: 0.12,
        torn_fraction: 0.5,
    });
    let prior_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let storm_a = run_storm(&infra, &base, &storm_plan, &storm_request, &chaos, "a");
    let storm_b = run_storm(&infra, &base, &storm_plan, &storm_request, &chaos, "b");
    std::panic::set_hook(prior_hook);
    assert_eq!(storm_a, storm_b, "two same-seed storm runs must be bit-identical");
    println!("storm report (identical across two same-seed runs):\n    {storm_a}");

    let artifact_path = if smoke {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_chaos_smoke.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json")
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"placement service chaos harness\",\n",
            "  \"hosts\": {},\n",
            "  \"smoke\": {},\n",
            "  \"cores\": {},\n",
            "  \"burst\": {{\n",
            "    \"arrivals\": {},\n",
            "    \"wave\": {},\n",
            "    \"batch\": {},\n",
            "    \"deadline_budget_ms\": {},\n",
            "    \"baseline\": {},\n",
            "    \"degraded\": {},\n",
            "    \"goodput_ratio\": {:.2}\n",
            "  }},\n",
            "  \"storm\": {{\n",
            "    \"report\": {},\n",
            "    \"bit_identical_reruns\": true,\n",
            "    \"recovered_matches_live\": true\n",
            "  }}\n",
            "}}\n"
        ),
        hosts,
        smoke,
        cores,
        burst_plan.arrivals(),
        scale.wave,
        scale.batch,
        scale.budget_ms,
        json_burst(&baseline),
        json_burst(&degraded),
        ratio,
        storm_a,
    );
    std::fs::write(artifact_path, &json).expect("write chaos artifact");
    println!("wrote {artifact_path}");
    serde_json::from_str::<serde_json::Value>(&json)
        .expect("chaos artifact must be well-formed JSON");
}
