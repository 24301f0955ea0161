//! Sustained-load benchmark for the placement service: one 1,024-host
//! data center admitting a seeded arrival/departure stream
//! (`ostro_sim::stream`), comparing the serial warm-session baseline
//! against the single-writer service at `ServiceConfig::default()`.
//!
//! The service row is checked for the service's core contract —
//! replaying the acknowledged mutations in commit-sequence order over
//! the base state reproduces the final books exactly — and the run
//! ends with a crash drill: a WAL-attached service is dropped
//! mid-stream with no checkpoint and recovery must reproduce every
//! acknowledged commit.
//!
//! Writes `BENCH_service.json` at the repository root with sustained
//! req/s and p50/p99 submit-to-ack latency for both rows and the
//! detected core count. A full run fails if the service's req/s falls
//! more than 10% below the checked-in artifact recorded at the same
//! core count. `--smoke` runs a fast 64-host variant for
//! `scripts/verify.sh`, writing under `target/`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ostro_core::{
    wal, Algorithm, Placement, PlacementRequest, PlacementService, Scheduler, SchedulerSession,
    ServiceConfig, ServiceResponse, Ticket, Wal, WalOptions,
};
use ostro_datacenter::{CapacityState, Infrastructure};
use ostro_model::ApplicationTopology;
use ostro_sim::scenarios::sized_datacenter;
use ostro_sim::stream::{arrival_stream, StreamConfig, StreamEvent, StreamPlan};
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct Scale {
    racks: usize,
    hosts_per_rack: usize,
    requests: usize,
}

const FULL: Scale = Scale { racks: 64, hosts_per_rack: 16, requests: 160 };
const SMOKE: Scale = Scale { racks: 4, hosts_per_rack: 16, requests: 16 };

/// An acknowledged mutation, for the commit-order replay check.
enum Acked {
    Commit { seq: u64, shape: usize, placement: Placement },
    Release { seq: u64, shape: usize, placement: Placement },
}

impl Acked {
    fn seq(&self) -> u64 {
        match self {
            Acked::Commit { seq, .. } | Acked::Release { seq, .. } => *seq,
        }
    }
}

struct RunReport {
    wall: Duration,
    latencies: Vec<Duration>,
    placed: usize,
    rejected: usize,
    released: usize,
}

impl RunReport {
    fn requests_per_sec(&self) -> f64 {
        self.latencies.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn percentile_ms(&self, q: f64) -> f64 {
        let mut sorted = self.latencies.clone();
        sorted.sort();
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx].as_secs_f64() * 1e3
    }
}

/// Replays `acked` in commit-sequence order over `base` and asserts
/// the fold equals `final_state` — the service's linearizability
/// contract.
fn assert_commit_order_replay(
    infra: &Infrastructure,
    base: &CapacityState,
    shapes: &[ApplicationTopology],
    mut acked: Vec<Acked>,
    final_state: &CapacityState,
    label: &str,
) {
    acked.sort_by_key(Acked::seq);
    let scheduler = Scheduler::new(infra);
    let mut state = base.clone();
    let mut last = 0u64;
    for event in &acked {
        assert!(event.seq() > last, "{label}: duplicate or reordered commit seq");
        last = event.seq();
        match event {
            Acked::Commit { shape, placement, .. } => scheduler
                .commit(&shapes[*shape], placement, &mut state)
                .expect("acked commit must replay"),
            Acked::Release { shape, placement, .. } => scheduler
                .release(&shapes[*shape], placement, &mut state)
                .expect("acked release must replay"),
        }
    }
    assert_eq!(&state, final_state, "{label}: commit-order replay diverged from the service books");
}

/// The serial baseline: one warm session serves the identical schedule
/// one event at a time (intra-request parallel scoring allowed — the
/// honest pre-service engine).
fn run_serial(
    infra: &Infrastructure,
    base: &CapacityState,
    plan: &StreamPlan,
    request: &PlacementRequest,
) -> RunReport {
    let mut session = SchedulerSession::with_state(infra, base.clone());
    let mut report = RunReport {
        wall: Duration::ZERO,
        latencies: Vec::with_capacity(plan.arrivals()),
        placed: 0,
        rejected: 0,
        released: 0,
    };
    let mut placements: Vec<Option<Placement>> = vec![None; plan.arrivals()];
    let started = Instant::now();
    for event in &plan.events {
        match *event {
            StreamEvent::Arrive { arrival, shape } => {
                let t0 = Instant::now();
                let outcome = session.place(&plan.shapes[shape], request);
                report.latencies.push(t0.elapsed());
                match outcome {
                    Ok(outcome) => {
                        session
                            .commit(&plan.shapes[shape], &outcome.placement)
                            .expect("commit serial decision");
                        placements[arrival] = Some(outcome.placement);
                        report.placed += 1;
                    }
                    Err(_) => report.rejected += 1,
                }
            }
            StreamEvent::Depart { arrival } => {
                if let Some(placement) = placements[arrival].take() {
                    session
                        .release(&plan.shapes[plan.shape_of[arrival]], &placement)
                        .expect("release serial tenant");
                    report.released += 1;
                }
            }
        }
    }
    report.wall = started.elapsed();
    report
}

/// The service row: the same schedule submitted through `serve` at
/// the default configuration. Departures wait on their own arrival's
/// ticket (a tenant can only tear down what was stood up); everything
/// else stays in flight.
fn run_service(
    infra: &Infrastructure,
    base: &CapacityState,
    plan: &StreamPlan,
    request: &PlacementRequest,
) -> (RunReport, ostro_core::ServiceStats) {
    let shapes: Vec<Arc<ApplicationTopology>> = plan.shapes.iter().cloned().map(Arc::new).collect();
    let service = PlacementService::new(
        SchedulerSession::with_state(infra, base.clone()),
        ServiceConfig::default(),
    );

    let mut report = RunReport {
        wall: Duration::ZERO,
        latencies: Vec::with_capacity(plan.arrivals()),
        placed: 0,
        rejected: 0,
        released: 0,
    };
    let mut acked: Vec<Acked> = Vec::new();
    let started = Instant::now();
    service.serve(|handle| {
        let mut pending: Vec<Option<(Instant, Ticket)>> = Vec::new();
        pending.resize_with(plan.arrivals(), || None);
        let mut placements: Vec<Option<Placement>> = vec![None; plan.arrivals()];
        let mut release_tickets: Vec<(usize, Ticket)> = Vec::new();
        let resolve = |arrival: usize,
                       slot: (Instant, Ticket),
                       report: &mut RunReport,
                       acked: &mut Vec<Acked>|
         -> Option<Placement> {
            let (submitted, ticket) = slot;
            let (response, delivered) = ticket.wait_timed();
            report.latencies.push(delivered.duration_since(submitted));
            match response {
                ServiceResponse::Placed(outcome) => {
                    report.placed += 1;
                    acked.push(Acked::Commit {
                        seq: outcome.seq,
                        shape: plan.shape_of[arrival],
                        placement: outcome.outcome.placement.clone(),
                    });
                    Some(outcome.outcome.placement)
                }
                ServiceResponse::Failed(_) => {
                    report.rejected += 1;
                    None
                }
                ServiceResponse::Released { .. } => unreachable!("arrival resolved as release"),
            }
        };
        for event in &plan.events {
            match *event {
                StreamEvent::Arrive { arrival, shape } => {
                    let ticket = handle.submit(Arc::clone(&shapes[shape]), request.clone());
                    pending[arrival] = Some((Instant::now(), ticket));
                }
                StreamEvent::Depart { arrival } => {
                    if let Some(slot) = pending[arrival].take() {
                        placements[arrival] = resolve(arrival, slot, &mut report, &mut acked);
                    }
                    if let Some(placement) = placements[arrival].take() {
                        let shape = plan.shape_of[arrival];
                        let ticket =
                            handle.submit_release(Arc::clone(&shapes[shape]), placement.clone());
                        release_tickets.push((arrival, ticket));
                        placements[arrival] = Some(placement);
                    }
                }
            }
        }
        for arrival in 0..plan.arrivals() {
            if let Some(slot) = pending[arrival].take() {
                placements[arrival] = resolve(arrival, slot, &mut report, &mut acked);
            }
        }
        for (arrival, ticket) in release_tickets {
            match ticket.wait() {
                ServiceResponse::Released { seq } => {
                    report.released += 1;
                    let placement =
                        placements[arrival].take().expect("released arrival had a placement");
                    acked.push(Acked::Release { seq, shape: plan.shape_of[arrival], placement });
                }
                other => panic!("release of arrival {arrival} failed: {other:?}"),
            }
        }
    });
    report.wall = started.elapsed();

    let stats = service.stats();
    let final_state = service.into_session().into_state();
    assert_commit_order_replay(infra, base, &plan.shapes, acked, &final_state, "service");
    (report, stats)
}

/// The crash drill: a WAL-attached service with durable acks is fed
/// the first half of the stream, then dropped cold — no checkpoint, no
/// graceful shutdown. Recovery from the journal alone must reproduce
/// every acknowledged mutation, and a session rebuilt from the
/// recovered books must keep serving.
fn crash_drill(
    infra: &Infrastructure,
    base: &CapacityState,
    plan: &StreamPlan,
    request: &PlacementRequest,
) -> (usize, u64) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join(format!("bench-service-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (journal, _) = Wal::open(&dir, infra, WalOptions::default()).expect("open drill WAL");
    let mut session = SchedulerSession::with_state(infra, base.clone());
    session.attach_wal(journal);
    // Snapshot the (non-uniform) base tenancy so recovery replays the
    // journal over the books the service actually started from. After
    // this, no checkpoint runs again — the "crash" drops everything.
    session.checkpoint().expect("checkpoint drill base state");
    let service = PlacementService::new(
        session,
        ServiceConfig { batch: 4, durable_acks: true, ..ServiceConfig::default() },
    );

    let shapes: Vec<Arc<ApplicationTopology>> = plan.shapes.iter().cloned().map(Arc::new).collect();
    let half = &plan.events[..plan.events.len() / 2];
    let mut acked = 0usize;
    service.serve(|handle| {
        let mut pending: Vec<Option<Ticket>> = Vec::new();
        pending.resize_with(plan.arrivals(), || None);
        let mut placements: Vec<Option<Placement>> = vec![None; plan.arrivals()];
        for event in half {
            match *event {
                StreamEvent::Arrive { arrival, shape } => {
                    pending[arrival] =
                        Some(handle.submit(Arc::clone(&shapes[shape]), request.clone()));
                }
                StreamEvent::Depart { arrival } => {
                    if let Some(ticket) = pending[arrival].take() {
                        if let ServiceResponse::Placed(outcome) = ticket.wait() {
                            acked += 1;
                            placements[arrival] = Some(outcome.outcome.placement);
                        }
                    }
                    if let Some(placement) = placements[arrival].take() {
                        let shape = plan.shape_of[arrival];
                        if let ServiceResponse::Released { .. } =
                            handle.submit_release(Arc::clone(&shapes[shape]), placement).wait()
                        {
                            acked += 1;
                        }
                    }
                }
            }
        }
        for ticket in pending.into_iter().flatten() {
            if let ServiceResponse::Placed(_) = ticket.wait() {
                acked += 1;
            }
        }
    });
    let wal_syncs = service.stats().wal_syncs;

    // "Crash": every handle dropped with no checkpoint. The journal on
    // disk is all that survives.
    let live = service.into_session().into_state();
    let recovered = wal::recover(&dir, infra).expect("recover drill WAL");
    assert_eq!(
        recovered.state, live,
        "crash drill: recovered books diverged from acknowledged commits"
    );

    // The recovered books must be servable: place one more tenant.
    let mut resumed = SchedulerSession::with_state(infra, recovered.state);
    let outcome = resumed.place(&plan.shapes[1], request).expect("place on recovered books");
    resumed.commit(&plan.shapes[1], &outcome.placement).expect("commit on recovered books");

    let _ = std::fs::remove_dir_all(&dir);
    (acked, wal_syncs)
}

fn json_run(report: &RunReport) -> String {
    format!(
        concat!(
            "{{\n",
            "      \"requests_per_sec\": {:.2},\n",
            "      \"p50_ms\": {:.2},\n",
            "      \"p99_ms\": {:.2},\n",
            "      \"placed\": {},\n",
            "      \"rejected\": {},\n",
            "      \"released\": {}\n",
            "    }}"
        ),
        report.requests_per_sec(),
        report.percentile_ms(0.50),
        report.percentile_ms(0.99),
        report.placed,
        report.rejected,
        report.released,
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let scale = if smoke { SMOKE } else { FULL };
    let hosts = scale.racks * scale.hosts_per_rack;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut rng = SmallRng::seed_from_u64(0x57AE);
    let (infra, base) = sized_datacenter(scale.racks, scale.hosts_per_rack, true, &mut rng)
        .expect("valid benchmark data center");
    let plan = arrival_stream(&StreamConfig {
        requests: scale.requests,
        depart_prob: 0.3,
        seed: 0x5EED_57AE,
        burst: 0,
    })
    .expect("valid arrival stream");
    let request = PlacementRequest { algorithm: Algorithm::Greedy, ..PlacementRequest::default() };

    let serial = run_serial(&infra, &base, &plan, &request);
    println!(
        "serial baseline @ {hosts} hosts: {:.2} req/s (p50 {:.1} ms, p99 {:.1} ms), \
         {} placed / {} rejected / {} released",
        serial.requests_per_sec(),
        serial.percentile_ms(0.50),
        serial.percentile_ms(0.99),
        serial.placed,
        serial.rejected,
        serial.released,
    );

    let (service, stats) = run_service(&infra, &base, &plan, &request);
    println!(
        "service: {:.2} req/s (p50 {:.1} ms, p99 {:.1} ms), {} placed / {} rejected / \
         {} released, {} batches",
        service.requests_per_sec(),
        service.percentile_ms(0.50),
        service.percentile_ms(0.99),
        service.placed,
        service.rejected,
        service.released,
        stats.batches,
    );
    assert_eq!(
        service.placed as u64 + service.rejected as u64,
        plan.arrivals() as u64,
        "service: every arrival must resolve"
    );
    let service_rps = service.requests_per_sec();
    let speedup = service_rps / serial.requests_per_sec().max(1e-9);
    println!("service speedup over serial baseline: {speedup:.2}x ({cores} cores)");

    let (drill_acked, drill_syncs) = crash_drill(&infra, &base, &plan, &request);
    println!("crash drill: {drill_acked} acked mutations recovered after {drill_syncs} group-commit syncs");

    // Regression gate (full runs only): regenerating must not lose
    // >10% req/s against the checked-in artifact on a comparable box.
    let artifact_path = if smoke {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_service_smoke.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json")
    };
    if !smoke {
        if let Ok(prior) = std::fs::read_to_string(artifact_path) {
            if let Ok(doc) = serde_json::from_str::<serde_json::Value>(&prior) {
                let prior_cores = doc.get("cores").and_then(serde_json::Value::as_u64).unwrap_or(0);
                let prior_rps = doc
                    .get("service")
                    .and_then(|row| row.get("requests_per_sec"))
                    .and_then(serde_json::Value::as_f64);
                if prior_cores == cores as u64 {
                    if let Some(prior_rps) = prior_rps {
                        assert!(
                            service_rps >= prior_rps * 0.9,
                            "service throughput regressed >10%: {service_rps:.2} req/s vs \
                             {prior_rps:.2} in the checked-in artifact"
                        );
                    }
                }
            }
        }
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"placement service\",\n",
            "  \"hosts\": {},\n",
            "  \"smoke\": {},\n",
            "  \"cores\": {},\n",
            "  \"arrivals\": {},\n",
            "  \"departures\": {},\n",
            "  \"serial\": {},\n",
            "  \"service\": {},\n",
            "  \"batches\": {},\n",
            "  \"speedup\": {:.2},\n",
            "  \"crash_drill\": {{\n",
            "    \"acked_mutations\": {},\n",
            "    \"group_commit_syncs\": {},\n",
            "    \"recovered_matches\": true\n",
            "  }}\n",
            "}}\n"
        ),
        hosts,
        smoke,
        cores,
        plan.arrivals(),
        plan.departures(),
        json_run(&serial),
        json_run(&service),
        stats.batches,
        speedup,
        drill_acked,
        drill_syncs,
    );
    std::fs::write(artifact_path, &json).expect("write service artifact");
    println!("wrote {artifact_path}");

    let _: serde_json::Value =
        serde_json::from_str(&json).expect("service artifact must be well-formed JSON");
}
