//! The closed-loop workload: one client on one warm
//! `SchedulerSession`, issuing its next operation as soon as the last
//! one is acknowledged.
//!
//! A run first fills the data center with `prefill` tenants (untimed),
//! then repeats one step until the time is up: one arrival (place, then
//! commit), one departure of a uniformly chosen resident (release), so
//! occupancy holds at `prefill`, and every `crash_every` arrivals a
//! seeded host crash whose tenants are moved off through `evacuate`.
//! The operation sequence is a function of the seed and the decisions
//! alone, so two same-seed runs must make identical decisions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ostro_core::{
    wal, FragStats, Placement, PlacementRequest, SchedulerSession, TenantRecord, Wal, WalOptions,
};
use ostro_datacenter::HostId;
use ostro_model::{ApplicationTopology, ModelError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::check::{replay, Digest, Mutation};
use crate::cpus::Rotation;
use crate::layers::SearchTotals;
use crate::report::{ratio, Dist};
use crate::trace::Tracer;
use crate::world::{out_dir, Deck, World};
use crate::Outcome;

/// One closed-loop workload.
pub struct Spec {
    pub name: &'static str,
    pub build: fn() -> World,
    /// Tenant kinds; each run draws them from a seeded [`Deck`].
    pub kinds: usize,
    pub tenant: fn(usize, &mut SmallRng) -> Result<ApplicationTopology, ModelError>,
    /// The request a tenant of the given kind is placed with.
    pub request: fn(usize) -> PlacementRequest,
    /// The request evacuations re-place with.
    pub evacuation: fn() -> PlacementRequest,
    pub prefill: usize,
    /// Arrivals between host crashes; 0 for none.
    pub crash_every: usize,
    /// Latency limit a placement must meet to count toward goodput.
    pub limit_ms: f64,
    /// Steps the untraced run replays on a fresh session to check that
    /// the same seed gives the same decisions.
    pub replay_steps: usize,
}

struct Tenant {
    id: u64,
    topology: Arc<ApplicationTopology>,
    placement: Placement,
}

enum Stop {
    After(Duration),
    Steps(usize),
}

/// Everything one pass over the operation sequence records.
#[derive(Default)]
struct Pass {
    /// The decision digest after each step.
    digests: Vec<Digest>,
    log: Vec<Mutation>,
    residents: Vec<Tenant>,
    attempted: u64,
    failed: u64,
    window: Duration,
    latency: Dist,
    within_limit: usize,
    objective_sum: f64,
    lag: Dist,
    place: Dist,
    pre_search: Dist,
    commit: Dist,
    release: Dist,
    evacuate: Dist,
    search: SearchTotals,
}

const FAIL: u64 = u64::MAX;

fn drive(
    session: &mut SchedulerSession<'_>,
    spec: &Spec,
    seed: u64,
    stop: Stop,
    tracer: &mut Tracer,
) -> Pass {
    let mut p = Pass::default();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC105_ED00);
    let mut deck = Deck::new(spec.kinds);
    let mut digest = Digest::default();
    let mut arrivals = 0usize;
    let mut started: Option<Instant> = None;
    let mut prev_end = Instant::now();
    let limit = Duration::from_secs_f64(spec.limit_ms / 1e3);
    let mut rotation = Rotation::new();
    loop {
        rotation.step();
        let measuring = arrivals >= spec.prefill;
        if measuring && started.is_none() {
            started = Some(Instant::now());
            prev_end = Instant::now();
        }
        let done = match stop {
            Stop::After(d) => started.is_some_and(|s| s.elapsed() >= d),
            Stop::Steps(n) => p.digests.len() >= n,
        };
        if done {
            break;
        }

        // One arrival.
        let kind = deck.draw(&mut rng);
        let topology =
            Arc::new((spec.tenant)(kind, &mut rng).expect("generated topologies are valid"));
        let request = (spec.request)(kind);
        let id = arrivals as u64;
        arrivals += 1;
        p.attempted += 1;
        let sent = Instant::now();
        match session.place(&topology, &request) {
            Ok(outcome) => {
                let placed = Instant::now();
                let committed = session.commit(&topology, &outcome.placement);
                let end = Instant::now();
                if committed.is_ok() {
                    digest.placement(&outcome.placement);
                    p.log.push(Mutation::Commit {
                        topology: Arc::clone(&topology),
                        placement: outcome.placement.clone(),
                    });
                    if measuring {
                        p.latency.push(end - sent);
                        p.within_limit += usize::from(end - sent <= limit);
                        p.objective_sum += outcome.objective;
                        p.lag.push(sent - prev_end);
                        p.place.push(placed - sent);
                        p.pre_search.push((placed - sent).saturating_sub(outcome.elapsed));
                        p.commit.push(end - placed);
                        p.search.add(&outcome);
                        tracer.span("loadgen.lag", id, 0, prev_end, sent);
                        let root = tracer.span("request", id, 0, sent, end);
                        let place = tracer.span("session.place", id, root, sent, placed);
                        let search_start = placed.checked_sub(outcome.elapsed).unwrap_or(sent);
                        tracer.span("search", id, place, search_start.max(sent), placed);
                        tracer.span("session.commit", id, root, placed, end);
                    }
                    p.residents.push(Tenant { id, topology, placement: outcome.placement });
                } else {
                    p.failed += 1;
                    digest.mark(FAIL);
                }
                prev_end = end;
            }
            Err(_) => {
                p.failed += 1;
                digest.mark(FAIL);
                prev_end = Instant::now();
            }
        }

        if measuring {
            // One departure, holding occupancy at `prefill`.
            if !p.residents.is_empty() {
                let gone = p.residents.swap_remove(rng.gen_range(0..p.residents.len()));
                p.attempted += 1;
                let t0 = Instant::now();
                let released = session.release(&gone.topology, &gone.placement);
                let t1 = Instant::now();
                if released.is_ok() {
                    digest.mark(gone.id);
                    p.release.push(t1 - t0);
                    tracer.span("session.release", gone.id, 0, t0, t1);
                    p.log.push(Mutation::Release {
                        topology: gone.topology,
                        placement: gone.placement,
                    });
                } else {
                    p.failed += 1;
                    digest.mark(FAIL);
                }
                prev_end = t1;
            }
            if spec.crash_every > 0 && arrivals.is_multiple_of(spec.crash_every) {
                prev_end = crash(session, spec, &mut rng, &mut digest, &mut p, tracer);
            }
        }
        p.digests.push(digest);
    }
    p.window = started.map_or(Duration::ZERO, |s| s.elapsed());
    p
}

/// Crashes the host of a random node of a random resident and moves
/// every tenant with a replica there through `evacuate`, then commits
/// each re-placement. Returns when the last commit was acknowledged.
fn crash(
    session: &mut SchedulerSession<'_>,
    spec: &Spec,
    rng: &mut SmallRng,
    digest: &mut Digest,
    p: &mut Pass,
    tracer: &mut Tracer,
) -> Instant {
    if p.residents.is_empty() {
        return Instant::now();
    }
    let victim = &p.residents[rng.gen_range(0..p.residents.len())];
    let hosts = victim.placement.assignments();
    let host: HostId = hosts[rng.gen_range(0..hosts.len())];
    digest.mark(host.index() as u64);
    let request = (spec.evacuation)();
    let mut lost = Vec::new();
    for (i, t) in p.residents.iter_mut().enumerate() {
        if !t.placement.assignments().contains(&host) {
            continue;
        }
        let assignment: Vec<Option<HostId>> =
            t.placement.assignments().iter().copied().map(Some).collect();
        p.attempted += 1;
        let t0 = Instant::now();
        let evacuated = session.evacuate(&t.topology, &assignment, &request, host, 4);
        let t1 = Instant::now();
        // An evacuation releases the tenant and freezes the host before
        // it re-places; a failed re-placement leaves it released.
        p.log.push(Mutation::ReleasePartial { topology: Arc::clone(&t.topology), assignment });
        p.log.push(Mutation::Quarantine { host });
        let Ok(ev) = evacuated else {
            p.failed += 1;
            digest.mark(FAIL);
            lost.push(i);
            continue;
        };
        let placement = ev.online.outcome.placement;
        let committed = session.commit(&t.topology, &placement);
        let t2 = Instant::now();
        if committed.is_err() {
            p.failed += 1;
            digest.mark(FAIL);
            lost.push(i);
            continue;
        }
        digest.placement(&placement);
        p.evacuate.push(t2 - t0);
        let root = tracer.span("session.evacuate", t.id, 0, t0, t1);
        tracer.span("session.commit", t.id, root, t1, t2);
        p.log.push(Mutation::Commit {
            topology: Arc::clone(&t.topology),
            placement: placement.clone(),
        });
        t.placement = placement;
    }
    for i in lost.into_iter().rev() {
        p.residents.swap_remove(i);
    }
    Instant::now()
}

fn wal_dir(spec: &Spec) -> std::path::PathBuf {
    out_dir().join(format!("wal-{}-{}", spec.name, std::process::id()))
}

/// Builds the world and a session over it, with the journal attached
/// and checkpointed. Returns the seconds the whole set-up took.
fn set_up<'w>(spec: &Spec, world: &'w World, built_in: Duration) -> (SchedulerSession<'w>, f64) {
    let t0 = Instant::now();
    let mut session = SchedulerSession::with_state(&world.infra, world.base.clone());
    let dir = wal_dir(spec);
    std::fs::create_dir_all(&dir).expect("create the journal directory");
    Wal::reset(&dir).expect("clear the journal directory");
    let (journal, _) =
        Wal::open(&dir, &world.infra, WalOptions::default()).expect("open the journal");
    session.attach_wal(journal);
    session.checkpoint().expect("checkpoint the base books");
    (session, (built_in + t0.elapsed()).as_secs_f64())
}

fn build(spec: &Spec) -> (World, Duration) {
    let t0 = Instant::now();
    let world = (spec.build)();
    (world, t0.elapsed())
}

/// What a measured pass leaves for the report: its decisions, books
/// checks and metrics.
struct Measured {
    pass: Pass,
    failures: Vec<String>,
    fleet_objective: f64,
    wal_records: u64,
    wal_snapshots: u64,
    recover_ms: f64,
}

fn measured_pass(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    setups: usize,
    setup_s: &mut Vec<f64>,
) -> Measured {
    // Extra set-ups only time the set-up; the last one is run. They
    // take turns on the CPUs, as the run's steps do.
    let mut rotation = Rotation::new();
    for _ in 1..setups {
        rotation.step();
        let (world, built_in) = build(spec);
        let (session, secs) = set_up(spec, &world, built_in);
        setup_s.push(secs);
        drop(session);
    }
    rotation.step();
    let (world, built_in) = build(spec);
    let (mut session, secs) = set_up(spec, &world, built_in);
    setup_s.push(secs);
    drop(rotation);

    let pass =
        drive(&mut session, spec, seed, Stop::After(Duration::from_secs_f64(seconds)), tracer);

    let mut failures = Vec::new();
    let replayed = replay(&world.infra, &world.base, &pass.log, &mut failures);
    if &replayed != session.state() {
        failures.push("commit-order replay differs from the session's final books".into());
    }
    let ledger: Vec<TenantRecord> = pass
        .residents
        .iter()
        .map(|t| TenantRecord {
            id: t.id,
            topology: Arc::clone(&t.topology),
            placement: t.placement.clone(),
        })
        .collect();
    let fleet_objective =
        FragStats::compute(&world.infra, session.state(), &ledger).fleet_objective;

    let (mut wal_records, mut wal_snapshots, mut recover_ms) = (0, 0, 0.0);
    if let Some(e) = session.take_wal_error() {
        failures.push(format!("journal error: {e}"));
    }
    if let Some(journal) = session.detach_wal() {
        wal_records = journal.seq();
        wal_snapshots = journal.snapshots_taken();
        drop(journal);
        let dir = wal_dir(spec);
        let t0 = Instant::now();
        match wal::recover(&dir, &world.infra) {
            Ok(recovered) => {
                recover_ms = t0.elapsed().as_secs_f64() * 1e3;
                if &recovered.state != session.state() {
                    failures.push("journal recovery differs from the final books".into());
                }
            }
            Err(e) => failures.push(format!("journal recovery failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    Measured { pass, failures, fleet_objective, wal_records, wal_snapshots, recover_ms }
}

/// Runs the workload; with `trace`, an untraced and a traced pass of
/// the same seed, reporting per-layer metrics from the traced one.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setup_s = Vec::new();
    let mut quiet = Tracer::new(false);
    let setups = if trace { 1 } else { crate::SETUPS };
    let m = measured_pass(spec, seed, seconds, &mut quiet, setups, &mut setup_s);
    let mut failures = m.failures;

    // The same seed must give the same decisions: compare against a
    // second pass, the traced one or a fresh bounded replay.
    let mut tracer = Tracer::new(trace);
    let (second, other) = if trace {
        let t = measured_pass(spec, seed, seconds, &mut tracer, 1, &mut Vec::new());
        failures.extend(t.failures.iter().cloned());
        let digests = t.pass.digests.clone();
        (Some(t), digests)
    } else {
        let steps = m.pass.digests.len().min(spec.replay_steps);
        let world = (spec.build)();
        let mut session = SchedulerSession::with_state(&world.infra, world.base.clone());
        let p = drive(&mut session, spec, seed, Stop::Steps(steps), &mut quiet);
        (None, p.digests)
    };
    let common = m.pass.digests.len().min(other.len());
    if common == 0 || m.pass.digests[..common] != other[..common] {
        failures.push(format!("same-seed runs made different decisions within {common} steps"));
    }

    let mut out = Outcome { setup_s, failures, ..Outcome::default() };
    let p = &m.pass;
    out.attempted = p.attempted;
    out.failed = p.failed;
    let window = p.window.as_secs_f64().max(1e-9);
    let committed = p.latency.len();
    out.e2e.add_dist("latency", &p.latency);
    out.e2e.add("goodput_rps", p.within_limit as f64 / window, "1/s", Some(committed));
    out.e2e.add("max_rate_rps", committed as f64 / window, "1/s", Some(committed));
    out.e2e.add("objective_mean", ratio(p.objective_sum, committed as f64), "u", Some(committed));
    out.e2e.add("fleet_objective_end", m.fleet_objective, "u", None);

    if let Some(t) = second {
        let tp = &t.pass;
        out.trace_overhead_ms = Some(tp.latency.p50() - p.latency.p50());
        let l = &mut out.layers;
        l.add("loadgen.lag_p90_ms", tp.lag.tail(), "ms", Some(tp.lag.len()));
        crate::serve::absent_service_layers(l);
        tp.search.report(l);
        l.add("session.place_p50_ms", tp.place.p50(), "ms", Some(tp.place.len()));
        l.add("session.pre_search_p50_ms", tp.pre_search.p50(), "ms", Some(tp.pre_search.len()));
        l.add("session.commit_p50_ms", tp.commit.p50(), "ms", Some(tp.commit.len()));
        l.add("session.release_p50_ms", tp.release.p50(), "ms", Some(tp.release.len()));
        l.add("session.evacuate_p50_ms", tp.evacuate.p50(), "ms", Some(tp.evacuate.len()));
        // The session syncs its journal only at snapshots.
        l.add("wal.syncs_per_commit", 0.0, "ratio", Some(0));
        let n = tp.log.len();
        let records = ratio(t.wal_records as f64, tp.log.len() as f64);
        l.add("wal.records_per_commit", records, "ratio", Some(n));
        l.add("wal.snapshots_taken", t.wal_snapshots as f64, "count", Some(n));
        l.add("wal.recover_ms", t.recover_ms, "ms", Some(n));
        out.spans = tracer;
    }
    out
}
