//! `serve_steady`: open-loop Poisson arrivals into
//! `PlacementService::serve`.
//!
//! The service runs the default configuration: one planner, batches of
//! eight, and a write-ahead journal with durable acknowledgements
//! (one group-commit fsync per batch). Tenants come from the recurring
//! four-shape catalog of `arrival_stream`'s default stream and are
//! placed by EG with single-threaded scoring, so the generator and the
//! planner use two cores between them.
//!
//! After an untimed prefill of `PREFILL` tenants, a steady phase offers
//! `STEADY_RPS`, low enough that queueing and batch waits do not
//! amplify changes in the machine's speed into swings of the median
//! (at 12 req/s the median moved from 22 to 62 ms between runs of
//! unchanged code while capacity moved 28%). Each arrival
//! is paired with the departure of a uniformly chosen resident, holding
//! occupancy at `PREFILL`. For the rest of the run the service is kept
//! saturated: the generator keeps `SATURATION_DEPTH` placements in
//! flight, with their departures, so the queue never empties and
//! batches fill. The rate at which placements then commit, counted up to
//! the end of the phase and not through the drain after it, is the
//! highest offered rate the service sustains without a growing backlog.
//!
//! Steady arrival instants are a Poisson process conditioned on its
//! count: uniform instants, sorted. The offered load is therefore
//! exactly the same on every seed. Shapes are dealt from a seeded deck
//! of `DEAL`, so every run offers the same mix.
//!
//! The generator never blocks on a ticket. A collector thread waits on
//! tickets in submission order, reading each one's delivery instant;
//! a departure whose arrival is not yet acknowledged is submitted by
//! the collector when the acknowledgement arrives.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ostro_core::{
    wal, FragStats, Placement, PlacementOutcome, PlacementRequest, PlacementService, PlanHook,
    SchedulerSession, ServiceConfig, ServiceHandle, ServiceResponse, ServiceStats, TenantRecord,
    Ticket, Wal, WalOptions,
};
use ostro_model::ApplicationTopology;
use ostro_sim::stream::{arrival_stream, StreamConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::check::{replay, Mutation};
use crate::cpus::{Rotation, PLANNER_TURN};
use crate::layers::SearchTotals;
use crate::report::{ratio, Dist, Report};
use crate::trace::Tracer;
use crate::world::{dc_1024, eg, out_dir, Deck, World};
use crate::Outcome;

/// Tenants resident before timing starts, and held during it.
const PREFILL: usize = 40;
/// The steady phase's offered rate, about a fifth of what the
/// service commits saturated on a two-core machine.
const STEADY_RPS: f64 = 8.0;
/// Catalog shapes per deal: the 25-VM multi-tier stack twice, every
/// other shape once. The median then falls inside one shape's
/// latencies instead of on the boundary between two of them.
const DEAL: [usize; 5] = [0, 0, 1, 2, 3];
/// Share of the run the steady phase takes; saturation gets the rest.
const STEADY_SHARE: f64 = 0.6;
/// Placements in flight while saturating: two full batches.
const SATURATION_DEPTH: usize = 16;
/// Saturation arrivals scheduled per second, more than the service
/// commits on a two-core machine.
const SATURATION_MAX_RPS: f64 = 250.0;
/// The latency limit for goodput.
const LIMIT_MS: f64 = 250.0;

#[derive(Clone, Copy)]
enum Event {
    Arrive(usize),
    Depart(usize),
}

/// The seeded schedule: each arrival's shape, the steady phase's events
/// at offsets from its start, and the saturation phase's events.
struct Schedule {
    shape_of: Vec<usize>,
    steady: Vec<(Duration, Event)>,
    saturation: Vec<Event>,
    saturation_secs: f64,
}

fn schedule(seed: u64, seconds: f64) -> Schedule {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E7E_0000);
    let mut deck = Deck::new(DEAL.len());
    let mut shape_of: Vec<usize> = (0..PREFILL).map(|_| DEAL[deck.draw(&mut rng)]).collect();
    let mut resident: Vec<usize> = (0..PREFILL).collect();

    let steady = seconds * STEADY_SHARE;
    let saturation_secs = seconds - steady;
    let n = (STEADY_RPS * steady).round() as usize;
    let mut steady_at: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..steady)).collect();
    steady_at.sort_by(f64::total_cmp);
    let saturation_at = vec![0.0; (SATURATION_MAX_RPS * saturation_secs).round() as usize];

    let mut phase = |at: Vec<f64>| {
        let mut events = Vec::with_capacity(2 * at.len());
        for t in at {
            let due = Duration::from_secs_f64(t);
            let id = shape_of.len();
            shape_of.push(DEAL[deck.draw(&mut rng)]);
            events.push((due, Event::Arrive(id)));
            let gone = resident.swap_remove(rng.gen_range(0..resident.len()));
            events.push((due, Event::Depart(gone)));
            resident.push(id);
        }
        events
    };
    let steady = phase(steady_at);
    let saturation = phase(saturation_at).into_iter().map(|(_, e)| e).collect();
    Schedule { shape_of, steady, saturation, saturation_secs }
}

enum Slot {
    /// Submitted and not yet acknowledged; `depart` once its departure
    /// came due.
    Pending {
        depart: bool,
    },
    Placed(Placement),
    Gone,
}

/// What the collector learns from one acknowledged placement.
struct Ack {
    id: usize,
    delivered: Instant,
    outcome: PlacementOutcome,
}

#[derive(Default)]
struct Collected {
    acks: Vec<Ack>,
    /// Acknowledged mutations with their commit sequence numbers.
    acked: Vec<(u64, Mutation)>,
    attempted: u64,
    failed: u64,
}

struct Shared {
    slots: Mutex<Vec<Slot>>,
    /// Submitted operations not yet resolved.
    outstanding: AtomicUsize,
    /// Of those, placements.
    placing: AtomicUsize,
}

enum Item {
    Place(usize),
    Release(usize, Placement),
}

fn release(
    handle: &ServiceHandle<'_, '_>,
    shared: &Shared,
    topology: &Arc<ApplicationTopology>,
    id: usize,
    placement: Placement,
) -> (Item, Ticket) {
    shared.outstanding.fetch_add(1, Ordering::SeqCst);
    let ticket = handle.submit_release(Arc::clone(topology), placement.clone());
    (Item::Release(id, placement), ticket)
}

/// Waits on every ticket in submission order until the generator hangs
/// up and nothing is left.
fn collect(
    handle: &ServiceHandle<'_, '_>,
    shared: &Shared,
    topologies: &[Arc<ApplicationTopology>],
    rx: mpsc::Receiver<(Item, Ticket)>,
) -> Collected {
    let mut c = Collected::default();
    let mut own: VecDeque<(Item, Ticket)> = VecDeque::new();
    while let Some((item, ticket)) = own.pop_front().or_else(|| rx.recv().ok()) {
        let (response, delivered) = ticket.wait_timed();
        c.attempted += 1;
        match (item, response) {
            (Item::Place(id), ServiceResponse::Placed(o)) => {
                shared.placing.fetch_sub(1, Ordering::SeqCst);
                let topology = &topologies[id];
                let placement = o.outcome.placement.clone();
                c.acked.push((
                    o.seq,
                    Mutation::Commit {
                        topology: Arc::clone(topology),
                        placement: placement.clone(),
                    },
                ));
                c.acks.push(Ack { id, delivered, outcome: o.outcome });
                let mut slots = shared.slots.lock().expect("slot lock poisoned");
                if let Slot::Pending { depart: true } = slots[id] {
                    slots[id] = Slot::Gone;
                    drop(slots);
                    own.push_back(release(handle, shared, topology, id, placement));
                } else {
                    slots[id] = Slot::Placed(placement);
                }
            }
            (Item::Place(id), _) => {
                shared.placing.fetch_sub(1, Ordering::SeqCst);
                c.failed += 1;
                shared.slots.lock().expect("slot lock poisoned")[id] = Slot::Gone;
            }
            (Item::Release(id, placement), ServiceResponse::Released { seq }) => {
                c.acked.push((
                    seq,
                    Mutation::Release { topology: Arc::clone(&topologies[id]), placement },
                ));
            }
            (Item::Release(..), _) => c.failed += 1,
        }
        shared.outstanding.fetch_sub(1, Ordering::SeqCst);
    }
    c
}

/// Sleeps until shortly before `due`, then spins: a sleeping thread
/// can wake milliseconds late on a virtual machine, and every such
/// millisecond would count as service latency.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(2);
    if let Some(ahead) = due.checked_duration_since(Instant::now()) {
        if ahead > SPIN {
            std::thread::sleep(ahead - SPIN);
        }
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Moves each of `threads` to its next CPU every `PLANNER_TURN` until
/// `done`, then gives them all their CPUs back.
fn rotate(mut threads: Vec<Rotation>, done: &AtomicBool) {
    while !done.load(Ordering::SeqCst) {
        threads.iter_mut().for_each(Rotation::step);
        std::thread::sleep(PLANNER_TURN);
    }
}

fn drain(shared: &Shared) {
    while shared.outstanding.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// What the generator saw: when each arrival was due and submitted,
/// its phase (0 steady, 1 saturation), and when saturation started.
struct Generated {
    due: Vec<Option<Instant>>,
    submitted: Vec<Option<Instant>>,
    phase_of: Vec<Option<usize>>,
    saturation_start: Instant,
    lag: Dist,
}

fn generate(
    handle: &ServiceHandle<'_, '_>,
    shared: &Shared,
    topologies: &[Arc<ApplicationTopology>],
    sched: &Schedule,
    request: &PlacementRequest,
    tx: mpsc::Sender<(Item, Ticket)>,
) -> Generated {
    let n = sched.shape_of.len();
    let mut g = Generated {
        due: vec![None; n],
        submitted: vec![None; n],
        phase_of: vec![None; n],
        saturation_start: Instant::now(),
        lag: Dist::default(),
    };
    let submit = |id: usize, g: &mut Generated, due: Instant| {
        shared.outstanding.fetch_add(1, Ordering::SeqCst);
        shared.placing.fetch_add(1, Ordering::SeqCst);
        let ticket = handle.submit(Arc::clone(&topologies[id]), request.clone());
        g.submitted[id] = Some(Instant::now());
        g.due[id] = Some(due);
        tx.send((Item::Place(id), ticket)).expect("collector hung up");
    };
    // Untimed prefill: one burst, then a full drain.
    let now = Instant::now();
    for id in 0..PREFILL {
        submit(id, &mut g, now);
    }
    drain(shared);

    let depart = |id: usize| {
        let mut slots = shared.slots.lock().expect("slot lock poisoned");
        match std::mem::replace(&mut slots[id], Slot::Gone) {
            Slot::Placed(p) => {
                drop(slots);
                tx.send(release(handle, shared, &topologies[id], id, p))
                    .expect("collector hung up");
            }
            Slot::Pending { .. } => slots[id] = Slot::Pending { depart: true },
            Slot::Gone => {}
        }
    };

    let start = Instant::now() + Duration::from_millis(5);
    for &(offset, event) in &sched.steady {
        let due = start + offset;
        wait_until(due);
        g.lag.push(Instant::now().saturating_duration_since(due));
        match event {
            Event::Arrive(id) => {
                g.phase_of[id] = Some(0);
                submit(id, &mut g, due);
            }
            Event::Depart(id) => depart(id),
        }
    }
    drain(shared);

    // Saturation: each arrival is due as soon as fewer than
    // `SATURATION_DEPTH` placements are in flight.
    g.saturation_start = Instant::now();
    let end = g.saturation_start + Duration::from_secs_f64(sched.saturation_secs);
    for &event in &sched.saturation {
        match event {
            Event::Arrive(id) => {
                while shared.placing.load(Ordering::SeqCst) >= SATURATION_DEPTH {
                    std::thread::sleep(Duration::from_micros(100));
                }
                let now = Instant::now();
                if now >= end {
                    break;
                }
                g.phase_of[id] = Some(1);
                submit(id, &mut g, now);
            }
            Event::Depart(id) => depart(id),
        }
    }
    drain(shared);
    g
}

/// One set-up: the data center, a journaled session checkpointed at
/// the base books, and the service around it.
fn set_up<'w>(world: &'w World, dir: &Path) -> PlacementService<'w> {
    Wal::reset(dir).expect("clear the journal directory");
    let (journal, _) = Wal::open(dir, &world.infra, WalOptions::default()).expect("open journal");
    let mut session = SchedulerSession::with_state(&world.infra, world.base.clone());
    session.attach_wal(journal);
    session.checkpoint().expect("checkpoint the base books");
    PlacementService::new(session, ServiceConfig::default())
}

struct Pass {
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    steady: Dist,
    /// From the first steady arrival's due instant to the last steady
    /// acknowledgement.
    steady_window: f64,
    /// Placements acknowledged within the saturation phase; the drain
    /// after it, when the queue empties, is not counted.
    saturation: usize,
    saturation_secs: f64,
    within_limit: usize,
    objective_sum: f64,
    fleet_objective: f64,
    search: SearchTotals,
    lag: Dist,
    queue_wait: Dist,
    commit_ack: Dist,
    stats: ServiceStats,
    mutations: u64,
    wal_records: u64,
    wal_snapshots: u64,
    recover_ms: f64,
}

fn pass(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    setups: usize,
    setup_s: &mut Vec<f64>,
) -> Pass {
    let dir = out_dir().join(format!("wal-serve_steady-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the journal directory");
    // Set-ups take turns on the CPUs; the service's threads, spawned
    // once the rotation is dropped, may run on any of them.
    let mut rotation = Rotation::new();
    for _ in 1..setups {
        rotation.step();
        let t0 = Instant::now();
        let world = dc_1024();
        let service = set_up(&world, &dir);
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(service);
    }
    rotation.step();
    let t0 = Instant::now();
    let world = dc_1024();
    let mut service = set_up(&world, &dir);
    setup_s.push(t0.elapsed().as_secs_f64());
    drop(rotation);

    let catalog =
        arrival_stream(&StreamConfig::default()).expect("catalog shapes are valid").shapes;
    let sched = schedule(seed, seconds);
    // One topology handle per arrival, so the plan hook can tell which
    // request a plan belongs to.
    let topologies: Vec<Arc<ApplicationTopology>> =
        sched.shape_of.iter().map(|&s| Arc::new(catalog[s].clone())).collect();
    let by_ptr: HashMap<usize, usize> =
        topologies.iter().enumerate().map(|(i, t)| (Arc::as_ptr(t) as usize, i)).collect();
    let plan_starts: Arc<Mutex<Vec<(usize, Instant)>>> = Arc::default();
    if tracer.on() {
        let starts = Arc::clone(&plan_starts);
        service.set_plan_hook(Some(PlanHook::new(move |t: &ApplicationTopology| {
            let at = Instant::now();
            starts.lock().expect("hook lock poisoned").push((t as *const _ as usize, at));
        })));
    }
    let request = eg(1);
    let shared = Shared {
        slots: Mutex::new((0..topologies.len()).map(|_| Slot::Pending { depart: false }).collect()),
        outstanding: AtomicUsize::new(0),
        placing: AtomicUsize::new(0),
    };
    let (generated, collected) = service.serve(|handle| {
        // The only other thread yet is the planner: it moves to the
        // next CPU every `PLANNER_TURN` until the generator is done.
        let planners = Rotation::others();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| rotate(planners, &done));
            let (tx, rx) = mpsc::channel();
            let collector = scope.spawn(|| collect(handle, &shared, &topologies, rx));
            let g = generate(handle, &shared, &topologies, &sched, &request, tx);
            done.store(true, Ordering::SeqCst);
            (g, collector.join().expect("collector panicked"))
        })
    });
    let stats = service.stats();
    let mut session = service.into_session();

    let mut failures = Vec::new();
    if stats.non_durable_acks != 0 {
        failures.push(format!("{} acknowledgements were not durable", stats.non_durable_acks));
    }
    if let Some(e) = session.take_wal_error() {
        failures.push(format!("journal error: {e}"));
    }
    let mut acked = collected.acked;
    acked.sort_by_key(|(seq, _)| *seq);
    if acked.windows(2).any(|w| w[0].0 == w[1].0) {
        failures.push("two acknowledged mutations share a commit sequence number".into());
    }
    let mutations = acked.len() as u64;
    let log: Vec<Mutation> = acked.into_iter().map(|(_, m)| m).collect();
    let replayed = replay(&world.infra, &world.base, &log, &mut failures);
    if &replayed != session.state() {
        failures.push("commit-order replay differs from the service's final books".into());
    }
    let (mut wal_records, mut wal_snapshots, mut recover_ms) = (0, 0, 0.0);
    if let Some(journal) = session.detach_wal() {
        wal_records = journal.seq();
        wal_snapshots = journal.snapshots_taken();
    }
    let t0 = Instant::now();
    match wal::recover(&dir, &world.infra) {
        Ok(r) => {
            recover_ms = t0.elapsed().as_secs_f64() * 1e3;
            if &r.state != session.state() {
                failures.push("journal recovery differs from the final books".into());
            }
        }
        Err(e) => failures.push(format!("journal recovery failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Residents at the end, for the fleet's fragmentation.
    let slots = shared.slots.into_inner().expect("slot lock poisoned");
    let ledger: Vec<TenantRecord> = slots
        .into_iter()
        .enumerate()
        .filter_map(|(id, s)| match s {
            Slot::Placed(placement) => Some(TenantRecord {
                id: id as u64,
                topology: Arc::clone(&topologies[id]),
                placement,
            }),
            _ => None,
        })
        .collect();
    let fleet_objective =
        FragStats::compute(&world.infra, session.state(), &ledger).fleet_objective;

    // Plan starts per request: the first and the last (after replans).
    let mut starts: HashMap<usize, (Instant, Instant)> = HashMap::new();
    for &(ptr, at) in plan_starts.lock().expect("hook lock poisoned").iter() {
        if let Some(&id) = by_ptr.get(&ptr) {
            starts.entry(id).or_insert((at, at)).1 = at;
        }
    }
    let limit = Duration::from_secs_f64(LIMIT_MS / 1e3);
    let mut p = Pass {
        failures,
        attempted: collected.attempted,
        failed: collected.failed,
        steady: Dist::default(),
        steady_window: 0.0,
        saturation: 0,
        saturation_secs: sched.saturation_secs,
        within_limit: 0,
        objective_sum: 0.0,
        fleet_objective,
        search: SearchTotals::default(),
        lag: generated.lag,
        queue_wait: Dist::default(),
        commit_ack: Dist::default(),
        stats,
        mutations,
        wal_records,
        wal_snapshots,
        recover_ms,
    };
    let mut window: Option<(Instant, Instant)> = None;
    for ack in &collected.acks {
        let (Some(k), Some(due)) = (generated.phase_of[ack.id], generated.due[ack.id]) else {
            continue; // prefill
        };
        let latency = ack.delivered.saturating_duration_since(due);
        if k == 1 {
            let since = ack.delivered.saturating_duration_since(generated.saturation_start);
            p.saturation += usize::from(since.as_secs_f64() < sched.saturation_secs);
            continue;
        }
        p.steady.push(latency);
        let (first, last) = window.get_or_insert((due, ack.delivered));
        *first = (*first).min(due);
        *last = (*last).max(ack.delivered);
        p.within_limit += usize::from(latency <= limit);
        p.objective_sum += ack.outcome.objective;
        p.search.add(&ack.outcome);
        let req = ack.id as u64;
        let submitted = generated.submitted[ack.id].unwrap_or(due);
        let root = tracer.span("request", req, 0, due, ack.delivered);
        tracer.span("loadgen.lag", req, root, due, submitted);
        if let Some(&(first, last)) = starts.get(&ack.id) {
            // The plan ends when its search does; the hook marks its start.
            let plan_end = last + ack.outcome.elapsed;
            p.queue_wait.push(first.saturating_duration_since(submitted));
            p.commit_ack.push(ack.delivered.saturating_duration_since(plan_end));
            tracer.span("service.queue_wait", req, root, submitted, first);
            let plan = tracer.span("service.plan", req, root, last, plan_end);
            tracer.span("search", req, plan, last, plan_end);
            tracer.span("service.commit_ack", req, root, plan_end, ack.delivered);
        }
    }
    p.steady_window = window.map_or(0.0, |(a, b)| (b - a).as_secs_f64());
    p
}

/// Per-layer metrics the closed-loop workloads have no service for.
pub fn absent_service_layers(l: &mut Report) {
    for name in ["service.queue_wait", "service.commit_ack"] {
        l.add_dist(name, &Dist::default());
    }
    l.add("service.batch_size_mean", 0.0, "count", Some(0));
    l.add("service.plan_useful_ratio", 0.0, "ratio", Some(0));
    l.add("service.snapshots_per_commit", 0.0, "ratio", Some(0));
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setup_s = Vec::new();
    let mut quiet = Tracer::new(false);
    let setups = if trace { 1 } else { crate::SETUPS };
    let p = pass(seed, seconds, &mut quiet, setups, &mut setup_s);
    let mut out = Outcome { setup_s, failures: p.failures.clone(), ..Outcome::default() };
    out.attempted = p.attempted;
    out.failed = p.failed;
    let n = p.steady.len();
    out.e2e.add_dist("latency", &p.steady);
    let goodput = ratio(p.within_limit as f64, p.steady_window);
    out.e2e.add("goodput_rps", goodput, "1/s", Some(n));
    let rate = ratio(p.saturation as f64, p.saturation_secs);
    out.e2e.add("max_rate_rps", rate, "1/s", Some(p.saturation));
    out.e2e.add("objective_mean", ratio(p.objective_sum, n as f64), "u", Some(n));
    out.e2e.add("fleet_objective_end", p.fleet_objective, "u", None);

    if trace {
        let mut tracer = Tracer::new(true);
        let t = pass(seed, seconds, &mut tracer, 1, &mut Vec::new());
        out.failures.extend(t.failures.iter().cloned());
        out.trace_overhead_ms = Some(t.steady.p50() - p.steady.p50());
        let l = &mut out.layers;
        let m = t.mutations as usize;
        let per_mutation = |x: u64| ratio(x as f64, m as f64);
        let s = &t.stats;
        l.add("loadgen.lag_p90_ms", t.lag.tail(), "ms", Some(t.lag.len()));
        l.add_dist("service.queue_wait", &t.queue_wait);
        l.add_dist("service.commit_ack", &t.commit_ack);
        let batches: u64 = s.batch_sizes.iter().sum();
        let members: u64 = s.batch_sizes.iter().enumerate().map(|(k, &n)| k as u64 * n).sum();
        let batch_mean = ratio(members as f64, batches as f64);
        l.add("service.batch_size_mean", batch_mean, "count", Some(batches as usize));
        let useful = ratio(s.committed as f64, (s.committed + s.replans) as f64);
        l.add("service.plan_useful_ratio", useful, "ratio", Some(s.committed as usize));
        l.add(
            "service.snapshots_per_commit",
            per_mutation(s.snapshots_published),
            "ratio",
            Some(m),
        );
        t.search.report(l);
        for name in ["place", "pre_search", "commit", "release", "evacuate"] {
            l.add(&format!("session.{name}_p50_ms"), 0.0, "ms", Some(0));
        }
        l.add("wal.syncs_per_commit", per_mutation(s.wal_syncs), "ratio", Some(m));
        l.add("wal.records_per_commit", per_mutation(t.wal_records), "ratio", Some(m));
        l.add("wal.snapshots_taken", t.wal_snapshots as f64, "count", Some(m));
        l.add("wal.recover_ms", t.recover_ms, "ms", Some(m));
        out.spans = tracer;
    }
    out
}
