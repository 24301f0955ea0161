//! The placement service: a single writer that owns one
//! [`SchedulerSession`] and admits a queue of placements and releases
//! in order.
//!
//! [`PlacementService::serve`] runs one writer thread behind a FIFO
//! ingress queue. The writer pops up to [`ServiceConfig::batch`] jobs
//! and handles them as one admission batch, in queue order, against
//! the live books:
//!
//! 1. a placement whose deadline budget already ran out in the queue is
//!    shed, and under overload the degrade ladder may swap its search
//!    for a cheaper one;
//! 2. the [`PlanHook`] and [`SchedulerSession::place`] run inside
//!    `catch_unwind`, so a panicking plan becomes a typed error;
//! 3. the decision is applied with [`SchedulerSession::commit`] (a
//!    release with [`SchedulerSession::release`]) and takes the next
//!    commit sequence number;
//! 4. after the last member, one group-commit fsync covers the whole
//!    batch ([`ServiceConfig::durable_acks`]) under the
//!    [`DurabilityPolicy`]. Only then are the batch's acks delivered,
//!    so a delivered `Placed` is durable.
//!
//! Each member plans on books that already hold every earlier
//! member's commit or release, so decisions are exactly those of a
//! warm session serving the same requests one at a time, at any batch
//! size — `scripts/verify.sh` diffs the two decision digests on every
//! run. Parallelism lives inside a request: each request keeps its own
//! [`PlacementRequest::parallel`] and
//! [`PlacementRequest::score_threads`].
//!
//! # What the service guarantees
//!
//! Mutations are **linearized** by the commit sequence number: the
//! final books equal a serial replay of the acknowledged commits and
//! releases in sequence order over the base state, and every decision
//! was feasible at its commit point. With a WAL attached the journal
//! records them in the same order, so recovery after a crash
//! reproduces at least every acknowledged mutation.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ostro_datacenter::Infrastructure;
use ostro_model::ApplicationTopology;
use serde::{Deserialize, Serialize};

use crate::deadline::BudgetStamp;
use crate::defrag::{MaintenanceLoad, MaintenancePlane, MaintenanceTick, TenantRecord};
use crate::error::PlacementError;
use crate::placement::{Placement, PlacementOutcome};
use crate::pool::lock_unpoisoned;
use crate::request::PlacementRequest;
use crate::session::SchedulerSession;
use crate::wal::WalMark;

/// Tuning for a [`PlacementService`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Maximum jobs the writer admits as one batch (one group-commit
    /// fsync).
    pub batch: usize,
    /// When a WAL is attached: fsync once per admission batch,
    /// *before* responses are delivered, so an acknowledged commit is
    /// durable (group commit). Without a WAL this is a no-op.
    pub durable_acks: bool,
    /// Bound on the ingress queue [`serve`](PlacementService::serve)
    /// runs behind: a placement submitted while this many jobs are
    /// already queued is shed at the door with
    /// [`PlacementError::QueueFull`]. Releases are always admitted —
    /// shedding a release would leak capacity. `0` (the default) is
    /// the legacy unbounded queue.
    #[serde(default)]
    pub queue_depth: usize,
    /// Per-request deadline budget in milliseconds: a placement that
    /// has already waited this long in the ingress queue is shed
    /// before planning with [`PlacementError::DeadlineExceeded`]. `0`
    /// (the default) disables budgets.
    #[serde(default)]
    pub deadline_ms: u64,
    /// Virtual microseconds one submission tick represents. `0` (the
    /// default) measures queue age on the wall clock; non-zero
    /// replaces it with the service's submission-tick counter — the
    /// queue-level analogue of the search's virtual deadline clock —
    /// so deadline shedding becomes a pure function of the submission
    /// schedule (what the chaos harness's bit-identity drills need).
    #[serde(default)]
    pub virtual_tick_us: u64,
    /// Load-aware degraded-mode policy: step planning down the engine
    /// ladder as queue depth rises. Disabled by default.
    #[serde(default)]
    pub degrade: DegradePolicy,
    /// What a group commit does when the WAL fails under it. The
    /// default keeps the legacy fail-stop behavior (acks continue
    /// non-durably; the latched error surfaces via
    /// [`SchedulerSession::take_wal_error`]).
    #[serde(default)]
    pub wal_policy: DurabilityPolicy,
    /// With [`DurabilityPolicy::Reject`]: fsync retries before the
    /// batch is rolled back (retries only run when every append
    /// landed and just the fsync failed).
    #[serde(default)]
    pub wal_retries: u32,
    /// With [`DurabilityPolicy::Reject`]: base backoff between fsync
    /// retries in milliseconds, doubling per attempt and capped at 8×.
    /// `0` (the default) retries immediately — what deterministic
    /// tests and the virtual-clock chaos drills use.
    #[serde(default)]
    pub wal_backoff_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            batch: 8,
            durable_acks: true,
            queue_depth: 0,
            deadline_ms: 0,
            virtual_tick_us: 0,
            degrade: DegradePolicy::default(),
            wal_policy: DurabilityPolicy::default(),
            wal_retries: 0,
            wal_backoff_ms: 0,
        }
    }
}

/// The load-aware degraded-mode policy: as the ingress queue deepens,
/// planning steps down the engine ladder — first capping the A\*
/// tiers' expansion budgets, then dropping to the greedy EG floor —
/// and climbs back up with hysteresis as the backlog drains.
///
/// The ladder has three rungs, keyed off the queue depth the writer
/// observes when it wakes: **normal** (the requested algorithm,
/// untouched), **capped** (depth ≥ [`high`](Self::high):
/// `max_expansions` tightened to [`cap_expansions`](Self::cap_expansions)),
/// and **floor** (depth ≥ [`floor`](Self::floor): A\* tiers replaced
/// by greedy EG). Recovery is sticky: a capped service returns to
/// normal only at depth ≤ [`low`](Self::low), and the floor steps
/// back to capped only at depth ≤ [`high`](Self::high) — the
/// hysteresis that keeps the ladder from thrashing at a threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradePolicy {
    /// Master switch; `false` (the default) never degrades.
    pub enabled: bool,
    /// Queue depth at or above which planning enters the capped tier.
    pub high: usize,
    /// Queue depth at or below which a degraded service returns to
    /// normal (hysteresis low-water mark; keep `low < high`).
    pub low: usize,
    /// Queue depth at or above which planning drops to the greedy
    /// floor (keep `floor > high`).
    pub floor: usize,
    /// The expansion budget the capped tier imposes on the A\* tiers
    /// (never loosening a tighter request-level cap).
    pub cap_expansions: u64,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy { enabled: false, high: 16, low: 4, floor: 64, cap_expansions: 4_096 }
    }
}

/// What a group commit does when the WAL fails under it (an append
/// error during the batch, or the group-commit fsync itself).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DurabilityPolicy {
    /// Legacy fail-stop journaling: the first WAL error latches, the
    /// service keeps acknowledging *non-durably*, and the typed error
    /// surfaces through [`SchedulerSession::take_wal_error`] (the CLI
    /// reports it loudly). Recovery replays the consistent prefix up
    /// to the fault.
    #[default]
    Degrade,
    /// Never acknowledge what is not durable: retry the fsync with
    /// bounded, capped backoff ([`ServiceConfig::wal_retries`] /
    /// [`ServiceConfig::wal_backoff_ms`]); if the journal still cannot
    /// be completed, roll the books back, rewind the journal to the
    /// pre-batch mark, and fail every acknowledgement of the batch
    /// with [`PlacementError::Durability`]. A maintenance tick that
    /// cannot be journaled is rolled back the same way. The journal
    /// heals in place, so the service keeps serving once the disk
    /// recovers.
    Reject,
}

/// A committed placement: the decision plus its position in the
/// service's total commit order.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// Commit sequence number — the service's total order. Replaying
    /// committed decisions in `seq` order over the base state
    /// reproduces the books exactly.
    pub seq: u64,
    /// The decision and search metrics.
    pub outcome: PlacementOutcome,
}

/// Cumulative service counters, serialized into `ostro serve` output
/// and the service benchmark artifact.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Placements committed.
    pub committed: u64,
    /// Tenants released.
    pub released: u64,
    /// Requests rejected (planning failed against current books).
    pub rejected: u64,
    /// Always 0: the single writer plans against the live books and
    /// never re-plans. Kept for the end-to-end benchmark's per-layer
    /// report, which reads it.
    pub replans: u64,
    /// Batches popped by the writer.
    pub batches: u64,
    /// Histogram of batch sizes: `batch_sizes[n]` batches held exactly
    /// `n` jobs.
    pub batch_sizes: Vec<u64>,
    /// Always 0: the single writer publishes no snapshots. Kept for
    /// the end-to-end benchmark's per-layer report, which reads it.
    pub snapshots_published: u64,
    /// Group-commit WAL fsyncs issued.
    pub wal_syncs: u64,
    /// Placements shed at the door: the bounded ingress queue was full.
    #[serde(default)]
    pub shed_queue_full: u64,
    /// Placements shed before planning: their deadline budget was
    /// already spent waiting in the queue.
    #[serde(default)]
    pub shed_deadline: u64,
    /// Planner panics contained by `catch_unwind` (each surfaced as a
    /// typed [`PlacementError::PlannerPanic`], never a poisoned
    /// service).
    #[serde(default)]
    pub planner_panics: u64,
    /// Placements solved by a degraded (capped or greedy-floor)
    /// search instead of the requested algorithm.
    #[serde(default)]
    pub degraded_decisions: u64,
    /// Degrade-ladder level changes (in either direction).
    #[serde(default)]
    pub degraded_transitions: u64,
    /// Group commits that observed a WAL failure (whatever the
    /// durability policy then did about it).
    #[serde(default)]
    pub wal_faults: u64,
    /// Fsync retries issued by [`DurabilityPolicy::Reject`].
    #[serde(default)]
    pub wal_retry_syncs: u64,
    /// Acknowledgements delivered *non-durably* after a WAL failure
    /// under [`DurabilityPolicy::Degrade`] (or when a rewind was
    /// impossible).
    #[serde(default)]
    pub non_durable_acks: u64,
    /// Acknowledgements converted to [`PlacementError::Durability`]
    /// rejections by [`DurabilityPolicy::Reject`] (books rolled back,
    /// journal rewound).
    #[serde(default)]
    pub durability_rejections: u64,
    /// Pods scored by the sharded coarse stage, summed over requests
    /// (zero unless requests set `shard`).
    #[serde(default)]
    pub pods_scanned: u64,
    /// Pods the coarse stage pruned before exact search, summed over
    /// requests.
    #[serde(default)]
    pub pods_pruned: u64,
    /// Sharded requests that fell back to the plain unsharded search.
    #[serde(default)]
    pub shard_fallbacks: u64,
    /// Maintenance-plane ticks run through [`PlacementService::maintain`].
    #[serde(default)]
    pub maintenance_ticks: u64,
    /// Tenant migrations the maintenance plane applied (drains +
    /// defrag moves), each journaled as one atomic WAL record.
    #[serde(default)]
    pub maintenance_migrations: u64,
    /// Defrag sweeps that yielded to foreground load (queue depth or
    /// an elevated degrade-ladder rung).
    #[serde(default)]
    pub maintenance_yields: u64,
}

/// The writer's state: the session and the commit sequence number.
#[derive(Debug)]
struct Authority<'a> {
    session: SchedulerSession<'a>,
    seq: u64,
}

impl Authority<'_> {
    fn apply_commit(
        &mut self,
        topology: &ApplicationTopology,
        placement: &Placement,
    ) -> Result<u64, PlacementError> {
        self.session.commit(topology, placement)?;
        self.seq += 1;
        Ok(self.seq)
    }

    fn apply_release(
        &mut self,
        topology: &ApplicationTopology,
        placement: &Placement,
    ) -> Result<u64, PlacementError> {
        self.session.release(topology, placement)?;
        self.seq += 1;
        Ok(self.seq)
    }
}

/// The placement service. See the module docs for the admission path
/// and [`serve`](Self::serve) for the queue front-end.
#[derive(Debug)]
pub struct PlacementService<'a> {
    infra: &'a Infrastructure,
    authority: Mutex<Authority<'a>>,
    stats: Mutex<ServiceStats>,
    config: ServiceConfig,
    /// Current degrade-ladder rung (one of the `LEVEL_*` constants).
    degrade_level: AtomicU8,
    /// Submission-tick counter for the virtual admission clock.
    ticks: AtomicU64,
    plan_hook: Option<PlanHook>,
}

/// Degrade-ladder rungs (see [`DegradePolicy`]).
const LEVEL_NORMAL: u8 = 0;
const LEVEL_CAPPED: u8 = 1;
const LEVEL_FLOOR: u8 = 2;

/// An injectable planner hook, called before every plan with the
/// topology about to be solved. The chaos harness uses it to inject
/// planner panics (a panicking hook is exactly a panicking search, and
/// must be contained the same way) and latency spikes (a sleeping
/// hook). Production services have none.
#[derive(Clone)]
pub struct PlanHook(Arc<dyn Fn(&ApplicationTopology) + Send + Sync>);

impl PlanHook {
    /// Wraps a hook closure.
    pub fn new(f: impl Fn(&ApplicationTopology) + Send + Sync + 'static) -> Self {
        PlanHook(Arc::new(f))
    }

    fn call(&self, topology: &ApplicationTopology) {
        (self.0)(topology);
    }
}

impl fmt::Debug for PlanHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PlanHook(..)")
    }
}

/// Renders a contained panic payload for the typed per-request error.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl<'a> PlacementService<'a> {
    /// Wraps `session` in the service.
    #[must_use]
    pub fn new(session: SchedulerSession<'a>, config: ServiceConfig) -> Self {
        PlacementService {
            infra: session.infrastructure(),
            authority: Mutex::new(Authority { session, seq: 0 }),
            stats: Mutex::new(ServiceStats::default()),
            config,
            degrade_level: AtomicU8::new(LEVEL_NORMAL),
            ticks: AtomicU64::new(0),
            plan_hook: None,
        }
    }

    /// Installs (or clears) the planner hook consulted before every
    /// plan — the chaos harness's panic/latency injection point.
    pub fn set_plan_hook(&mut self, hook: Option<PlanHook>) {
        self.plan_hook = hook;
    }

    /// The current degrade-ladder rung: 0 = normal, 1 = capped,
    /// 2 = greedy floor.
    #[must_use]
    pub fn degrade_level(&self) -> u8 {
        self.degrade_level.load(Ordering::Relaxed)
    }

    /// Stamps a submission on whichever admission clock the service
    /// runs (see [`ServiceConfig::virtual_tick_us`]).
    fn stamp(&self) -> BudgetStamp {
        if self.config.virtual_tick_us > 0 {
            BudgetStamp::Tick(self.ticks.fetch_add(1, Ordering::Relaxed))
        } else {
            BudgetStamp::Wall(Instant::now())
        }
    }

    /// Milliseconds a stamped job has spent in the ingress queue.
    fn budget_elapsed_ms(&self, stamp: BudgetStamp) -> u64 {
        match stamp {
            BudgetStamp::Wall(at) => at.elapsed().as_millis().try_into().unwrap_or(u64::MAX),
            BudgetStamp::Tick(at) => {
                let now = self.ticks.load(Ordering::Relaxed);
                now.saturating_sub(at) * self.config.virtual_tick_us / 1_000
            }
        }
    }

    /// Steps the degrade ladder for an observed queue depth (called by
    /// the writer as it wakes), with the hysteresis described on
    /// [`DegradePolicy`]. Returns the level planning should run at.
    fn update_degrade(&self, depth: usize) -> u8 {
        let policy = &self.config.degrade;
        if !policy.enabled {
            return LEVEL_NORMAL;
        }
        let current = self.degrade_level.load(Ordering::Relaxed);
        let next = match current {
            LEVEL_NORMAL => {
                if depth >= policy.floor {
                    LEVEL_FLOOR
                } else if depth >= policy.high {
                    LEVEL_CAPPED
                } else {
                    LEVEL_NORMAL
                }
            }
            LEVEL_CAPPED => {
                if depth >= policy.floor {
                    LEVEL_FLOOR
                } else if depth <= policy.low {
                    LEVEL_NORMAL
                } else {
                    LEVEL_CAPPED
                }
            }
            _ => {
                if depth <= policy.low {
                    LEVEL_NORMAL
                } else if depth <= policy.high {
                    LEVEL_CAPPED
                } else {
                    LEVEL_FLOOR
                }
            }
        };
        if next != current
            && self
                .degrade_level
                .compare_exchange(current, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.note(|st| st.degraded_transitions += 1);
        }
        next
    }

    /// The request `level` actually plans with: `None` when the rung
    /// leaves it untouched (normal level, or an engine already at or
    /// below the rung's tier).
    fn degraded_request(&self, request: &PlacementRequest, level: u8) -> Option<PlacementRequest> {
        if level == LEVEL_NORMAL {
            return None;
        }
        let mut req = request.clone();
        let changed = if level == LEVEL_CAPPED {
            req.cap_search(self.config.degrade.cap_expansions)
        } else {
            req.floor_search()
        };
        changed.then_some(req)
    }

    /// The service's configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The infrastructure the service places onto.
    #[must_use]
    pub fn infrastructure(&self) -> &'a Infrastructure {
        self.infra
    }

    /// The current commit sequence number.
    #[must_use]
    pub fn seq(&self) -> u64 {
        lock_unpoisoned(&self.authority).seq
    }

    /// A copy of the cumulative service counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        lock_unpoisoned(&self.stats).clone()
    }

    /// Consumes the service, returning the session with every commit
    /// applied.
    #[must_use]
    pub fn into_session(self) -> SchedulerSession<'a> {
        let authority = match self.authority.into_inner() {
            Ok(a) => a,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut session = authority.session;
        session.refresh();
        session
    }

    fn note(&self, f: impl FnOnce(&mut ServiceStats)) {
        f(&mut lock_unpoisoned(&self.stats));
    }

    /// Runs one maintenance-plane tick against the live books,
    /// serialized with admission batches. The plane sees the caller's
    /// `queue_depth` and the current degrade-ladder rung, so sweeps
    /// yield whenever foreground traffic is already struggling. A tick
    /// that touched the books takes the next commit sequence number
    /// and goes through the same group commit as a batch: one fsync
    /// covers every record it journaled, under the
    /// [`DurabilityPolicy`]. Under [`DurabilityPolicy::Reject`] a tick
    /// the journal could not take is undone — books, `ledger` and
    /// `plane` return to their state before the tick, the journal is
    /// rewound — and reported as a tick that did nothing.
    pub fn maintain(
        &self,
        plane: &mut MaintenancePlane,
        ledger: &mut Vec<TenantRecord>,
        tick: u64,
        queue_depth: usize,
    ) -> MaintenanceTick {
        let load = MaintenanceLoad { queue_depth, degrade_level: self.degrade_level() };
        let mut authority = lock_unpoisoned(&self.authority);
        let session = &mut authority.session;
        // Drain pending summary updates so the dirty-host journal
        // afterwards holds exactly what the tick touched.
        session.refresh();
        let mark = session.wal_mark();
        let undoable = self.config.durable_acks
            && self.config.wal_policy == DurabilityPolicy::Reject
            && mark.is_some();
        let before = undoable.then(|| (session.save_books(), ledger.clone(), plane.clone()));
        let mut report = plane.tick(session, ledger, tick, load);
        if !session.pending_dirty_hosts().is_empty() {
            let failed = self.sync_locked(session, mark, 0, |session| {
                if let Some((books, saved_ledger, saved_plane)) = before {
                    session.restore_books(books);
                    *ledger = saved_ledger;
                    *plane = saved_plane;
                }
            });
            match failed {
                Some(_) => report = MaintenanceTick::default(),
                None => authority.seq += 1,
            }
        }
        self.note(|st| {
            st.maintenance_ticks += 1;
            st.maintenance_migrations += u64::from(report.migrations);
            if report.yielded {
                st.maintenance_yields += 1;
            }
        });
        report
    }

    /// Group-commit point: fsync the WAL once for everything the
    /// writer applied since `mark`, before any response is delivered.
    ///
    /// `mark` is the journal position captured before the first
    /// append, `acks` how many acknowledgements ride on this sync, and
    /// `undo` a books-only rollback of everything applied since the
    /// mark. On a WAL failure the [`DurabilityPolicy`] decides:
    /// `Degrade` keeps the acknowledgements (counted non-durable; the
    /// latched error stays loud via
    /// [`SchedulerSession::take_wal_error`]); `Reject` retries the
    /// fsync, then runs `undo`, rewinds the journal to `mark`, and
    /// returns the typed error the caller must convert the
    /// acknowledgements into.
    fn sync_locked(
        &self,
        session: &mut SchedulerSession<'a>,
        mark: Option<WalMark>,
        acks: u64,
        undo: impl FnOnce(&mut SchedulerSession<'a>),
    ) -> Option<PlacementError> {
        if !self.config.durable_acks {
            return None;
        }
        // An error latched before the fsync means an append failed.
        let appends_landed = session.wal_error().is_none();
        session.sync_wal();
        self.note(|st| st.wal_syncs += 1);
        session.wal_error()?;
        self.note(|st| st.wal_faults += 1);
        match self.config.wal_policy {
            DurabilityPolicy::Degrade => {
                self.note(|st| st.non_durable_acks += acks);
                None
            }
            DurabilityPolicy::Reject => {
                let mark = mark?;
                // Retrying the fsync only helps when every append
                // landed; a missing append means the journal cannot be
                // completed, only rewound.
                if appends_landed {
                    for attempt in 0..self.config.wal_retries {
                        self.backoff(attempt);
                        self.note(|st| st.wal_retry_syncs += 1);
                        if session.retry_sync() {
                            return None;
                        }
                    }
                }
                if !session.wal_can_rewind(&mark) {
                    // A snapshot compaction ran mid-batch, so part of
                    // the batch is already durably in the snapshot —
                    // rolling back would contradict durable state.
                    // Degrade these acknowledgements instead.
                    self.note(|st| st.non_durable_acks += acks);
                    return None;
                }
                let reason = match session.wal_error() {
                    Some(e) => e.to_string(),
                    None => "journal unavailable".to_string(),
                };
                // Books-only rollback: the fail-stop latch keeps these
                // inverse mutations out of the journal; the rewind then
                // erases the batch's records and clears the latch, so
                // journal and books agree again and the service keeps
                // serving durably once the disk recovers.
                undo(session);
                let _ = session.wal_rewind(&mark);
                self.note(|st| st.durability_rejections += acks);
                Some(PlacementError::Durability { reason })
            }
        }
    }

    /// Capped doubling backoff between fsync retries.
    fn backoff(&self, attempt: u32) {
        if self.config.wal_backoff_ms > 0 {
            let factor = 1u64 << attempt.min(3);
            std::thread::sleep(Duration::from_millis(self.config.wal_backoff_ms * factor));
        }
    }

    /// Plans `topology` warm against the live books and commits the
    /// decision. A panicking search (or hook) is contained as a typed
    /// [`PlacementError::PlannerPanic`]; planning only reads the books,
    /// so an unwind leaves them untouched.
    fn place_locked(
        &self,
        authority: &mut Authority<'a>,
        topology: &ApplicationTopology,
        request: &PlacementRequest,
    ) -> Result<(u64, PlacementOutcome), PlacementError> {
        let planned = catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = &self.plan_hook {
                hook.call(topology);
            }
            authority.session.place(topology, request)
        }));
        let outcome = match planned {
            Ok(result) => result?,
            Err(payload) => {
                self.note(|st| st.planner_panics += 1);
                return Err(PlacementError::PlannerPanic {
                    reason: panic_reason(payload.as_ref()),
                });
            }
        };
        let stats = &outcome.stats;
        if stats.pods_scanned != 0 || stats.shard_fallbacks != 0 {
            let (scanned, pruned, fallbacks) =
                (stats.pods_scanned, stats.pods_pruned, stats.shard_fallbacks);
            self.note(|st| {
                st.pods_scanned += scanned;
                st.pods_pruned += pruned;
                st.shard_fallbacks += fallbacks;
            });
        }
        let seq = authority.apply_commit(topology, &outcome.placement)?;
        Ok((seq, outcome))
    }

    /// Runs the service front-end: spawns the writer thread behind a
    /// FIFO queue, hands `driver` a [`ServiceHandle`] to submit jobs
    /// through, and drains the queue before returning `driver`'s
    /// result. Every submitted ticket is resolved by then.
    pub fn serve<R>(&self, driver: impl FnOnce(&ServiceHandle<'_, 'a>) -> R) -> R {
        let shared = ServeShared {
            queue: Mutex::new(ServeQueue { jobs: VecDeque::new(), closed: false }),
            cv: Condvar::new(),
        };
        let result = std::thread::scope(|scope| {
            scope.spawn(|| self.writer_loop(&shared));
            // Close the queue when the driver returns *or unwinds* —
            // otherwise the writer would wait forever and the scope
            // would never join.
            let _close = CloseGuard(&shared);
            let handle = ServiceHandle { service: self, shared: &shared };
            driver(&handle)
        });
        // Graceful shutdown: the scope joining means the writer drained
        // the queue and exited; one final fsync makes the tail durable
        // even without `durable_acks` (which already synced per
        // batch). Not counted as a group-commit sync.
        lock_unpoisoned(&self.authority).session.sync_wal();
        result
    }

    fn writer_loop(&self, shared: &ServeShared) {
        loop {
            let (batch, depth): (Vec<Job>, usize) = {
                let mut queue = lock_unpoisoned(&shared.queue);
                loop {
                    if !queue.jobs.is_empty() {
                        break;
                    }
                    if queue.closed {
                        return;
                    }
                    queue = match shared.cv.wait(queue) {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
                let depth = queue.jobs.len();
                let take = depth.min(self.config.batch.max(1));
                (queue.jobs.drain(..take).collect(), depth)
            };
            self.update_degrade(depth);
            // Safety net under the whole batch: planning panics are
            // already contained in `place_locked`, but nothing that
            // panics may strand a ticket — the driver would hang on it
            // forever. Tickets the batch resolved keep their response;
            // the rest get the typed panic error.
            let tickets: Vec<Arc<TicketInner>> = batch.iter().map(Job::ticket).collect();
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.process_batch(batch))) {
                let reason = panic_reason(payload.as_ref());
                self.note(|st| st.planner_panics += 1);
                for ticket in &tickets {
                    deliver_if_empty(
                        ticket,
                        ServiceResponse::Failed(PlacementError::PlannerPanic {
                            reason: reason.clone(),
                        }),
                    );
                }
            }
        }
    }

    /// One admission batch: every member in queue order against the
    /// live books, one group-commit fsync, then the acks.
    fn process_batch(&self, batch: Vec<Job>) {
        self.note(|st| {
            st.batches += 1;
            if st.batch_sizes.len() <= batch.len() {
                st.batch_sizes.resize(batch.len() + 1, 0);
            }
            st.batch_sizes[batch.len()] += 1;
        });
        let level = self.degrade_level.load(Ordering::Relaxed);
        // Under the Reject policy every applied mutation records its
        // inverse so a failed group commit can roll the whole batch
        // back off the books.
        let log_undo = self.config.wal_policy == DurabilityPolicy::Reject;
        let mut undo_log: Vec<(Arc<ApplicationTopology>, Placement, bool)> = Vec::new();
        let mut acks: Vec<(Arc<TicketInner>, ServiceResponse)> = Vec::with_capacity(batch.len());
        let (mut committed, mut released, mut rejected) = (0u64, 0u64, 0u64);
        let (mut shed_deadline, mut degraded_decisions) = (0u64, 0u64);

        let mut authority = lock_unpoisoned(&self.authority);
        let mark = authority.session.wal_mark();
        for job in batch {
            match job {
                Job::Release { topology, placement, ticket } => {
                    match authority.apply_release(&topology, &placement) {
                        Ok(seq) => {
                            released += 1;
                            if log_undo {
                                undo_log.push((topology, placement, false));
                            }
                            acks.push((ticket, ServiceResponse::Released { seq }));
                        }
                        Err(e) => {
                            rejected += 1;
                            acks.push((ticket, ServiceResponse::Failed(e)));
                        }
                    }
                }
                Job::Place { topology, request, ticket, stamp } => {
                    // Deadline shed: a request whose budget was already
                    // burned waiting in the queue gets a typed error
                    // *before* any planning work is spent on it.
                    let budget_ms = self.config.deadline_ms;
                    if budget_ms > 0 && self.budget_elapsed_ms(stamp) >= budget_ms {
                        shed_deadline += 1;
                        let shed = PlacementError::DeadlineExceeded { budget_ms };
                        acks.push((ticket, ServiceResponse::Failed(shed)));
                        continue;
                    }
                    // Engine-ladder degradation: under overload the
                    // request plans with a cheaper search than it asked
                    // for, flagged in its stats.
                    let degraded = self.degraded_request(&request, level);
                    degraded_decisions += u64::from(degraded.is_some());
                    let request = degraded.as_ref().unwrap_or(&request);
                    match self.place_locked(&mut authority, &topology, request) {
                        Ok((seq, mut outcome)) => {
                            committed += 1;
                            outcome.stats.degraded |= degraded.is_some();
                            if log_undo {
                                undo_log.push((topology, outcome.placement.clone(), true));
                            }
                            let placed = ServiceOutcome { seq, outcome };
                            acks.push((ticket, ServiceResponse::Placed(placed)));
                        }
                        Err(e) => {
                            rejected += 1;
                            acks.push((ticket, ServiceResponse::Failed(e)));
                        }
                    }
                }
            }
        }
        let durability = if committed + released > 0 {
            self.sync_locked(&mut authority.session, mark, committed + released, |session| {
                for (topology, placement, was_commit) in undo_log.iter().rev() {
                    if *was_commit {
                        let _ = session.release(topology, placement);
                    } else {
                        let _ = session.commit(topology, placement);
                    }
                }
            })
        } else {
            None
        };
        drop(authority);

        if let Some(err) = &durability {
            // The batch's mutations were rolled back — convert every
            // would-be ack into the typed durability rejection.
            for (_, response) in &mut acks {
                if matches!(response, ServiceResponse::Placed(_) | ServiceResponse::Released { .. })
                {
                    *response = ServiceResponse::Failed(err.clone());
                }
            }
            committed = 0;
            released = 0;
        }
        self.note(|st| {
            st.committed += committed;
            st.released += released;
            st.rejected += rejected;
            st.shed_deadline += shed_deadline;
            st.degraded_decisions += degraded_decisions;
        });
        // Responses only after the group-commit fsync, so a delivered
        // `Placed` is durable.
        for (ticket, response) in acks {
            deliver(&ticket, response);
        }
    }
}

// ---------------------------------------------------------------------------
// The front-end: queue, jobs, tickets
// ---------------------------------------------------------------------------

struct ServeQueue {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct ServeShared {
    queue: Mutex<ServeQueue>,
    cv: Condvar,
}

/// Closes the queue on drop so the writer drains and exits even when
/// the driver unwinds.
struct CloseGuard<'s>(&'s ServeShared);

impl Drop for CloseGuard<'_> {
    fn drop(&mut self) {
        lock_unpoisoned(&self.0.queue).closed = true;
        self.0.cv.notify_all();
    }
}

enum Job {
    Place {
        topology: Arc<ApplicationTopology>,
        request: PlacementRequest,
        ticket: Arc<TicketInner>,
        /// When the request was admitted — the deadline budget counts
        /// from here, so queue wait burns it down.
        stamp: BudgetStamp,
    },
    Release {
        topology: Arc<ApplicationTopology>,
        placement: Placement,
        ticket: Arc<TicketInner>,
    },
}

impl Job {
    fn ticket(&self) -> Arc<TicketInner> {
        match self {
            Job::Place { ticket, .. } | Job::Release { ticket, .. } => Arc::clone(ticket),
        }
    }
}

/// The driver's side of a running [`PlacementService::serve`] call:
/// submit jobs, get [`Ticket`]s back.
#[derive(Clone, Copy)]
pub struct ServiceHandle<'s, 'a> {
    service: &'s PlacementService<'a>,
    shared: &'s ServeShared,
}

impl<'s, 'a> ServiceHandle<'s, 'a> {
    /// The service behind this handle.
    #[must_use]
    pub fn service(&self) -> &'s PlacementService<'a> {
        self.service
    }

    /// Enqueues a placement request; the returned ticket resolves to
    /// [`ServiceResponse::Placed`] or [`ServiceResponse::Failed`] —
    /// immediately with [`PlacementError::QueueFull`] when admission
    /// control sheds it.
    pub fn submit(&self, topology: Arc<ApplicationTopology>, request: PlacementRequest) -> Ticket {
        let ticket = Arc::new(TicketInner::default());
        let stamp = self.service.stamp();
        self.push(Job::Place { topology, request, ticket: Arc::clone(&ticket), stamp });
        Ticket(ticket)
    }

    /// Enqueues a release; the returned ticket resolves to
    /// [`ServiceResponse::Released`] or [`ServiceResponse::Failed`].
    pub fn submit_release(
        &self,
        topology: Arc<ApplicationTopology>,
        placement: Placement,
    ) -> Ticket {
        let ticket = Arc::new(TicketInner::default());
        self.push(Job::Release { topology, placement, ticket: Arc::clone(&ticket) });
        Ticket(ticket)
    }

    /// Runs one maintenance tick with the *live* ingress queue depth
    /// as the yield signal — the `serve --maintain` entry point. The
    /// driver interleaves these with submissions; sweeps automatically
    /// back off whenever the queue it shares with placements deepens.
    pub fn maintain(
        &self,
        plane: &mut MaintenancePlane,
        ledger: &mut Vec<TenantRecord>,
        tick: u64,
    ) -> MaintenanceTick {
        let depth = lock_unpoisoned(&self.shared.queue).jobs.len();
        self.service.maintain(plane, ledger, tick, depth)
    }

    fn push(&self, job: Job) {
        let limit = self.service.config.queue_depth;
        let mut queue = lock_unpoisoned(&self.shared.queue);
        if limit > 0 && queue.jobs.len() >= limit {
            // Admission control: placements are shed with a typed
            // rejection; releases are always admitted — shedding a
            // release would leak the capacity it returns.
            if let Job::Place { ticket, .. } = &job {
                let depth = queue.jobs.len();
                drop(queue);
                self.service.note(|st| st.shed_queue_full += 1);
                deliver(ticket, ServiceResponse::Failed(PlacementError::QueueFull { depth }));
                return;
            }
        }
        queue.jobs.push_back(job);
        self.shared.cv.notify_one();
    }
}

/// What a [`Ticket`] resolves to.
///
/// The `Placed` payload dwarfs the other variants, but a response is
/// constructed once and moved straight into its ticket slot — never
/// stored in bulk — so boxing would only add an allocation per commit.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ServiceResponse {
    /// The placement committed (durably, with [`ServiceConfig::durable_acks`]).
    Placed(ServiceOutcome),
    /// The release applied at commit sequence `seq`.
    Released {
        /// The release's position in the commit order.
        seq: u64,
    },
    /// The request was rejected against current books.
    Failed(PlacementError),
}

#[derive(Default)]
struct TicketInner {
    slot: Mutex<Option<(ServiceResponse, Instant)>>,
    cv: Condvar,
}

fn deliver(ticket: &TicketInner, response: ServiceResponse) {
    *lock_unpoisoned(&ticket.slot) = Some((response, Instant::now()));
    ticket.cv.notify_all();
}

/// Delivers only if the ticket is still unresolved — the panic safety
/// net must not overwrite a response the batch already produced.
fn deliver_if_empty(ticket: &TicketInner, response: ServiceResponse) {
    let mut slot = lock_unpoisoned(&ticket.slot);
    if slot.is_none() {
        *slot = Some((response, Instant::now()));
        ticket.cv.notify_all();
    }
}

/// A pending response from [`ServiceHandle::submit`] /
/// [`ServiceHandle::submit_release`].
pub struct Ticket(Arc<TicketInner>);

impl Ticket {
    /// Blocks until the job resolves.
    #[must_use]
    pub fn wait(self) -> ServiceResponse {
        self.wait_timed().0
    }

    /// Like [`wait`](Self::wait), also returning the instant the
    /// response was *delivered* (not observed) — what latency
    /// percentiles should measure when tickets are drained late.
    #[must_use]
    pub fn wait_timed(self) -> (ServiceResponse, Instant) {
        let mut slot = lock_unpoisoned(&self.0.slot);
        loop {
            if let Some(resolved) = slot.take() {
                return resolved;
            }
            slot = match self.0.cv.wait(slot) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defrag::MaintenanceConfig;
    use crate::request::Algorithm;
    use crate::scheduler::Scheduler;
    use crate::validate::verify_placement;
    use crate::wal::{self, Wal, WalFault, WalFaultHook, WalIoOp, WalOptions};
    use ostro_datacenter::{CapacityState, HostId, InfrastructureBuilder};
    use ostro_model::{Bandwidth, Resources, TopologyBuilder};

    fn infra_flat(racks: usize, hosts: usize) -> Infrastructure {
        InfrastructureBuilder::flat(
            "dc",
            racks,
            hosts,
            Resources::new(16, 32_768, 1_000),
            Bandwidth::from_gbps(10),
            Bandwidth::from_gbps(100),
        )
        .build()
        .unwrap()
    }

    fn pair_app(name: &str, vcpus: u32) -> ApplicationTopology {
        let mut b = TopologyBuilder::new(name);
        let x = b.vm("x", vcpus, 2_048).unwrap();
        let y = b.vm("y", vcpus, 2_048).unwrap();
        b.link(x, y, Bandwidth::from_mbps(150)).unwrap();
        b.build().unwrap()
    }

    fn hub_app(name: &str) -> ApplicationTopology {
        let mut b = TopologyBuilder::new(name);
        let hub = b.vm("hub", 4, 8_192).unwrap();
        for i in 0..3 {
            let w = b.vm(format!("w{i}"), 2, 2_048).unwrap();
            b.link(hub, w, Bandwidth::from_mbps(100 + 50 * i as u64)).unwrap();
        }
        b.build().unwrap()
    }

    fn request() -> PlacementRequest {
        PlacementRequest { algorithm: Algorithm::Greedy, ..PlacementRequest::default() }
    }

    /// Runs `shapes` through [`PlacementService::process_batch`] as one
    /// admission batch of placements and returns the responses in order.
    fn place_batch(
        service: &PlacementService<'_>,
        shapes: &[ApplicationTopology],
        req: &PlacementRequest,
    ) -> Vec<ServiceResponse> {
        let tickets: Vec<Arc<TicketInner>> = shapes.iter().map(|_| Arc::default()).collect();
        service.process_batch(
            shapes
                .iter()
                .zip(&tickets)
                .map(|(shape, ticket)| Job::Place {
                    topology: Arc::new(shape.clone()),
                    request: req.clone(),
                    ticket: Arc::clone(ticket),
                    stamp: BudgetStamp::Wall(Instant::now()),
                })
                .collect(),
        );
        tickets.into_iter().map(|t| Ticket(t).wait()).collect()
    }

    fn placed(response: ServiceResponse) -> ServiceOutcome {
        match response {
            ServiceResponse::Placed(outcome) => outcome,
            other => panic!("expected a committed placement: {other:?}"),
        }
    }

    /// One acknowledged mutation: its commit sequence number, the
    /// tenant, its placement, and whether it was a commit (else a
    /// release).
    type Acked = (u64, Arc<ApplicationTopology>, Placement, bool);

    /// Replays acknowledged mutations in commit-sequence order over the
    /// base state, verifying each commit was feasible at its commit
    /// point, and asserts the fold equals `final_state` — the service's
    /// linearizability contract.
    fn assert_linearizable(
        infra: &Infrastructure,
        base: &CapacityState,
        mut events: Vec<Acked>,
        final_state: &CapacityState,
    ) {
        events.sort_by_key(|(seq, ..)| *seq);
        let scheduler = Scheduler::new(infra);
        let mut state = base.clone();
        let mut last_seq = 0;
        for (seq, topology, placement, is_commit) in &events {
            assert!(*seq > last_seq, "commit sequence numbers must be strictly increasing");
            last_seq = *seq;
            if *is_commit {
                let violations = verify_placement(topology, infra, &state, placement).unwrap();
                assert!(
                    violations.is_empty(),
                    "decision at seq {seq} infeasible at its commit point: {violations:?}"
                );
                scheduler.commit(topology, placement, &mut state).unwrap();
            } else {
                scheduler.release(topology, placement, &mut state).unwrap();
            }
        }
        assert_eq!(&state, final_state, "serial replay in commit order diverged from the books");
    }

    /// Through `serve`, at batch 1 and at the default batch, decisions
    /// are identical to a warm session serving the same schedule one
    /// request at a time — including a release and a re-placement
    /// submitted back to back, which can share a batch.
    #[test]
    fn served_decisions_match_the_serial_session_at_any_batch() {
        let infra = infra_flat(2, 4);
        let shapes: Vec<Arc<ApplicationTopology>> =
            [hub_app("a"), pair_app("b", 2), hub_app("c"), pair_app("d", 4), hub_app("e")]
                .into_iter()
                .map(Arc::new)
                .collect();
        let req = request();

        let mut session = SchedulerSession::new(&infra);
        let mut serial: Vec<Placement> = Vec::new();
        for shape in &shapes {
            let outcome = session.place(shape, &req).unwrap();
            session.commit(shape, &outcome.placement).unwrap();
            serial.push(outcome.placement);
        }
        session.release(&shapes[1], &serial[1]).unwrap();
        let outcome = session.place(&shapes[1], &req).unwrap();
        session.commit(&shapes[1], &outcome.placement).unwrap();
        let serial_replaced = outcome.placement;
        let serial_state = session.into_state();

        for batch in [1, ServiceConfig::default().batch] {
            let config = ServiceConfig { batch, ..ServiceConfig::default() };
            let service = PlacementService::new(SchedulerSession::new(&infra), config);
            let (placed_all, replaced) = service.serve(|handle| {
                let tickets: Vec<Ticket> =
                    shapes.iter().map(|s| handle.submit(Arc::clone(s), req.clone())).collect();
                let placed_all: Vec<Placement> =
                    tickets.into_iter().map(|t| placed(t.wait()).outcome.placement).collect();
                let release = handle.submit_release(Arc::clone(&shapes[1]), placed_all[1].clone());
                let again = handle.submit(Arc::clone(&shapes[1]), req.clone());
                assert!(matches!(release.wait(), ServiceResponse::Released { .. }));
                (placed_all, placed(again.wait()).outcome.placement)
            });
            assert_eq!(placed_all, serial, "batch {batch}: decisions diverged from the session");
            assert_eq!(replaced, serial_replaced, "batch {batch}: re-placement diverged");
            assert_eq!(service.into_session().into_state(), serial_state, "batch {batch}");
        }
    }

    /// One driver thread of [`concurrent_commits_linearize`]: submits
    /// `count` placements, releasing every other tenant it placed, and
    /// returns what the service acknowledged.
    fn drive(
        handle: &ServiceHandle<'_, '_>,
        shapes: &[Arc<ApplicationTopology>],
        req: &PlacementRequest,
        driver: usize,
        count: usize,
    ) -> Vec<Acked> {
        let mut acked = Vec::new();
        for i in 0..count {
            let shape = Arc::clone(&shapes[(driver + i) % shapes.len()]);
            let ServiceResponse::Placed(outcome) =
                handle.submit(Arc::clone(&shape), req.clone()).wait()
            else {
                continue;
            };
            let placement = outcome.outcome.placement;
            acked.push((outcome.seq, Arc::clone(&shape), placement.clone(), true));
            if i % 2 == 1 {
                match handle.submit_release(Arc::clone(&shape), placement.clone()).wait() {
                    ServiceResponse::Released { seq } => acked.push((seq, shape, placement, false)),
                    other => panic!("release failed: {other:?}"),
                }
            }
        }
        acked
    }

    /// The linearizability property: several driver threads submitting
    /// placements and releases through one `serve` produce books
    /// identical to a serial replay of the acknowledged mutations in
    /// commit-sequence order, each commit feasible at its commit point.
    #[test]
    fn concurrent_commits_linearize() {
        let infra = infra_flat(4, 8);
        let base = CapacityState::new(&infra);
        let req = request();
        let shapes: Vec<Arc<ApplicationTopology>> = (0..4)
            .map(|i| {
                Arc::new(if i % 2 == 0 {
                    hub_app(&format!("hub{i}"))
                } else {
                    pair_app(&format!("pair{i}"), 2 + i as u32)
                })
            })
            .collect();
        let config = ServiceConfig { batch: 2, ..ServiceConfig::default() };
        let service =
            PlacementService::new(SchedulerSession::with_state(&infra, base.clone()), config);

        let drivers = 4usize;
        let per_driver = 6usize;
        let (shapes, req) = (&shapes, &req);
        let events: Vec<Acked> = service.serve(|handle| {
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..drivers)
                    .map(|d| scope.spawn(move || drive(handle, shapes, req, d, per_driver)))
                    .collect();
                workers.into_iter().flat_map(|w| w.join().expect("driver panicked")).collect()
            })
        });

        let commits = events.iter().filter(|e| e.3).count();
        assert!(commits >= drivers * per_driver / 2, "too many rejections: {commits}");
        let final_state = service.into_session().into_state();
        assert_linearizable(&infra, &base, events, &final_state);
    }

    /// Group commit keeps acknowledged commits durable: everything the
    /// service acknowledged is recoverable from the WAL alone after an
    /// abrupt stop (no checkpoint, no graceful shutdown).
    #[test]
    fn acknowledged_commits_survive_a_crash() {
        let dir = std::env::temp_dir().join(format!("ostro-service-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let infra = infra_flat(2, 4);
        let req = request();
        let (journal, _recovery) =
            Wal::open(&dir, &infra, WalOptions { snapshot_every: 0, ..WalOptions::default() })
                .unwrap();
        let mut session = SchedulerSession::new(&infra);
        session.attach_wal(journal);
        let service = PlacementService::new(session, ServiceConfig::default());

        let shapes = [hub_app("a"), pair_app("b", 2), hub_app("c")];
        let placed_all: Vec<ServiceOutcome> =
            place_batch(&service, &shapes, &req).into_iter().map(placed).collect();
        let release = Arc::new(TicketInner::default());
        service.process_batch(vec![Job::Release {
            topology: Arc::new(shapes[1].clone()),
            placement: placed_all[1].outcome.placement.clone(),
            ticket: Arc::clone(&release),
        }]);
        assert!(matches!(Ticket(release).wait(), ServiceResponse::Released { .. }));
        let live = service.into_session().into_state();

        // "Crash": the Wal is simply dropped with the session — no
        // checkpoint. Recovery must reproduce every acknowledged
        // mutation.
        let recovered = wal::recover(&dir, &infra).unwrap();
        assert_eq!(recovered.state, live, "recovered books diverged from acknowledged commits");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sanity for the serve front-end: arrivals and departures mixed
    /// through the queue, every ticket resolves, and the books balance
    /// back to base after all tenants depart — with one-job and
    /// multi-job batches.
    #[test]
    fn serve_roundtrip_releases_everything() {
        for batch in [1usize, 3] {
            let infra = infra_flat(2, 4);
            let base = CapacityState::new(&infra);
            let req = request();
            let config = ServiceConfig { batch, ..ServiceConfig::default() };
            let service =
                PlacementService::new(SchedulerSession::with_state(&infra, base.clone()), config);
            let shapes: Vec<Arc<ApplicationTopology>> =
                (0..3).map(|i| Arc::new(pair_app(&format!("t{i}"), 2))).collect();

            service.serve(|handle| {
                let tickets: Vec<(usize, Ticket)> = (0..6)
                    .map(|i| (i % 3, handle.submit(Arc::clone(&shapes[i % 3]), req.clone())))
                    .collect();
                let mut live = Vec::new();
                for (shape, ticket) in tickets {
                    match ticket.wait() {
                        ServiceResponse::Placed(outcome) => {
                            live.push((shape, outcome.outcome.placement))
                        }
                        ServiceResponse::Failed(e) => {
                            panic!("placement failed at batch {batch}: {e}")
                        }
                        ServiceResponse::Released { .. } => unreachable!(),
                    }
                }
                let releases: Vec<Ticket> = live
                    .into_iter()
                    .map(|(shape, placement)| {
                        handle.submit_release(Arc::clone(&shapes[shape]), placement)
                    })
                    .collect();
                for ticket in releases {
                    assert!(matches!(ticket.wait(), ServiceResponse::Released { .. }));
                }
            });
            let stats = service.stats();
            assert_eq!(stats.committed, 6, "at batch {batch}");
            assert_eq!(stats.released, 6, "at batch {batch}");
            assert_eq!(service.into_session().into_state(), base, "at batch {batch}");
        }
    }

    /// Admission control: with a bounded queue and a gated writer, the
    /// overflow submission is shed immediately with the typed
    /// queue-full error while admitted work completes untouched.
    #[test]
    fn bounded_queue_sheds_overflow_with_typed_error() {
        let infra = infra_flat(2, 4);
        let req = request();
        // Gate the writer inside the plan hook so the queue can be
        // filled deterministically while a batch is in flight.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let hook_gate = Arc::clone(&gate);
        let config = ServiceConfig { batch: 1, queue_depth: 2, ..ServiceConfig::default() };
        let mut service = PlacementService::new(SchedulerSession::new(&infra), config);
        service.set_plan_hook(Some(PlanHook::new(move |_| {
            let (open, cv) = &*hook_gate;
            let mut open = lock_unpoisoned(open);
            while !*open {
                open = match cv.wait(open) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        })));

        let shapes: Vec<Arc<ApplicationTopology>> =
            (0..4).map(|i| Arc::new(pair_app(&format!("t{i}"), 2))).collect();
        service.serve(|handle| {
            // First submission is popped by the writer (which then
            // blocks on the gate), leaving the queue empty.
            let first = handle.submit(Arc::clone(&shapes[0]), req.clone());
            while handle.service().stats().batches < 1 {
                std::thread::sleep(Duration::from_millis(1));
            }
            // Two more fill the bounded queue; the fourth must shed.
            let second = handle.submit(Arc::clone(&shapes[1]), req.clone());
            let third = handle.submit(Arc::clone(&shapes[2]), req.clone());
            let overflow = handle.submit(Arc::clone(&shapes[3]), req.clone());
            match overflow.wait() {
                ServiceResponse::Failed(PlacementError::QueueFull { depth }) => {
                    assert_eq!(depth, 2)
                }
                other => panic!("overflow must shed with QueueFull: {other:?}"),
            }
            // Open the gate; everything admitted completes.
            let (open, cv) = &*gate;
            *lock_unpoisoned(open) = true;
            cv.notify_all();
            for ticket in [first, second, third] {
                assert!(matches!(ticket.wait(), ServiceResponse::Placed(_)));
            }
        });
        let stats = service.stats();
        assert_eq!(stats.shed_queue_full, 1);
        assert_eq!(stats.committed, 3);
    }

    /// Deadline shedding on the deterministic virtual clock: a request
    /// stamped before the budget's worth of ticks elapsed is shed with
    /// the typed error before any planning; a fresh one plans.
    #[test]
    fn stale_deadline_budget_sheds_before_planning() {
        let infra = infra_flat(2, 4);
        let req = request();
        let config = ServiceConfig {
            batch: 2,
            deadline_ms: 5,
            virtual_tick_us: 1_000, // one tick = 1ms of budget
            ..ServiceConfig::default()
        };
        let service = PlacementService::new(SchedulerSession::new(&infra), config);
        service.ticks.store(10, Ordering::Relaxed);

        let expired = Arc::new(TicketInner::default());
        let fresh = Arc::new(TicketInner::default());
        service.process_batch(vec![
            Job::Place {
                topology: Arc::new(pair_app("expired", 2)),
                request: req.clone(),
                ticket: Arc::clone(&expired),
                stamp: BudgetStamp::Tick(0), // 10 ticks = 10ms spent > 5ms budget
            },
            Job::Place {
                topology: Arc::new(pair_app("fresh", 2)),
                request: req.clone(),
                ticket: Arc::clone(&fresh),
                stamp: BudgetStamp::Tick(10), // 0ms spent
            },
        ]);
        match Ticket(expired).wait() {
            ServiceResponse::Failed(PlacementError::DeadlineExceeded { budget_ms }) => {
                assert_eq!(budget_ms, 5)
            }
            other => panic!("stale budget must shed: {other:?}"),
        }
        assert!(matches!(Ticket(fresh).wait(), ServiceResponse::Placed(_)));
        let stats = service.stats();
        assert_eq!(stats.shed_deadline, 1);
        assert_eq!(stats.committed, 1);
    }

    /// The degrade ladder's hysteresis: up fast on backlog, down only
    /// once the queue has drained past the low-water mark.
    #[test]
    fn degrade_ladder_moves_with_hysteresis() {
        let infra = infra_flat(1, 2);
        let config = ServiceConfig {
            degrade: DegradePolicy { enabled: true, ..DegradePolicy::default() },
            ..ServiceConfig::default()
        };
        // Default thresholds: high 16, low 4, floor 64.
        let service = PlacementService::new(SchedulerSession::new(&infra), config);
        assert_eq!(service.update_degrade(10), LEVEL_NORMAL, "below high stays normal");
        assert_eq!(service.update_degrade(16), LEVEL_CAPPED, "high-water trips capping");
        assert_eq!(service.update_degrade(10), LEVEL_CAPPED, "mid-band holds (hysteresis)");
        assert_eq!(service.update_degrade(64), LEVEL_FLOOR, "floor-water trips the floor");
        assert_eq!(service.update_degrade(16), LEVEL_CAPPED, "draining past high re-caps");
        assert_eq!(service.update_degrade(5), LEVEL_CAPPED, "still above low holds");
        assert_eq!(service.update_degrade(4), LEVEL_NORMAL, "low-water restores normal");
        assert_eq!(service.stats().degraded_transitions, 4);

        // Normal jumps straight to the floor under a deep burst.
        assert_eq!(service.update_degrade(100), LEVEL_FLOOR);
        assert_eq!(service.update_degrade(0), LEVEL_NORMAL, "floor drains straight to normal");

        // Disabled policy never degrades.
        let off_infra = infra_flat(1, 2);
        let off =
            PlacementService::new(SchedulerSession::new(&off_infra), ServiceConfig::default());
        assert_eq!(off.update_degrade(1_000), LEVEL_NORMAL);
    }

    /// At the floor level an A*-tier request plans with the greedy
    /// engine and its outcome is flagged as degraded.
    #[test]
    fn floored_batch_plans_greedy_and_flags_the_outcome() {
        let infra = infra_flat(2, 4);
        let config = ServiceConfig {
            degrade: DegradePolicy { enabled: true, ..DegradePolicy::default() },
            ..ServiceConfig::default()
        };
        let service = PlacementService::new(SchedulerSession::new(&infra), config);
        service.degrade_level.store(LEVEL_FLOOR, Ordering::Relaxed);

        let bastar = PlacementRequest::with_algorithm(Algorithm::BoundedAStar);
        let [floored] =
            <[ServiceResponse; 1]>::try_from(place_batch(&service, &[pair_app("a", 2)], &bastar))
                .unwrap();
        assert!(placed(floored).outcome.stats.degraded, "outcome must carry the degraded flag");
        assert_eq!(service.stats().degraded_decisions, 1);

        // A greedy request at the floor is already at the floor — no
        // degradation recorded, no flag.
        let [greedy] = <[ServiceResponse; 1]>::try_from(place_batch(
            &service,
            &[pair_app("b", 2)],
            &request(),
        ))
        .unwrap();
        assert!(!placed(greedy).outcome.stats.degraded);
        assert_eq!(service.stats().degraded_decisions, 1);
    }

    /// Planner panics become typed per-request errors and the service
    /// keeps serving — both within one admission batch and through
    /// serve().
    #[test]
    fn planner_panic_is_contained_as_a_typed_error() {
        let infra = infra_flat(2, 4);
        let req = request();
        let mut service =
            PlacementService::new(SchedulerSession::new(&infra), ServiceConfig::default());
        service.set_plan_hook(Some(PlanHook::new(|topology| {
            if topology.name() == "boom" {
                panic!("injected planner fault");
            }
        })));

        // Suppress the default panic backtrace spew for this test.
        let prior = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut batch =
            place_batch(&service, &[pair_app("boom", 2), pair_app("ok", 2)], &req).into_iter();
        match batch.next() {
            Some(ServiceResponse::Failed(PlacementError::PlannerPanic { reason })) => {
                assert!(reason.contains("injected planner fault"), "reason: {reason}")
            }
            other => panic!("expected PlannerPanic, got {other:?}"),
        }
        // The service is still healthy: the batch neighbour commits.
        placed(batch.next().unwrap());

        // Through the queue: the poison request fails typed, its batch
        // neighbours still resolve, nothing hangs.
        let shapes = [
            Arc::new(pair_app("t0", 2)),
            Arc::new(pair_app("boom", 2)),
            Arc::new(pair_app("t1", 2)),
        ];
        let responses = service.serve(|handle| {
            let tickets: Vec<Ticket> =
                shapes.iter().map(|s| handle.submit(Arc::clone(s), req.clone())).collect();
            tickets.into_iter().map(Ticket::wait).collect::<Vec<_>>()
        });
        std::panic::set_hook(prior);
        assert!(matches!(&responses[0], ServiceResponse::Placed(_)));
        assert!(matches!(
            &responses[1],
            ServiceResponse::Failed(PlacementError::PlannerPanic { .. })
        ));
        assert!(matches!(&responses[2], ServiceResponse::Placed(_)));
        assert_eq!(service.stats().planner_panics, 2);
    }

    /// WAL disk-full mid-group-commit under the Reject policy: the
    /// fsync fails between the batch's journal appends and the ack, the
    /// whole batch is rolled back off the books, every member gets the
    /// typed durability error, and recovery replays exactly the acked
    /// prefix. Once the disk heals the same service commits again.
    #[test]
    fn disk_full_mid_group_commit_rejects_the_batch() {
        let dir = std::env::temp_dir().join(format!("ostro-enospc-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let infra = infra_flat(2, 4);
        let req = request();
        let (journal, _recovery) =
            Wal::open(&dir, &infra, WalOptions { snapshot_every: 0, ..WalOptions::default() })
                .unwrap();
        let mut session = SchedulerSession::new(&infra);
        session.attach_wal(journal);
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hook_armed = Arc::clone(&armed);
        session.set_wal_fault_hook(Some(WalFaultHook::new(move |op, _seq| {
            (hook_armed.load(Ordering::Relaxed) && op == WalIoOp::Sync)
                .then_some(WalFault::Error(std::io::ErrorKind::StorageFull))
        })));
        let config = ServiceConfig {
            batch: 4,
            wal_policy: DurabilityPolicy::Reject,
            wal_retries: 2,
            ..ServiceConfig::default()
        };
        let service = PlacementService::new(session, config);

        // A commits durably while the disk is healthy.
        placed(place_batch(&service, &[pair_app("a", 2)], &req).remove(0));
        let acked = wal::recover(&dir, &infra).unwrap().state;

        // Disk fills; a two-member batch appends its records, then the
        // group-commit fsync fails.
        armed.store(true, Ordering::Relaxed);
        for response in place_batch(&service, &[pair_app("b", 2), pair_app("c", 2)], &req) {
            match response {
                ServiceResponse::Failed(PlacementError::Durability { reason }) => {
                    assert!(reason.contains("injected"), "reason: {reason}")
                }
                other => panic!("un-durable member must reject typed: {other:?}"),
            }
        }
        let stats = service.stats();
        assert_eq!(stats.durability_rejections, 2);
        assert_eq!(stats.non_durable_acks, 0, "Reject must never degrade the ack");
        assert!(stats.wal_retry_syncs >= 1, "bounded fsync retries must have run");
        assert_eq!(stats.committed, 1, "the rolled-back batch must not count as committed");

        // Nothing beyond A is on disk or on the books.
        assert_eq!(wal::recover(&dir, &infra).unwrap().state, acked);

        // Disk heals: the same service commits D durably again.
        armed.store(false, Ordering::Relaxed);
        placed(place_batch(&service, &[pair_app("d", 2)], &req).remove(0));
        let live = service.into_session().into_state();
        assert_eq!(wal::recover(&dir, &infra).unwrap().state, live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The default Degrade policy keeps serving on WAL faults: the ack
    /// stands, flagged as non-durable in the stats, and the fail-stop
    /// latch carries the typed error for the report path.
    #[test]
    fn degrade_policy_acks_non_durably_on_wal_fault() {
        let dir = std::env::temp_dir().join(format!("ostro-degrade-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let infra = infra_flat(2, 4);
        let req = request();
        let (journal, _recovery) =
            Wal::open(&dir, &infra, WalOptions { snapshot_every: 0, ..WalOptions::default() })
                .unwrap();
        let mut session = SchedulerSession::new(&infra);
        session.attach_wal(journal);
        session.set_wal_fault_hook(Some(WalFaultHook::new(|op, _seq| {
            (op == WalIoOp::Sync).then_some(WalFault::Error(std::io::ErrorKind::StorageFull))
        })));
        let service = PlacementService::new(session, ServiceConfig::default());

        placed(place_batch(&service, &[pair_app("a", 2)], &req).remove(0));
        let stats = service.stats();
        assert_eq!(stats.non_durable_acks, 1);
        assert_eq!(stats.wal_faults, 1);
        assert_eq!(stats.committed, 1, "the ack stands under Degrade");
        let mut session = service.into_session();
        let latched = session.take_wal_error().expect("fault must latch for the report path");
        assert!(latched.to_string().contains("injected"), "latched: {latched}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A maintenance tick whose journal append fails under the Reject
    /// policy is undone — books, ledger and journal — instead of
    /// leaving a migration on the books that the journal lost. The next
    /// placement then commits durably rather than being rejected for
    /// the tick's fault, and recovery reproduces the live books.
    #[test]
    fn failed_maintenance_tick_under_reject_rolls_back() {
        let dir = std::env::temp_dir().join(format!("ostro-maint-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let infra = infra_flat(2, 6);
        let req = request();
        let (journal, _recovery) =
            Wal::open(&dir, &infra, WalOptions { snapshot_every: 0, ..WalOptions::default() })
                .unwrap();
        let mut session = SchedulerSession::new(&infra);
        session.attach_wal(journal);
        // One tenant scattered across both racks: a defrag sweep
        // brings its two VMs together.
        let topology = Arc::new(pair_app("scattered", 2));
        let placement = Placement::new(vec![HostId::from_index(0), HostId::from_index(11)]);
        session.commit(&topology, &placement).unwrap();
        let mut ledger = vec![TenantRecord { id: 0, topology, placement }];
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hook_armed = Arc::clone(&armed);
        session.set_wal_fault_hook(Some(WalFaultHook::new(move |op, _seq| {
            (hook_armed.load(Ordering::Relaxed) && op == WalIoOp::Append)
                .then_some(WalFault::Error(std::io::ErrorKind::StorageFull))
        })));
        let config = ServiceConfig {
            batch: 1,
            wal_policy: DurabilityPolicy::Reject,
            ..ServiceConfig::default()
        };
        let service = PlacementService::new(session, config);
        let mut plane = MaintenancePlane::new(MaintenanceConfig::default(), infra.host_count());
        for i in 0..infra.host_count() {
            plane.heartbeat(HostId::from_index(i as u32), 0);
        }
        let ledger_before: Vec<Placement> = ledger.iter().map(|t| t.placement.clone()).collect();

        // The disk fails under the tick's first migration record.
        armed.store(true, Ordering::Relaxed);
        service.maintain(&mut plane, &mut ledger, 0, 0);
        armed.store(false, Ordering::Relaxed);

        // The disk heals: the next placement is not blamed for the
        // tick's fault and commits durably.
        for shape in [pair_app("p", 2), pair_app("q", 2)] {
            placed(place_batch(&service, &[shape], &req).remove(0));
        }
        let stats = service.stats();
        assert_eq!(stats.durability_rejections, 0, "placements rejected for the tick's fault");
        assert_eq!(stats.wal_faults, 1);
        assert_eq!(stats.maintenance_migrations, 0, "the failed tick must not count its moves");
        let after: Vec<Placement> = ledger.iter().map(|t| t.placement.clone()).collect();
        assert_eq!(after, ledger_before, "the ledger must roll back with the books");

        // The same tick, retried on a healthy disk, does migrate.
        let retried = service.maintain(&mut plane, &mut ledger, 0, 0);
        assert!(retried.migrations > 0, "the retried tick should find its moves again");
        let mut session = service.into_session();
        assert!(session.take_wal_error().is_none());
        let live = session.into_state();
        assert_eq!(wal::recover(&dir, &infra).unwrap().state, live, "recovered ≠ live books");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
