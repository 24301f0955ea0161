//! The self-healing maintenance plane: suspicion-driven draining plus
//! budgeted defragmentation sweeps.
//!
//! A long-running fleet decays in two independent ways. Hosts fail
//! *gradually* — heartbeats stretch, then stop — and the reactive
//! evacuate-after-crash path (PR 3) moves tenants only once their
//! replicas are already dead. And sustained churn *fragments* the
//! books: departures strand slivers of capacity on half-empty hosts
//! and leave surviving tenants scattered across more hosts (and more
//! hops) than a fresh solve would use. [`MaintenancePlane`] repairs
//! both, continuously and deterministically:
//!
//! * **Draining.** A [`HealthMonitor`](crate::HealthMonitor) watches
//!   per-host heartbeat streams; when a host's suspicion crosses the
//!   drain threshold the plane freezes it
//!   ([`SchedulerSession::quarantine_host`]) and migrates its tenants
//!   away with bounded, backoff-capped retries — *before* the crash,
//!   while the replicas still answer.
//! * **Defragmentation.** Each tick the plane examines a bounded,
//!   round-robin slice of the tenant ledger. For every candidate it
//!   asks, on a scratch copy of the books, "released and re-placed
//!   from scratch, where would this tenant land?" and applies the move
//!   only when it frees a host outright or recovers at least
//!   [`MaintenanceConfig::min_bw_gain_mbps`] of hop-weighted
//!   bandwidth, within the per-sweep node-move budget.
//!
//! Every accepted move goes through [`SchedulerSession::migrate`]: one
//! atomic WAL record holding the release of the old placement and the
//! commit of the new one, so a crash anywhere mid-sweep recovers to
//! books identical to the live run — there is no observable half-moved
//! tenant. Sweeps yield to foreground traffic: when the service queue
//! deepens past [`MaintenanceConfig::yield_queue_depth`] or the
//! degrade ladder (PR 8) is off its normal rung, the sweep skips the
//! tick entirely and only drains proceed.
//!
//! Everything is driven by an integer tick clock and examines tenants
//! in a deterministic order, so two same-seed runs produce identical
//! migration logs and identical final books (`scripts/verify.sh`
//! diffs exactly that).

use std::sync::Arc;

use ostro_datacenter::{CapacityState, HostId, Infrastructure};
use ostro_model::ApplicationTopology;
use serde::{Deserialize, Serialize};

use crate::error::PlacementError;
use crate::health::{HealthConfig, HealthMonitor, HealthState, HealthTransition};
use crate::objective::ObjectiveWeights;
use crate::online::replace_rounds;
use crate::placement::Placement;
use crate::request::PlacementRequest;
use crate::session::SchedulerSession;
use crate::validate::reserved_bandwidth;

/// One committed tenant the maintenance plane may move. The ledger —
/// a `Vec<TenantRecord>` owned by the driver (simulator, service
/// harness, CLI) — is the plane's ground truth for what is placed
/// where; every accepted migration updates the record in place.
#[derive(Debug, Clone)]
pub struct TenantRecord {
    /// Stable identity, used for deterministic ordering and logging.
    pub id: u64,
    /// The tenant's application topology.
    pub topology: Arc<ApplicationTopology>,
    /// Its current committed placement.
    pub placement: Placement,
}

/// Fleet-level fragmentation metrics — the "how decayed are the
/// books" gauge the maintenance plane optimizes and the defrag bench
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FragStats {
    /// Hosts with at least one placed node.
    pub active_hosts: usize,
    /// Stranded-capacity index: the fraction of vCPU capacity on
    /// *active* hosts that sits free. High = capacity smeared thinly
    /// across many half-empty hosts (fragmented); low = tenants are
    /// consolidated and the remaining free capacity lives on fully
    /// idle hosts, where whole applications can still land.
    pub stranded_index: f64,
    /// Mean tenant scatter: distinct hosts used divided by node
    /// count, averaged over the ledger (1.0 = every node on its own
    /// host).
    pub scatter_mean: f64,
    /// Bandwidth inflation: hop-weighted reserved bandwidth divided
    /// by the raw link demand, averaged over all ledger links. 0 when
    /// every linked pair is co-located; grows as churn pushes linked
    /// nodes further apart.
    pub bandwidth_inflation: f64,
    /// Total hop-weighted bandwidth reserved across the fleet, Mbps.
    pub reserved_mbps: u64,
    /// Fleet-level normalized objective: θbw · (hop-weighted ledger
    /// bandwidth / worst-case routing of the same demand) + θc ·
    /// (active hosts / fleet size), with the paper's simulation
    /// weights. The defrag bench's recovery headline is the drop in
    /// this score at equal churn.
    pub fleet_objective: f64,
}

impl FragStats {
    /// Computes the metrics from the live books and the ledger.
    #[must_use]
    pub fn compute(
        infra: &Infrastructure,
        state: &CapacityState,
        ledger: &[TenantRecord],
    ) -> FragStats {
        let mut active_hosts = 0usize;
        let mut free_vcpus = 0u64;
        let mut total_vcpus = 0u64;
        for i in 0..infra.host_count() {
            let host = HostId::from_index(i as u32);
            if state.node_count(host) == 0 {
                continue;
            }
            active_hosts += 1;
            free_vcpus += u64::from(state.available(host).vcpus);
            total_vcpus += u64::from(infra.host(host).capacity().vcpus);
        }
        let stranded_index =
            if total_vcpus == 0 { 0.0 } else { free_vcpus as f64 / total_vcpus as f64 };

        let mut scatter_sum = 0.0;
        let mut hop_weighted_mbps = 0u64;
        let mut raw_mbps = 0u64;
        for t in ledger {
            scatter_sum +=
                t.placement.distinct_hosts() as f64 / t.topology.node_count().max(1) as f64;
            hop_weighted_mbps += reserved_bandwidth(&t.topology, infra, &t.placement).as_mbps();
            raw_mbps += t.topology.total_link_bandwidth().as_mbps();
        }
        let scatter_mean = if ledger.is_empty() { 0.0 } else { scatter_sum / ledger.len() as f64 };
        let bandwidth_inflation =
            if raw_mbps == 0 { 0.0 } else { hop_weighted_mbps as f64 / raw_mbps as f64 };

        let weights = ObjectiveWeights::SIMULATION;
        let worst_mbps = (raw_mbps * infra.max_hop_cost()).max(1) as f64;
        let fleet_objective = weights.bandwidth * (hop_weighted_mbps as f64 / worst_mbps)
            + weights.hosts * (active_hosts as f64 / infra.host_count().max(1) as f64);

        FragStats {
            active_hosts,
            stranded_index,
            scatter_mean,
            bandwidth_inflation,
            reserved_mbps: hop_weighted_mbps,
            fleet_objective,
        }
    }
}

/// Why a migration was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationReason {
    /// The tenant was moved off a draining host.
    Drain {
        /// The host being drained.
        host: u32,
    },
    /// A defragmentation sweep found a strictly better placement.
    Defrag,
}

/// One applied migration — the unit of the deterministic migration
/// log that same-seed runs must reproduce byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// The tick the move was applied on.
    pub tick: u64,
    /// The moved tenant's [`TenantRecord::id`].
    pub tenant: u64,
    /// What triggered the move.
    pub reason: MigrationReason,
    /// Per-node host indices before the move.
    pub from: Vec<u32>,
    /// Per-node host indices after the move.
    pub to: Vec<u32>,
}

impl MigrationRecord {
    /// Nodes whose host actually changed.
    #[must_use]
    pub fn moved_nodes(&self) -> usize {
        self.from.iter().zip(&self.to).filter(|(a, b)| a != b).count()
    }
}

/// Tuning for the maintenance plane.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaintenanceConfig {
    /// Failure-detector thresholds and hysteresis.
    pub health: HealthConfig,
    /// Planner settings for drain re-placements and defrag trial
    /// solves (algorithm, weights, expansion caps — all deterministic).
    pub request: PlacementRequest,
    /// Pin-relaxation rounds for drain re-placement (as
    /// [`Scheduler::replace_online`](crate::Scheduler::replace_online)).
    pub max_rounds: u32,
    /// Node-moves a single defrag sweep may spend. The sweep stops —
    /// mid-tick if necessary — once the budget is gone; the next tick
    /// gets a fresh budget.
    pub sweep_budget: u32,
    /// Tenants a single sweep examines (a round-robin slice of the
    /// ledger, so successive sweeps cover the whole fleet).
    pub sweep_candidates: usize,
    /// Minimum hop-weighted bandwidth recovery, in Mbps, for a move
    /// that does not free a host outright.
    pub min_bw_gain_mbps: u64,
    /// Drain attempts per host before its unplaceable tenants are
    /// abandoned (released and dropped from the ledger).
    pub drain_retries: u32,
    /// Base drain retry backoff in ticks; doubles per retry.
    pub retry_backoff: u64,
    /// Backoff ceiling in ticks.
    pub max_backoff: u64,
    /// Foreground queue depth at which sweeps yield (0 = never
    /// yield on depth). Drains always proceed — reliability work is
    /// not load-shed.
    pub yield_queue_depth: usize,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig {
            health: HealthConfig::default(),
            request: PlacementRequest::default(),
            max_rounds: 3,
            sweep_budget: 8,
            sweep_candidates: 16,
            min_bw_gain_mbps: 1,
            drain_retries: 3,
            retry_backoff: 4,
            max_backoff: 64,
            yield_queue_depth: 4,
        }
    }
}

/// The foreground-load signals a sweep yields to (PR 8's degrade
/// ladder plus the raw service queue depth).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceLoad {
    /// Jobs waiting in the service queue (0 when driving a plane
    /// without a service).
    pub queue_depth: usize,
    /// Current degrade-ladder rung (0 = normal). Any elevated rung
    /// pauses sweeps — if foreground placements are being degraded,
    /// background optimization has no business holding the books.
    pub degrade_level: u8,
}

/// Cumulative maintenance counters, serialized into reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaintStats {
    /// Heartbeats fed to the detector.
    pub heartbeats: u64,
    /// Healthy → Suspect edges.
    pub suspected: u64,
    /// Suspect → Healthy recoveries (hysteresis satisfied).
    pub recoveries: u64,
    /// Drains started (Suspect → Draining edges).
    pub drains_started: u64,
    /// Drains that moved every tenant off their host.
    pub drains_completed: u64,
    /// Drain attempts re-scheduled with backoff.
    pub drain_retries: u64,
    /// Tenants released and dropped after the retry budget ran out.
    pub drain_abandoned: u64,
    /// Hosts declared dead (drain complete or φ past the dead
    /// threshold).
    pub hosts_dead: u64,
    /// Migrations applied by drains.
    pub drain_migrations: u64,
    /// Migrations applied by defrag sweeps.
    pub defrag_migrations: u64,
    /// Total node-moves spent across all migrations.
    pub moves_spent: u64,
    /// Defrag sweeps run.
    pub sweeps: u64,
    /// Sweeps skipped because foreground load was too high.
    pub sweeps_yielded: u64,
    /// Active hosts freed by accepted defrag moves.
    pub hosts_freed: u64,
    /// Hop-weighted bandwidth recovered by accepted defrag moves,
    /// Mbps.
    pub bw_saved_mbps: u64,
}

/// What one [`MaintenancePlane::tick`] did.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceTick {
    /// Health-state edges that fired this tick.
    pub transitions: Vec<HealthTransition>,
    /// Migrations applied this tick (drain + defrag).
    pub migrations: u32,
    /// Node-moves those migrations spent.
    pub moves: u32,
    /// Whether the defrag sweep yielded to foreground load.
    pub yielded: bool,
}

/// An in-flight drain: the host, how often it has been retried, and
/// when the next attempt is due.
#[derive(Debug, Clone)]
struct DrainJob {
    host: HostId,
    retries: u32,
    next_attempt: u64,
}

/// The maintenance plane. Feed it heartbeats, then call
/// [`tick`](Self::tick) with the session, the tenant ledger, the
/// current tick, and the foreground load; it applies whatever drains
/// and defrag moves are due and records them in the migration log.
#[derive(Debug, Clone)]
pub struct MaintenancePlane {
    cfg: MaintenanceConfig,
    monitor: HealthMonitor,
    drains: Vec<DrainJob>,
    /// Round-robin position of the defrag sweep in the ledger.
    sweep_cursor: usize,
    stats: MaintStats,
    log: Vec<MigrationRecord>,
}

impl MaintenancePlane {
    /// A plane for a fleet of `host_count` hosts.
    #[must_use]
    pub fn new(cfg: MaintenanceConfig, host_count: usize) -> Self {
        let monitor = HealthMonitor::new(cfg.health, host_count);
        MaintenancePlane {
            cfg,
            monitor,
            drains: Vec::new(),
            sweep_cursor: 0,
            stats: MaintStats::default(),
            log: Vec::new(),
        }
    }

    /// Records a heartbeat from `host` at `tick`.
    pub fn heartbeat(&mut self, host: HostId, tick: u64) {
        self.stats.heartbeats += 1;
        self.monitor.heartbeat(host, tick);
    }

    /// The failure detector, for inspection.
    #[must_use]
    pub fn monitor(&self) -> &HealthMonitor {
        &self.monitor
    }

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> &MaintStats {
        &self.stats
    }

    /// Every migration applied so far, in application order — the
    /// deterministic log same-seed runs must reproduce exactly.
    #[must_use]
    pub fn migration_log(&self) -> &[MigrationRecord] {
        &self.log
    }

    /// Advances the plane one tick: evaluates the failure detector,
    /// starts/retries drains, and runs a budgeted defrag sweep unless
    /// foreground load says otherwise.
    pub fn tick(
        &mut self,
        session: &mut SchedulerSession<'_>,
        ledger: &mut Vec<TenantRecord>,
        tick: u64,
        load: MaintenanceLoad,
    ) -> MaintenanceTick {
        let mut report =
            MaintenanceTick { transitions: self.monitor.evaluate(tick), ..Default::default() };
        for t in &report.transitions {
            match t.to {
                HealthState::Suspect => self.stats.suspected += 1,
                HealthState::Healthy => self.stats.recoveries += 1,
                HealthState::Draining => {
                    self.stats.drains_started += 1;
                    // Freeze admissions first: nothing new lands on the
                    // host while its tenants are moved off.
                    session.quarantine_host(t.host);
                    self.drains.push(DrainJob { host: t.host, retries: 0, next_attempt: tick });
                }
                HealthState::Dead => self.stats.hosts_dead += 1,
            }
        }

        self.run_drains(session, ledger, tick, &mut report);

        if self.should_yield(load) {
            self.stats.sweeps_yielded += 1;
            report.yielded = true;
        } else {
            self.run_sweep(session, ledger, tick, &mut report);
        }
        report
    }

    fn should_yield(&self, load: MaintenanceLoad) -> bool {
        load.degrade_level > 0
            || (self.cfg.yield_queue_depth > 0 && load.queue_depth >= self.cfg.yield_queue_depth)
    }

    fn backoff(&self, retries: u32) -> u64 {
        let base = self.cfg.retry_backoff.max(1);
        base.saturating_mul(1u64 << retries.min(16)).min(self.cfg.max_backoff.max(base))
    }

    /// Processes every due drain job: migrates each tenant still on
    /// the draining host through one atomic [`SchedulerSession::migrate`]
    /// record. Tenants whose re-placement is infeasible stay put and
    /// the job retries with doubled backoff; once the retry budget is
    /// gone the stragglers are abandoned (released and dropped) so the
    /// host can still be declared dead with balanced books.
    fn run_drains(
        &mut self,
        session: &mut SchedulerSession<'_>,
        ledger: &mut Vec<TenantRecord>,
        tick: u64,
        report: &mut MaintenanceTick,
    ) {
        let mut jobs = std::mem::take(&mut self.drains);
        let mut keep = Vec::with_capacity(jobs.len());
        for mut job in jobs.drain(..) {
            if tick < job.next_attempt {
                keep.push(job);
                continue;
            }
            let mut failures = 0usize;
            let mut remaining = 0usize;
            for tenant in ledger.iter_mut() {
                if !tenant.placement.assignments().contains(&job.host) {
                    continue;
                }
                remaining += 1;
                let (topology, old) = (Arc::clone(&tenant.topology), tenant.placement.clone());
                match self.plan_drain(session, &topology, &old) {
                    Ok(new) if session.migrate(&topology, &old, &new).is_ok() => {
                        self.apply_log(
                            tick,
                            tenant.id,
                            MigrationReason::Drain { host: job.host.index() as u32 },
                            &old,
                            &new,
                            report,
                        );
                        self.stats.drain_migrations += 1;
                        tenant.placement = new;
                        remaining -= 1;
                    }
                    _ => failures += 1,
                }
            }
            if remaining == 0 {
                self.stats.drains_completed += 1;
                if let Some(edge) = self.monitor.mark(job.host, HealthState::Dead, tick) {
                    self.stats.hosts_dead += 1;
                    report.transitions.push(edge);
                }
                continue;
            }
            debug_assert!(failures > 0, "remaining tenants imply failures");
            if job.retries >= self.cfg.drain_retries {
                // Retry budget exhausted: abandon the stragglers so the
                // host can be retired with balanced books. A release is
                // journaled per tenant; the capacity re-freeze keeps the
                // quarantined host zeroed.
                ledger.retain(|t| {
                    if t.placement.assignments().contains(&job.host) {
                        let _ = session.release(&t.topology, &t.placement);
                        self.stats.drain_abandoned += 1;
                        false
                    } else {
                        true
                    }
                });
                if let Some(edge) = self.monitor.mark(job.host, HealthState::Dead, tick) {
                    self.stats.hosts_dead += 1;
                    report.transitions.push(edge);
                }
            } else {
                job.retries += 1;
                self.stats.drain_retries += 1;
                job.next_attempt = tick + self.backoff(job.retries - 1);
                keep.push(job);
            }
        }
        self.drains = keep;
    }

    /// Plans where a draining host's tenant should go: release the
    /// tenant on a scratch copy of the books, re-freeze every
    /// quarantined host, then run the pin-relaxation loop with the
    /// tenant's surviving replicas pinned — exactly the evacuation
    /// planner, minus the mutation.
    fn plan_drain(
        &self,
        session: &SchedulerSession<'_>,
        topology: &ApplicationTopology,
        old: &Placement,
    ) -> Result<Placement, PlacementError> {
        let scheduler = session.scheduler();
        let mut trial = session.state().clone();
        scheduler.release(topology, old, &mut trial)?;
        for q in session.quarantined_hosts() {
            trial.quarantine_host(q);
        }
        let prior: Vec<Option<HostId>> = old
            .assignments()
            .iter()
            .map(|&h| if session.is_quarantined(h) { None } else { Some(h) })
            .collect();
        let online = replace_rounds(topology, &prior, self.cfg.max_rounds, |pins| {
            scheduler.place_pinned(topology, &trial, &self.cfg.request, pins)
        })?;
        Ok(online.outcome.placement)
    }

    /// One budgeted defrag sweep over a round-robin slice of the
    /// ledger.
    fn run_sweep(
        &mut self,
        session: &mut SchedulerSession<'_>,
        ledger: &mut [TenantRecord],
        tick: u64,
        report: &mut MaintenanceTick,
    ) {
        self.stats.sweeps += 1;
        if ledger.is_empty() {
            return;
        }
        let mut budget = self.cfg.sweep_budget;
        let span = self.cfg.sweep_candidates.min(ledger.len());
        for step in 0..span {
            if budget == 0 {
                break;
            }
            let idx = (self.sweep_cursor + step) % ledger.len();
            let candidate = &ledger[idx];
            // Tenants overlapping quarantined hosts are drain business,
            // not defrag candidates.
            if candidate.placement.assignments().iter().any(|&h| session.is_quarantined(h)) {
                continue;
            }
            let (topology, old) = (Arc::clone(&candidate.topology), candidate.placement.clone());
            if let Some((new, freed, saved)) = self.plan_defrag(session, &topology, &old, budget) {
                if session.migrate(&topology, &old, &new).is_ok() {
                    let moved = old
                        .assignments()
                        .iter()
                        .zip(new.assignments())
                        .filter(|(a, b)| a != b)
                        .count();
                    budget -= moved as u32;
                    self.apply_log(
                        tick,
                        ledger[idx].id,
                        MigrationReason::Defrag,
                        &old,
                        &new,
                        report,
                    );
                    self.stats.defrag_migrations += 1;
                    self.stats.hosts_freed += freed.max(0) as u64;
                    self.stats.bw_saved_mbps += saved.max(0) as u64;
                    ledger[idx].placement = new;
                }
            }
        }
        self.sweep_cursor = (self.sweep_cursor + span) % ledger.len();
    }

    /// Asks whether re-placing the tenant from scratch beats keeping
    /// it: plans on a scratch copy of the books and accepts only a
    /// move that frees at least one active host (without costing
    /// bandwidth) or recovers at least the configured hop-weighted
    /// bandwidth, within the remaining move budget.
    fn plan_defrag(
        &self,
        session: &SchedulerSession<'_>,
        topology: &ApplicationTopology,
        old: &Placement,
        budget: u32,
    ) -> Option<(Placement, i64, i64)> {
        let scheduler = session.scheduler();
        let infra = session.infrastructure();
        let mut trial = session.state().clone();
        scheduler.release(topology, old, &mut trial).ok()?;
        let outcome = scheduler.place(topology, &trial, &self.cfg.request).ok()?;
        let new = outcome.placement;
        let moves = old.assignments().iter().zip(new.assignments()).filter(|(a, b)| a != b).count();
        if moves == 0 || moves as u32 > budget {
            return None;
        }
        scheduler.commit(topology, &new, &mut trial).ok()?;
        let freed = session.state().active_host_count() as i64 - trial.active_host_count() as i64;
        let old_bw = reserved_bandwidth(topology, infra, old).as_mbps() as i64;
        let new_bw = reserved_bandwidth(topology, infra, &new).as_mbps() as i64;
        let saved = old_bw - new_bw;
        let accept = (freed > 0 && saved >= 0)
            || (freed >= 0 && saved >= self.cfg.min_bw_gain_mbps.max(1) as i64);
        if !accept {
            return None;
        }
        Some((new, freed, saved))
    }

    fn apply_log(
        &mut self,
        tick: u64,
        tenant: u64,
        reason: MigrationReason,
        old: &Placement,
        new: &Placement,
        report: &mut MaintenanceTick,
    ) {
        let record = MigrationRecord {
            tick,
            tenant,
            reason,
            from: old.assignments().iter().map(|h| h.index() as u32).collect(),
            to: new.assignments().iter().map(|h| h.index() as u32).collect(),
        };
        report.migrations += 1;
        report.moves += record.moved_nodes() as u32;
        self.stats.moves_spent += record.moved_nodes() as u64;
        self.log.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ostro_datacenter::InfrastructureBuilder;
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

    fn pair_app(name: &str, mbps: u64) -> ApplicationTopology {
        let mut b = TopologyBuilder::new(name);
        let a = b.vm("a", 2, 2_048).unwrap();
        let c = b.vm("c", 2, 2_048).unwrap();
        b.link(a, c, Bandwidth::from_mbps(mbps)).unwrap();
        b.build().unwrap()
    }

    fn commit_tenant(
        session: &mut SchedulerSession<'_>,
        id: u64,
        topology: ApplicationTopology,
    ) -> TenantRecord {
        let request = PlacementRequest::default();
        let outcome = session.place(&topology, &request).unwrap();
        session.commit(&topology, &outcome.placement).unwrap();
        TenantRecord { id, topology: Arc::new(topology), placement: outcome.placement }
    }

    /// Churn-decay a small fleet by hand, then verify a sweep strictly
    /// improves the fleet objective and that the books stay balanced.
    #[test]
    fn sweep_consolidates_a_fragmented_fleet() {
        let infra = infra_flat(2, 6);
        let mut session = SchedulerSession::new(&infra);
        // Fill with tenants, then depart every other one: the
        // survivors are left scattered over half-empty hosts.
        let mut ledger: Vec<TenantRecord> = (0..10)
            .map(|i| commit_tenant(&mut session, i, pair_app(&format!("t{i}"), 200)))
            .collect();
        let mut kept = Vec::new();
        for (i, t) in ledger.drain(..).enumerate() {
            if i % 2 == 0 {
                session.release(&t.topology, &t.placement).unwrap();
            } else {
                kept.push(t);
            }
        }
        let mut ledger = kept;
        let before = FragStats::compute(&infra, session.state(), &ledger);

        let cfg = MaintenanceConfig {
            sweep_budget: 32,
            sweep_candidates: 16,
            ..MaintenanceConfig::default()
        };
        let mut plane = MaintenancePlane::new(cfg, infra.host_count());
        for tick in 0..8 {
            plane.tick(&mut session, &mut ledger, tick, MaintenanceLoad::default());
        }
        let after = FragStats::compute(&infra, session.state(), &ledger);
        assert!(
            after.fleet_objective <= before.fleet_objective,
            "sweep must not worsen the fleet: {before:?} -> {after:?}"
        );
        assert!(plane.stats().defrag_migrations > 0, "fragmented fleet should yield moves");
        assert!(
            after.active_hosts < before.active_hosts || after.reserved_mbps < before.reserved_mbps
        );
        // Books still balance: every ledger placement re-releases
        // cleanly.
        for t in &ledger {
            session.release(&t.topology, &t.placement).unwrap();
        }
        assert_eq!(session.state().active_host_count(), 0);
    }

    /// A silent host is drained proactively: its tenants move away
    /// while the fleet keeps functioning, and the host ends Dead.
    #[test]
    fn silent_host_is_drained_before_death() {
        let infra = infra_flat(2, 6);
        let mut session = SchedulerSession::new(&infra);
        let mut ledger: Vec<TenantRecord> = (0..6)
            .map(|i| commit_tenant(&mut session, i, pair_app(&format!("t{i}"), 100)))
            .collect();
        let victim = ledger[0].placement.assignments()[0];

        let mut plane = MaintenancePlane::new(MaintenanceConfig::default(), infra.host_count());
        for tick in 0..200u64 {
            for i in 0..infra.host_count() {
                let host = HostId::from_index(i as u32);
                // The victim falls silent after tick 40.
                if (host != victim || tick <= 40) && tick % 5 == 0 {
                    plane.heartbeat(host, tick);
                }
            }
            plane.tick(&mut session, &mut ledger, tick, MaintenanceLoad::default());
        }
        assert_eq!(plane.monitor().state(victim), HealthState::Dead);
        assert!(session.is_quarantined(victim));
        assert!(plane.stats().drain_migrations > 0, "tenants should move off the victim");
        for t in &ledger {
            assert!(
                !t.placement.assignments().contains(&victim),
                "no tenant may remain on the drained host"
            );
        }
        assert_eq!(ledger.len(), 6, "no tenant should be abandoned");
        assert_eq!(session.state().node_count(victim), 0);
    }

    /// Sweeps yield to foreground load; drains do not.
    #[test]
    fn sweeps_yield_to_foreground_pressure() {
        let infra = infra_flat(2, 4);
        let mut session = SchedulerSession::new(&infra);
        let mut ledger = vec![commit_tenant(&mut session, 0, pair_app("t", 100))];
        let mut plane = MaintenancePlane::new(MaintenanceConfig::default(), infra.host_count());
        let busy = MaintenanceLoad { queue_depth: 100, degrade_level: 0 };
        let report = plane.tick(&mut session, &mut ledger, 0, busy);
        assert!(report.yielded);
        assert_eq!(plane.stats().sweeps, 0);
        assert_eq!(plane.stats().sweeps_yielded, 1);
        let degraded = MaintenanceLoad { queue_depth: 0, degrade_level: 1 };
        assert!(plane.tick(&mut session, &mut ledger, 1, degraded).yielded);
        let calm = MaintenanceLoad::default();
        assert!(!plane.tick(&mut session, &mut ledger, 2, calm).yielded);
        assert_eq!(plane.stats().sweeps, 1);
    }

    /// Same inputs, same migrations, same books — the determinism
    /// contract verify.sh enforces end to end.
    #[test]
    fn same_seed_maintenance_is_bit_identical() {
        let drive = || {
            let infra = infra_flat(2, 6);
            let mut session = SchedulerSession::new(&infra);
            let mut ledger: Vec<TenantRecord> = (0..8)
                .map(|i| commit_tenant(&mut session, i, pair_app(&format!("t{i}"), 150)))
                .collect();
            for t in ledger.iter().step_by(3) {
                session.release(&t.topology, &t.placement).unwrap();
            }
            let mut kept = Vec::new();
            for (i, t) in ledger.drain(..).enumerate() {
                if i % 3 != 0 {
                    kept.push(t);
                }
            }
            let mut ledger = kept;
            let mut plane = MaintenancePlane::new(MaintenanceConfig::default(), infra.host_count());
            for tick in 0..50u64 {
                for i in 0..infra.host_count() {
                    let host = HostId::from_index(i as u32);
                    if (i != 1 || tick <= 20) && tick % 5 == 0 {
                        plane.heartbeat(host, tick);
                    }
                }
                plane.tick(&mut session, &mut ledger, tick, MaintenanceLoad::default());
            }
            let log = serde_json::to_string(plane.migration_log()).unwrap();
            let placements: Vec<Vec<u32>> = ledger
                .iter()
                .map(|t| t.placement.assignments().iter().map(|h| h.index() as u32).collect())
                .collect();
            (log, placements, *plane.stats())
        };
        assert_eq!(drive(), drive());
    }
}
