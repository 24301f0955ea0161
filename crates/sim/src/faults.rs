//! Deterministic, seeded fault injection for churn simulations.
//!
//! A [`FaultPlan`] is generated once per run from a [`FaultConfig`] and
//! pre-computes every fault the run will see:
//!
//! * **Host crashes** are scheduled up front — `(tick, host)` pairs
//!   drawn from a seeded RNG — so two runs with the same seed kill the
//!   same hosts at the same ticks.
//! * **Transient launch failures** are drawn from a stateless
//!   splitmix64 hash of `(seed, tick, node, host, attempt)`: the
//!   verdict depends only on the coordinates of the attempt, never on
//!   how many other random draws happened first, which keeps the plan
//!   bit-deterministic even when deployment order changes.
//! * **Stale-capacity races** — a concurrent actor grabbing capacity
//!   between *decide* and *commit* — are likewise hash-drawn per tick,
//!   naming the host whose free capacity shrinks under the deployment.
//!
//! [`PlanProbe`] adapts a plan to the executor's
//! [`FaultProbe`](ostro_core::FaultProbe) interface for one tick.
//!
//! [`ChaosPlan`] extends the same stateless-draw idiom to the
//! *service* layer: seeded planner panics, planning latency spikes,
//! and WAL I/O faults, packaged as the hooks
//! ([`PlanHook`](ostro_core::PlanHook) /
//! [`WalFaultHook`](ostro_core::WalFaultHook)) the placement service
//! and the session accept.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ostro_core::{FaultProbe, LaunchVerdict, PlanHook, WalFault, WalFaultHook, WalIoOp};
use ostro_datacenter::HostId;
use ostro_model::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Knobs of a seeded fault-injection plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed for every fault stream (independent of the workload seed).
    pub seed: u64,
    /// Host crashes to schedule across the run (distinct hosts).
    pub host_crashes: usize,
    /// Probability that one launch attempt fails transiently.
    pub launch_failure_prob: f64,
    /// Per-tick probability that a stale-capacity race hits the
    /// arrival's deployment.
    pub stale_race_prob: f64,
    /// Fraction of the raced host's free capacity the concurrent actor
    /// grabs (clamped to `0.0..=1.0`).
    pub stale_race_fraction: f64,
    /// Probability that a stale race *leaks*: the concurrent actor dies
    /// holding its grab, so nothing ever releases it and the session's
    /// books drift until an anti-entropy sweep reclaims the orphan.
    #[serde(default)]
    pub race_leak_prob: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xF_A0_17,
            host_crashes: 2,
            launch_failure_prob: 0.05,
            stale_race_prob: 0.1,
            stale_race_fraction: 0.5,
            race_leak_prob: 0.0,
        }
    }
}

/// A fully materialized fault schedule for one churn run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    config: FaultConfig,
    /// Crash schedule, sorted by tick: `(tick, host)`.
    crashes: Vec<(usize, HostId)>,
}

impl FaultPlan {
    /// Generates the plan for a run of `horizon` ticks over
    /// `host_count` hosts. Crash ticks and victims are drawn from a
    /// seeded RNG; each host crashes at most once, and at most
    /// `horizon` crashes are scheduled.
    #[must_use]
    pub fn generate(config: &FaultConfig, host_count: usize, horizon: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xC4A5_4E5C_4ED0_1E5A);
        let wanted = config.host_crashes.min(host_count.saturating_sub(1)).min(horizon);
        let mut victims: Vec<HostId> = Vec::with_capacity(wanted);
        let mut crashes: Vec<(usize, HostId)> = Vec::with_capacity(wanted);
        while crashes.len() < wanted {
            let host = HostId::from_index(rng.gen_range(0..host_count as u32));
            if victims.contains(&host) {
                continue;
            }
            victims.push(host);
            // Crash somewhere in the middle of the run so there are
            // tenants to evacuate and ticks left to observe recovery.
            let tick = rng.gen_range(1..horizon.max(2));
            crashes.push((tick, host));
        }
        crashes.sort_unstable_by_key(|&(tick, host)| (tick, host.index()));
        FaultPlan { config: config.clone(), crashes }
    }

    /// The configuration this plan was generated from.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The full crash schedule, sorted by tick.
    #[must_use]
    pub fn crashes(&self) -> &[(usize, HostId)] {
        &self.crashes
    }

    /// Hosts scheduled to crash at `tick`, in deterministic order.
    pub fn crashes_at(&self, tick: usize) -> impl Iterator<Item = HostId> + '_ {
        self.crashes.iter().filter(move |&&(t, _)| t == tick).map(|&(_, h)| h)
    }

    /// Whether launch attempt number `attempt` of `node` onto `host` at
    /// `tick` fails transiently. Stateless: the verdict is a pure
    /// function of the plan seed and the attempt coordinates.
    #[must_use]
    pub fn launch_fails(&self, tick: usize, node: NodeId, host: HostId, attempt: u32) -> bool {
        let draw = hash_unit(&[
            self.config.seed,
            0x1A_0C_11,
            tick as u64,
            node.index() as u64,
            host.index() as u64,
            u64::from(attempt),
        ]);
        draw < self.config.launch_failure_prob
    }

    /// The host hit by a stale-capacity race at `tick`, if any.
    #[must_use]
    pub fn stale_race(&self, tick: usize, host_count: usize) -> Option<HostId> {
        if host_count == 0 {
            return None;
        }
        let draw = hash_unit(&[self.config.seed, 0x57A1E, tick as u64]);
        if draw >= self.config.stale_race_prob {
            return None;
        }
        let pick = hash(&[self.config.seed, 0x57A1E + 1, tick as u64]);
        Some(HostId::from_index((pick % host_count as u64) as u32))
    }

    /// The clamped fraction of free capacity a race grabs.
    #[must_use]
    pub fn stale_race_fraction(&self) -> f64 {
        self.config.stale_race_fraction.clamp(0.0, 1.0)
    }

    /// Whether the stale race at `tick` leaks its grab (the actor dies
    /// before releasing). Hash-drawn like the race itself, so the
    /// verdict is a pure function of the plan seed and the tick.
    #[must_use]
    pub fn race_leaks(&self, tick: usize) -> bool {
        let draw = hash_unit(&[self.config.seed, 0x1EA4_0CB5, tick as u64]);
        draw < self.config.race_leak_prob
    }
}

/// One tick's view of a [`FaultPlan`] as the deployment executor's
/// fault probe.
#[derive(Debug, Clone, Copy)]
pub struct PlanProbe<'a> {
    plan: &'a FaultPlan,
    tick: usize,
}

impl<'a> PlanProbe<'a> {
    /// A probe injecting the plan's launch failures for `tick`.
    #[must_use]
    pub fn new(plan: &'a FaultPlan, tick: usize) -> Self {
        PlanProbe { plan, tick }
    }
}

impl FaultProbe for PlanProbe<'_> {
    fn launch(&mut self, node: NodeId, host: HostId, attempt: u32) -> LaunchVerdict {
        if self.plan.launch_fails(self.tick, node, host, attempt) {
            LaunchVerdict::TransientFailure
        } else {
            LaunchVerdict::Launched
        }
    }
}

/// Knobs of a seeded service-layer chaos plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Seed for every chaos stream (independent of workload and churn
    /// fault seeds).
    pub seed: u64,
    /// Probability that one planning invocation panics.
    pub panic_prob: f64,
    /// Probability that one planning invocation stalls for
    /// [`latency_ms`](Self::latency_ms).
    pub latency_prob: f64,
    /// Length of an injected planning stall, in milliseconds.
    pub latency_ms: u64,
    /// Probability that one WAL I/O operation draws a fault.
    pub wal_fault_prob: f64,
    /// Of drawn WAL faults, the fraction that are torn writes; the
    /// rest surface as I/O errors (disk-full).
    pub torn_fraction: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A0_5EED,
            panic_prob: 0.02,
            latency_prob: 0.05,
            latency_ms: 2,
            wal_fault_prob: 0.01,
            torn_fraction: 0.25,
        }
    }
}

/// A seeded chaos schedule for one service run. Every verdict is a
/// stateless hash of the seed and the event's coordinates — the
/// planning-invocation ordinal, or the WAL `(operation, sequence)`
/// pair — so the same seed draws the same faults regardless of how
/// calls interleave.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    config: ChaosConfig,
}

impl ChaosPlan {
    /// Materializes the plan (pure configuration; the draws are lazy).
    #[must_use]
    pub fn new(config: ChaosConfig) -> Self {
        ChaosPlan { config }
    }

    /// The configuration this plan draws from.
    #[must_use]
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Whether planning invocation number `invocation` panics.
    #[must_use]
    pub fn planner_panics(&self, invocation: u64) -> bool {
        hash_unit(&[self.config.seed, 0x9A01C, invocation]) < self.config.panic_prob
    }

    /// The stall injected into planning invocation `invocation`, in
    /// milliseconds (0 = none).
    #[must_use]
    pub fn latency_spike_ms(&self, invocation: u64) -> u64 {
        if hash_unit(&[self.config.seed, 0x01A7_E4C1, invocation]) < self.config.latency_prob {
            self.config.latency_ms
        } else {
            0
        }
    }

    /// The fault (if any) drawn for WAL operation `op` at journal
    /// sequence `seq`.
    #[must_use]
    pub fn wal_fault(&self, op: WalIoOp, seq: u64) -> Option<WalFault> {
        let op_tag = match op {
            WalIoOp::Append => 1u64,
            WalIoOp::Sync => 2,
            _ => 3,
        };
        if hash_unit(&[self.config.seed, 0x3A11_F417, op_tag, seq]) >= self.config.wal_fault_prob {
            return None;
        }
        // Torn writes only make sense for appends; everything else
        // surfaces as the I/O error.
        if op == WalIoOp::Append
            && hash_unit(&[self.config.seed, 0x7042, op_tag, seq]) < self.config.torn_fraction
        {
            Some(WalFault::Torn)
        } else {
            Some(WalFault::Error(std::io::ErrorKind::StorageFull))
        }
    }

    /// The plan as a service plan hook: each planning invocation takes
    /// the next ordinal from a shared counter, sleeps through its
    /// latency spike, then panics if the draw says so. Deterministic:
    /// the service's single writer plans in queue order, so the
    /// ordinals follow the submission order.
    #[must_use]
    pub fn plan_hook(&self) -> PlanHook {
        let plan = self.clone();
        let invocations = Arc::new(AtomicU64::new(0));
        PlanHook::new(move |_topology| {
            let i = invocations.fetch_add(1, Ordering::Relaxed);
            let stall = plan.latency_spike_ms(i);
            if stall > 0 {
                std::thread::sleep(Duration::from_millis(stall));
            }
            if plan.planner_panics(i) {
                panic!("chaos: injected planner panic at invocation {i}");
            }
        })
    }

    /// The plan as a WAL fault hook. Draws on the hook's own
    /// consultation ordinal rather than the journal sequence the
    /// operation reports: a rejected batch rewinds the journal and
    /// *reuses* its sequence numbers, and drawing on those would
    /// re-inject the identical fault forever — a permanent wedge
    /// instead of a transient one. The ordinal always advances, so the
    /// disk "heals" the way a real flaky disk does, while staying a
    /// pure function of the consultation history (deterministic for a
    /// serialized run).
    #[must_use]
    pub fn wal_hook(&self) -> WalFaultHook {
        let plan = self.clone();
        let consults = Arc::new(AtomicU64::new(0));
        WalFaultHook::new(move |op, _seq| {
            plan.wal_fault(op, consults.fetch_add(1, Ordering::Relaxed))
        })
    }
}

/// splitmix64 finalizer — the same mixer the vendored rand facade uses
/// for seeding, applied here as a stateless hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive hash of a word sequence.
fn hash(parts: &[u64]) -> u64 {
    let mut h = 0x0DD0_5EED_F417_5EEDu64;
    for &p in parts {
        h = mix(h ^ p);
    }
    h
}

/// A hash mapped to the unit interval `[0, 1)` with 53-bit precision.
fn hash_unit(parts: &[u64]) -> f64 {
    (hash(parts) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(crashes: usize) -> FaultPlan {
        let config = FaultConfig { host_crashes: crashes, ..FaultConfig::default() };
        FaultPlan::generate(&config, 48, 30)
    }

    #[test]
    fn same_seed_same_plan() {
        assert_eq!(plan(5), plan(5));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(&FaultConfig::default(), 48, 30);
        let b = FaultPlan::generate(&FaultConfig { seed: 99, ..FaultConfig::default() }, 48, 30);
        assert_ne!(a, b);
    }

    #[test]
    fn crash_schedule_is_distinct_and_in_range() {
        let p = plan(10);
        assert_eq!(p.crashes().len(), 10);
        let mut hosts: Vec<_> = p.crashes().iter().map(|&(_, h)| h).collect();
        hosts.sort_unstable_by_key(|h| h.index());
        hosts.dedup();
        assert_eq!(hosts.len(), 10, "each host crashes at most once");
        assert!(p.crashes().iter().all(|&(t, h)| t < 30 && h.index() < 48));
        let at: Vec<_> = p.crashes_at(p.crashes()[0].0).collect();
        assert!(at.contains(&p.crashes()[0].1));
    }

    #[test]
    fn crash_count_is_clamped_to_the_fleet() {
        let config = FaultConfig { host_crashes: 100, ..FaultConfig::default() };
        let p = FaultPlan::generate(&config, 4, 30);
        assert_eq!(p.crashes().len(), 3, "always leaves at least one host alive");
    }

    #[test]
    fn launch_failures_are_order_independent() {
        let p = plan(0);
        let node = NodeId::from_index(3);
        let host = HostId::from_index(7);
        let first = p.launch_fails(5, node, host, 0);
        // Interleave unrelated draws; the original coordinates still
        // produce the same verdict.
        let _ = p.launch_fails(6, node, host, 0);
        let _ = p.launch_fails(5, NodeId::from_index(4), host, 2);
        assert_eq!(p.launch_fails(5, node, host, 0), first);
    }

    #[test]
    fn launch_failure_rate_tracks_probability() {
        let config = FaultConfig { launch_failure_prob: 0.2, ..FaultConfig::default() };
        let p = FaultPlan::generate(&config, 48, 30);
        let mut fails = 0u32;
        let trials = 10_000;
        for i in 0..trials {
            if p.launch_fails(i as usize, NodeId::from_index(0), HostId::from_index(0), 0) {
                fails += 1;
            }
        }
        let rate = f64::from(fails) / f64::from(trials);
        assert!((rate - 0.2).abs() < 0.02, "empirical rate {rate} too far from 0.2");
    }

    #[test]
    fn zero_probability_never_fails_and_probe_agrees() {
        let config = FaultConfig {
            launch_failure_prob: 0.0,
            stale_race_prob: 0.0,
            ..FaultConfig::default()
        };
        let p = FaultPlan::generate(&config, 48, 30);
        let mut probe = PlanProbe::new(&p, 3);
        for attempt in 0..50 {
            assert_eq!(
                probe.launch(NodeId::from_index(1), HostId::from_index(2), attempt),
                LaunchVerdict::Launched
            );
        }
        assert_eq!(p.stale_race(3, 48), None);
    }

    #[test]
    fn race_leaks_are_deterministic_and_gated_on_probability() {
        let never = FaultPlan::generate(&FaultConfig::default(), 48, 30);
        assert!((0..30).all(|t| !never.race_leaks(t)), "default never leaks");
        let config = FaultConfig { race_leak_prob: 1.0, ..FaultConfig::default() };
        let always = FaultPlan::generate(&config, 48, 30);
        assert!((0..30).all(|t| always.race_leaks(t)));
        let config = FaultConfig { race_leak_prob: 0.5, ..FaultConfig::default() };
        let p = FaultPlan::generate(&config, 48, 30);
        for tick in 0..30 {
            assert_eq!(p.race_leaks(tick), p.race_leaks(tick));
        }
    }

    #[test]
    fn chaos_draws_are_deterministic_and_gated() {
        let plan = ChaosPlan::new(ChaosConfig::default());
        for i in 0..200 {
            assert_eq!(plan.planner_panics(i), plan.planner_panics(i));
            assert_eq!(plan.latency_spike_ms(i), plan.latency_spike_ms(i));
            assert_eq!(
                plan.wal_fault(WalIoOp::Sync, i),
                plan.wal_fault(WalIoOp::Sync, i),
                "WAL draws must be pure functions of (op, seq)"
            );
        }

        let quiet = ChaosPlan::new(ChaosConfig {
            panic_prob: 0.0,
            latency_prob: 0.0,
            wal_fault_prob: 0.0,
            ..ChaosConfig::default()
        });
        for i in 0..200 {
            assert!(!quiet.planner_panics(i));
            assert_eq!(quiet.latency_spike_ms(i), 0);
            assert_eq!(quiet.wal_fault(WalIoOp::Append, i), None);
        }

        let loud = ChaosPlan::new(ChaosConfig {
            panic_prob: 1.0,
            latency_prob: 1.0,
            latency_ms: 7,
            wal_fault_prob: 1.0,
            torn_fraction: 1.0,
            ..ChaosConfig::default()
        });
        assert!(loud.planner_panics(0));
        assert_eq!(loud.latency_spike_ms(0), 7);
        assert_eq!(
            loud.wal_fault(WalIoOp::Append, 3),
            Some(WalFault::Torn),
            "torn fraction 1.0 makes every append fault a torn write"
        );
        assert!(
            matches!(loud.wal_fault(WalIoOp::Sync, 3), Some(WalFault::Error(_))),
            "torn writes never hit syncs"
        );
    }

    #[test]
    fn stale_races_are_deterministic_and_in_range() {
        let config = FaultConfig { stale_race_prob: 1.0, ..FaultConfig::default() };
        let p = FaultPlan::generate(&config, 48, 30);
        for tick in 0..30 {
            let a = p.stale_race(tick, 48);
            let b = p.stale_race(tick, 48);
            assert_eq!(a, b);
            let host = a.expect("probability 1 always races");
            assert!(host.index() < 48);
        }
        assert_eq!(p.stale_race(0, 0), None);
    }
}
