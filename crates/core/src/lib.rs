#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! The Ostro placement engine: holistic scheduling of whole application
//! topologies onto hierarchical data centers.
//!
//! This crate implements the paper's three contributions plus the two
//! baselines it evaluates against:
//!
//! | Paper name | [`Algorithm`] variant | Section |
//! |------------|----------------------|---------|
//! | EGC  | [`Algorithm::GreedyCompute`]        | §IV-A |
//! | EGBW | [`Algorithm::GreedyBandwidth`]      | §IV-A |
//! | EG   | [`Algorithm::Greedy`]               | §III-A |
//! | BA\*  | [`Algorithm::BoundedAStar`]         | §III-B |
//! | DBA\* | [`Algorithm::DeadlineBoundedAStar`] | §III-C |
//!
//! The engine minimizes `θbw·ubw/ûbw + θc·uc/ûc` — reserved network
//! bandwidth plus newly activated hosts, both normalized against the
//! worst case — subject to host capacity, per-link bandwidth, and
//! diversity-zone (anti-affinity) constraints.
//!
//! # Example
//!
//! ```
//! use ostro_core::{Algorithm, PlacementRequest, Scheduler};
//! use ostro_datacenter::{CapacityState, InfrastructureBuilder};
//! use ostro_model::{Bandwidth, Resources, TopologyBuilder};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let infra = InfrastructureBuilder::flat(
//!     "dc", 4, 8,
//!     Resources::new(16, 32_768, 1_000),
//!     Bandwidth::from_gbps(10),
//!     Bandwidth::from_gbps(100),
//! ).build()?;
//!
//! let mut b = TopologyBuilder::new("three-tier");
//! let lb = b.vm("lb", 2, 2_048)?;
//! let app = b.vm("app", 4, 8_192)?;
//! let db = b.vm("db", 4, 8_192)?;
//! b.link(lb, app, Bandwidth::from_mbps(200))?;
//! b.link(app, db, Bandwidth::from_mbps(100))?;
//! let topology = b.build()?;
//!
//! let scheduler = Scheduler::new(&infra);
//! let state = CapacityState::new(&infra);
//! let request = PlacementRequest::with_algorithm(
//!     Algorithm::DeadlineBoundedAStar { deadline: Duration::from_millis(500) },
//! );
//! let outcome = scheduler.place(&topology, &state, &request)?;
//! println!(
//!     "reserved {} on {} hosts in {:?}",
//!     outcome.reserved_bandwidth, outcome.hosts_used, outcome.elapsed,
//! );
//! # Ok(())
//! # }
//! ```

mod astar;
mod baselines;
#[doc(hidden)]
pub mod bench_support;
mod candidates;
mod deadline;
mod defrag;
mod deploy;
mod error;
mod greedy;
mod health;
mod heuristic;
mod objective;
mod online;
mod placement;
mod pool;
mod reconcile;
mod request;
mod scheduler;
mod search;
mod service;
mod session;
mod shard;
mod validate;
pub mod wal;

pub use defrag::{
    FragStats, MaintStats, MaintenanceConfig, MaintenanceLoad, MaintenancePlane, MaintenanceTick,
    MigrationReason, MigrationRecord, TenantRecord,
};
pub use deploy::{
    Degradation, DeployError, DeployPolicy, DeploymentReport, EvacuationOutcome, FaultProbe,
    LaunchVerdict, NoFaults, NodeFate,
};
pub use error::PlacementError;
pub use health::{HealthConfig, HealthMonitor, HealthState, HealthTransition};
pub use objective::{Normalizers, ObjectiveWeights};
pub use online::OnlineOutcome;
pub use placement::{Placement, PlacementOutcome, SearchStats};
pub use reconcile::{Divergence, DivergenceKind, HostTruth, ReconcileReport};
pub use request::{Algorithm, PlacementRequest};
pub use scheduler::Scheduler;
pub use service::{
    DegradePolicy, DurabilityPolicy, PlacementService, PlanHook, ServiceConfig, ServiceHandle,
    ServiceOutcome, ServiceResponse, ServiceStats, Ticket,
};
pub use session::SchedulerSession;
pub use validate::{reserved_bandwidth, verify_placement, Violation};
pub use wal::{
    recover, Recovery, SyncPolicy, Wal, WalError, WalFault, WalFaultHook, WalIoOp, WalOptions,
};
