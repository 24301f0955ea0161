//! Seeded inputs: data centers, tenant topologies, requests, and the
//! scratch directory for journals and traces.

use std::path::PathBuf;

use ostro_core::{Algorithm, PlacementRequest};
use ostro_datacenter::{CapacityState, Infrastructure};
use ostro_model::{ApplicationTopology, ModelError};
use ostro_sim::requirements::RequirementMix;
use ostro_sim::scenarios::{pod_fleet, sized_datacenter};
use ostro_sim::workloads::{mesh, multi_tier};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A data center and the tenancy it starts with.
pub struct World {
    pub infra: Infrastructure,
    pub base: CapacityState,
}

/// Where journals and traces go: `out/` beside this package's manifest,
/// inside the checkout the benchmark was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// 64 racks × 16 hosts with Table IV availability. The data center is
/// the same on every seed; the seed varies the traffic only.
pub fn dc_1024() -> World {
    let mut rng = SmallRng::seed_from_u64(0xDC10_2400);
    let (infra, base) =
        sized_datacenter(64, 16, true, &mut rng).expect("fixed data-center dimensions are valid");
    World { infra, base }
}

/// 100 pods × 25 racks × 40 hosts with Table IV availability per rack,
/// the same on every seed.
pub fn fleet_100k() -> World {
    let mut rng = SmallRng::seed_from_u64(0xF1EE_7100);
    let (infra, base) =
        pod_fleet(100, 25, 40, true, &mut rng).expect("fixed fleet dimensions are valid");
    World { infra, base }
}

/// A seeded deck of `kinds` cards, reshuffled whenever it runs out, so
/// that every run draws each kind equally often and only the order
/// and the contents of each draw depend on the seed.
pub struct Deck {
    kinds: usize,
    cards: Vec<usize>,
}

impl Deck {
    pub fn new(kinds: usize) -> Self {
        Deck { kinds, cards: Vec::new() }
    }

    pub fn draw(&mut self, rng: &mut SmallRng) -> usize {
        if self.cards.is_empty() {
            self.cards = (0..self.kinds).collect();
            for i in (1..self.kinds).rev() {
                self.cards.swap(i, rng.gen_range(0..=i));
            }
        }
        self.cards.pop().expect("a refilled deck is not empty")
    }
}

/// Kinds of small tenant (5–15 VMs): multi-tier stacks of one to three
/// VMs per tier and meshes of one to three groups. A kind beyond these
/// is the same shape as its remainder.
pub const SMALL_KINDS: usize = 6;

/// A freshly drawn small tenant of the given kind with Table III
/// requirements. Requirements and links differ on every draw, so no
/// bound computed for an earlier request applies.
pub fn small_tenant(kind: usize, rng: &mut SmallRng) -> Result<ApplicationTopology, ModelError> {
    let mix = RequirementMix::heterogeneous();
    let kind = kind % SMALL_KINDS;
    let size = kind % 3 + 1;
    if kind < 3 {
        multi_tier(5 * size, &mix, rng)
    } else {
        mesh(size, &mix, rng)
    }
}

/// EG with `score_threads` scoring participants.
pub fn eg(score_threads: usize) -> PlacementRequest {
    PlacementRequest { score_threads, ..PlacementRequest::with_algorithm(Algorithm::Greedy) }
}

/// BA\* with a fixed expansion cap, so its effort (and its decision)
/// does not depend on the wall clock.
pub fn bastar_capped(score_threads: usize, max_expansions: u64) -> PlacementRequest {
    PlacementRequest {
        score_threads,
        max_expansions,
        ..PlacementRequest::with_algorithm(Algorithm::BoundedAStar)
    }
}
