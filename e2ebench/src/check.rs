//! Correctness checks shared by every workload: a commit-order replay
//! of the acknowledged mutations that must reproduce the final books,
//! with `verify_placement` run on every committed decision against the
//! books it was committed to, and decision digests for the
//! same-seed determinism check.

use std::sync::Arc;

use ostro_core::{verify_placement, Placement, Scheduler};
use ostro_datacenter::{CapacityState, HostId, Infrastructure};
use ostro_model::ApplicationTopology;

/// One acknowledged change to the books.
pub enum Mutation {
    Commit {
        topology: Arc<ApplicationTopology>,
        placement: Placement,
    },
    Release {
        topology: Arc<ApplicationTopology>,
        placement: Placement,
    },
    /// An evacuation's release of a tenant's whole assignment.
    ReleasePartial {
        topology: Arc<ApplicationTopology>,
        assignment: Vec<Option<HostId>>,
    },
    Quarantine {
        host: HostId,
    },
}

/// Replays `log` in order over `base` and returns the books it yields.
/// Every failure, including a committed decision that does not verify
/// against the books it landed on, is appended to `failures`.
pub fn replay(
    infra: &Infrastructure,
    base: &CapacityState,
    log: &[Mutation],
    failures: &mut Vec<String>,
) -> CapacityState {
    let scheduler = Scheduler::new(infra);
    let mut state = base.clone();
    let mut quarantined = vec![false; infra.host_count()];
    // A release restores capacity on hosts it touches; a quarantined
    // host must stay frozen, as the session keeps it.
    let refreeze = |state: &mut CapacityState, quarantined: &[bool], hosts: &[HostId]| {
        for &h in hosts {
            if quarantined[h.index()] {
                state.quarantine_host(h);
            }
        }
    };
    for (i, m) in log.iter().enumerate() {
        let result = match m {
            Mutation::Commit { topology, placement } => {
                match verify_placement(topology, infra, &state, placement) {
                    Ok(v) if v.is_empty() => {}
                    Ok(v) => failures.push(format!("mutation {i}: decision violates {v:?}")),
                    Err(e) => failures.push(format!("mutation {i}: verify failed: {e}")),
                }
                scheduler.commit(topology, placement, &mut state)
            }
            Mutation::Release { topology, placement } => {
                let r = scheduler.release(topology, placement, &mut state);
                refreeze(&mut state, &quarantined, placement.assignments());
                r
            }
            Mutation::ReleasePartial { topology, assignment } => {
                let r = scheduler.release_partial(topology, assignment, &mut state);
                let hosts: Vec<HostId> = assignment.iter().flatten().copied().collect();
                refreeze(&mut state, &quarantined, &hosts);
                r
            }
            Mutation::Quarantine { host } => {
                quarantined[host.index()] = true;
                state.quarantine_host(*host);
                Ok(())
            }
        };
        if let Err(e) = result {
            failures.push(format!("mutation {i}: replay failed: {e}"));
        }
    }
    state
}

/// splitmix64 finalizer.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A running digest over the decisions of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn mark(&mut self, tag: u64) {
        self.0 = mix64(self.0 ^ tag);
    }

    pub fn placement(&mut self, placement: &Placement) {
        for h in placement.assignments() {
            self.mark(h.index() as u64);
        }
    }
}
