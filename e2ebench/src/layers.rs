//! Per-layer counters read off each placement outcome's search stats,
//! summed over the timed requests of a run.

use ostro_core::PlacementOutcome;

use crate::report::{ratio, Dist, Report};

#[derive(Default)]
pub struct SearchTotals {
    requests: u64,
    search: Dist,
    expanded: u64,
    scanned: u64,
    pruned: u64,
    evals: u64,
    memo_hits: u64,
    session_hits: u64,
    session_misses: u64,
    dirty_hosts: u64,
    pods_scanned: u64,
    pods_pruned: u64,
    fallbacks: u64,
}

impl SearchTotals {
    pub fn add(&mut self, outcome: &PlacementOutcome) {
        let s = &outcome.stats;
        self.requests += 1;
        self.search.push(outcome.elapsed);
        self.expanded += s.expanded;
        self.scanned += s.candidates_scanned;
        self.pruned += s.candidates_pruned_simd;
        self.evals += s.heuristic_evals;
        self.memo_hits += s.bound_cache_hits;
        self.session_hits += s.session_cache_hits;
        self.session_misses += s.session_cache_misses;
        self.dirty_hosts += s.session_dirty_hosts;
        self.pods_scanned += s.pods_scanned;
        self.pods_pruned += s.pods_pruned;
        self.fallbacks += s.shard_fallbacks;
    }

    /// Adds the search, session-cache, shard, candidate and heuristic
    /// metrics.
    pub fn report(&self, r: &mut Report) {
        let n = self.requests as usize;
        let per = |x: u64| ratio(x as f64, self.requests as f64);
        r.add_dist("search.time", &self.search);
        r.add("search.expanded_per_request", per(self.expanded), "count", Some(n));
        r.add("session.dirty_hosts_per_request", per(self.dirty_hosts), "count", Some(n));
        let lookups = self.session_hits + self.session_misses;
        r.add(
            "session.cache_hit_ratio",
            ratio(self.session_hits as f64, lookups as f64),
            "ratio",
            Some(lookups as usize),
        );
        let pods_n = if self.pods_scanned > 0 { n } else { 0 };
        r.add("shard.pods_scanned_per_request", per(self.pods_scanned), "count", Some(pods_n));
        r.add(
            "shard.pods_pruned_ratio",
            ratio(self.pods_pruned as f64, self.pods_scanned as f64),
            "ratio",
            Some(self.pods_scanned as usize),
        );
        r.add("shard.fallback_share", per(self.fallbacks), "ratio", Some(pods_n));
        r.add("candidates.scanned_per_request", per(self.scanned), "count", Some(n));
        r.add(
            "candidates.pruned_ratio",
            ratio(self.pruned as f64, self.scanned as f64),
            "ratio",
            Some(self.scanned as usize),
        );
        r.add("heuristic.evals_per_request", per(self.evals), "count", Some(n));
        r.add(
            "heuristic.memo_hit_ratio",
            ratio(self.memo_hits as f64, self.evals as f64),
            "ratio",
            Some(self.evals as usize),
        );
    }
}
