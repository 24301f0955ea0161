//! Moves a thread between the machine's CPUs, one step on each in
//! turn: the closed-loop client between operations, the service's
//! planner every [`PLANNER_TURN`], and every workload's set-ups.
//!
//! A lone busy thread stays on the CPU it started on, so a run would
//! time that one CPU. On a shared host the CPUs of one machine run at
//! different speeds that drift apart and back over minutes (on a
//! two-vCPU VM, one CPU timed the same steps at 20, 24 and 30 ms while
//! the other held 27 ms). Taking turns times every CPU alike and the
//! run measures their average.

use std::time::Duration;

/// How long the service's planner stays on one CPU.
pub const PLANNER_TURN: Duration = Duration::from_millis(100);

#[cfg(target_os = "linux")]
mod imp {
    /// 16 × 64 = 1024 CPUs, the kernel's default `CPU_SETSIZE`.
    const MASK_WORDS: usize = 16;

    // Raw glibc/musl bindings (`pid_t`, `size_t`, `cpu_set_t*`): std
    // already links libc.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub type Mask = [u64; MASK_WORDS];

    /// Thread `tid`'s affinity mask (0: the calling thread), if it can
    /// be read.
    pub fn get(tid: i32) -> Option<Mask> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly `cpusetsize`
        // bytes.
        let rc = unsafe { sched_getaffinity(tid, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Sets thread `tid`'s affinity mask; best effort.
    pub fn set(tid: i32, mask: &Mask) {
        // SAFETY: `mask` is a readable buffer of exactly `cpusetsize`
        // bytes; a failed call leaves the affinity unchanged.
        let _ = unsafe { sched_setaffinity(tid, std::mem::size_of_val(mask), mask.as_ptr()) };
    }

    /// The ids of the process's threads other than the calling one.
    pub fn other_threads() -> Vec<i32> {
        let own = std::fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|p| p.file_name()?.to_str()?.parse::<i32>().ok());
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return Vec::new();
        };
        tasks
            .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<i32>().ok())
            .filter(|&tid| Some(tid) != own)
            .collect()
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub type Mask = [u64; 1];

    pub fn get(_: i32) -> Option<Mask> {
        None
    }

    pub fn set(_: i32, _: &Mask) {}

    pub fn other_threads() -> Vec<i32> {
        Vec::new()
    }
}

/// Takes one thread through its allowed CPUs in turn, and gives it all
/// of them back when dropped.
pub struct Rotation {
    tid: i32,
    allowed: Option<imp::Mask>,
    cpus: Vec<usize>,
    next: usize,
}

impl Rotation {
    /// Rotates the calling thread.
    pub fn new() -> Self {
        Rotation::of(0)
    }

    /// Rotates the thread with id `tid`.
    fn of(tid: i32) -> Self {
        let allowed = imp::get(tid);
        let cpus = allowed.map_or_else(Vec::new, |mask| {
            (0..mask.len() * 64).filter(|&c| mask[c / 64] & (1u64 << (c % 64)) != 0).collect()
        });
        Rotation { tid, allowed, cpus, next: 0 }
    }

    /// Rotates every thread of the process but the calling one: called
    /// from the closure a service's `serve` runs, the service's
    /// planners.
    pub fn others() -> Vec<Rotation> {
        imp::other_threads().into_iter().map(Rotation::of).collect()
    }

    /// Moves the thread to the next CPU.
    pub fn step(&mut self) {
        let Some(mut mask) = self.allowed.filter(|_| self.cpus.len() > 1) else {
            return;
        };
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        mask.fill(0);
        mask[cpu / 64] = 1u64 << (cpu % 64);
        imp::set(self.tid, &mask);
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        if let Some(allowed) = &self.allowed {
            imp::set(self.tid, allowed);
        }
    }
}
