//! Library half of the FlexTM benchmark: the tracing decorators and
//! the measurements the benchmark binary and its tests share.
//!
//! The benchmark measures the repository's crates from outside: it
//! times calls into their public entry points and reads the public
//! `MachineReport` counters. See `LAYERS.md` for what each metric
//! means and which change should move it.

pub mod trace;

use flextm_bench::cell::{fnv1a, FNV_OFFSET};
use flextm_sim::MachineReport;
use std::hint::black_box;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`) and their units, as listed in
/// `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sim_ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`) and their units, as listed in
/// `BENCHMARK.json`. A workload reports 0 for a layer it does not run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.setup_s", "s"),
    ("workloads.warm_s", "s"),
    ("workloads.body_ns_per_txn", "ns"),
    ("runtime.txn_ns_per_attempt", "ns"),
    ("runtime.attempts_per_commit", "ratio"),
    ("runtime.aborts.aou_alert", "count"),
    ("runtime.aborts.strong_isolation", "count"),
    ("runtime.aborts.lost_tsw", "count"),
    ("runtime.aborts.commit_conflicts", "count"),
    ("runtime.aborts.cm_self", "count"),
    ("runtime.aborts.summary_trap", "count"),
    ("runtime.aborts.explicit", "count"),
    ("access.calls", "count"),
    ("access.ns_per_sim_op", "ns"),
    ("access.cost_ratio_64_1", "ratio"),
    ("sched.fast_ops", "count"),
    ("sched.epoch_ops", "count"),
    ("sched.slow_ops", "count"),
    ("sched.grants", "count"),
    ("sched.bank_conflict_grants", "count"),
    ("sched.rendezvous_per_op", "ratio"),
    ("sched.run_s", "s"),
    ("proto.l1_hit_rate", "ratio"),
    ("proto.l1_misses", "count"),
    ("proto.l2_misses", "count"),
    ("proto.threatened", "count"),
    ("proto.exposed", "count"),
    ("proto.alerts", "count"),
    ("proto.overflows", "count"),
    ("proto.ot_hits", "count"),
    ("proto.nacks", "count"),
    ("proto.writebacks", "count"),
    ("proto.commits", "count"),
    ("proto.failed_commits", "count"),
    ("proto.cycles.work", "share"),
    ("proto.cycles.mem", "share"),
    ("proto.cycles.stall", "share"),
    ("proto.cycles.wasted", "share"),
    ("sim.tx_per_mcycle", "tx/Mcycle"),
    ("check.states", "count"),
    ("check.transitions", "count"),
    ("check.levels", "count"),
    ("check.states_per_s", "1/s"),
    ("check.level_s_max", "s"),
    ("check.fork_ns", "ns"),
    ("check.apply_ns", "ns"),
    ("check.canon_ns", "ns"),
    ("sweep.cells", "count"),
    ("sweep.executed", "count"),
    ("sweep.cached", "count"),
    ("sweep.failed", "count"),
    ("sweep.cell_s_sum", "s"),
    ("sweep.farm_overhead_s", "s"),
    ("sweep.aggregate_s", "s"),
    ("sweep.warm_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.segment_ns", "ns"),
];

/// Elements the host-speed reference kernel sorts.
const REF_LEN: usize = 1 << 16;
/// Reference-kernel batches per measurement (the median counts).
const REF_BATCHES: usize = 9;

/// The reference time host seconds are scaled to: a host on which one
/// reference batch takes exactly this long reports raw seconds.
pub const REF_NOMINAL_S: f64 = 0.002;

/// Generates `REF_LEN` xorshift values from `seed` and sorts them.
/// Branchy, cache-resident integer code, like the simulator's hot
/// paths.
fn ref_sort(seed: u64) {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64 ^ seed;
    let mut v: Vec<u32> = (0..REF_LEN)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    v.sort_unstable();
    black_box(v[REF_LEN / 2]);
}

/// Seconds of one reference sort on this host, from one batch: `jobs`
/// threads each time one [`ref_sort`], and the batch reports the
/// harmonic mean of their times. The measured work spreads over its
/// workers dynamically, so its speed follows the sum of the threads'
/// speeds, not the slowest thread. With one job the sort runs on the
/// calling thread, the one that runs the measured work, so it shares
/// that work's CPU rather than landing on whichever CPU a new thread is
/// given.
fn ref_batch(jobs: usize) -> f64 {
    let timed = |seed: u64| {
        let t0 = Instant::now();
        ref_sort(seed);
        t0.elapsed().as_secs_f64()
    };
    if jobs == 1 {
        return timed(0);
    }
    let rate: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs as u64)
            .map(|j| s.spawn(move || 1.0 / timed(j)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread"))
            .sum()
    });
    jobs as f64 / rate
}

fn ref_measure(jobs: usize) -> f64 {
    let mut t: Vec<f64> = (0..REF_BATCHES).map(|_| ref_batch(jobs)).collect();
    t.sort_by(f64::total_cmp);
    t[REF_BATCHES / 2]
}

/// Host-speed normalisation. The host this benchmark runs on shares
/// its cores with other tenants, and its speed drifts by tens of per
/// cent over about ten seconds, long enough that the median of one run
/// follows it. A fixed reference kernel, timed before and after each
/// repetition, slows down with the host; scaling each repetition's
/// host times by the reference around it removes much of the drift.
/// The reference is benchmark code, so no change to the program moves
/// it.
pub struct HostClock {
    jobs: usize,
    samples: Vec<f64>,
}

impl HostClock {
    /// Measures the reference once with `jobs` parallel threads (the
    /// parallelism of the measured work).
    pub fn new(jobs: usize) -> Self {
        HostClock {
            jobs,
            samples: vec![ref_measure(jobs)],
        }
    }

    /// Measures the reference again (call after each repetition) and
    /// returns the factor that scales the repetition's host seconds to
    /// reference seconds: `REF_NOMINAL_S` over the mean of the
    /// reference times just before and just after it.
    pub fn sample(&mut self) -> f64 {
        let before = *self.samples.last().expect("measured in new");
        let after = ref_measure(self.jobs);
        self.samples.push(after);
        REF_NOMINAL_S / ((before + after) / 2.0)
    }

    /// Median reference time over the run, in seconds.
    pub fn ref_s(&self) -> f64 {
        let mut t = self.samples.clone();
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    }
}

/// FNV-1a digest of a report's deterministic view: every per-core
/// counter and clock plus the scheduler counters, without the
/// wall-clock `host_nanos` (the same fields `MachineReport`'s
/// `PartialEq` compares).
pub fn report_digest(report: &MachineReport) -> String {
    let mut h = FNV_OFFSET;
    for (i, core) in report.cores.iter().enumerate() {
        fnv1a(
            &mut h,
            format!("{i}:{core:?}:{}", report.core_cycles[i]).as_bytes(),
        );
    }
    let s = &report.sched;
    fnv1a(
        &mut h,
        format!(
            "sched:{}:{}:{}:{}:{}",
            s.fast_ops, s.epoch_ops, s.slow_ops, s.grants, s.bank_conflict_grants
        )
        .as_bytes(),
    );
    format!("{h:016x}")
}

/// FNV-1a digest of a sequence of strings (digests of parts).
pub fn digest_of<'a>(parts: impl IntoIterator<Item = &'a str>) -> String {
    let mut h = FNV_OFFSET;
    for part in parts {
        fnv1a(&mut h, part.as_bytes());
        fnv1a(&mut h, b";");
    }
    format!("{h:016x}")
}

/// High-water resident set size of this process, in MiB, from
/// `/proc/self/status` (`VmHWM`).
///
/// # Errors
///
/// The file is unreadable or has no `VmHWM` line (not Linux).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Starts a fresh peak-RSS measurement: returns freed heap memory of
/// every allocator arena to the OS (`malloc_trim`), so one
/// repetition's garbage does not count against the next, then resets
/// the high-water RSS to the current RSS (writes 5 to
/// `/proc/self/clear_refs`). The next [`peak_rss_mb`] covers only what
/// runs after this call.
///
/// # Errors
///
/// The file cannot be written (not Linux, or a kernel before 4.0).
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: `malloc_trim` takes a plain integer, touches only the
    // allocator's own free lists, and is safe to call at any time from
    // any thread.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting peak RSS via /proc/self/clear_refs: {e}"))
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}
