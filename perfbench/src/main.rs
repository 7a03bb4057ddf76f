//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <ht64|ht1|eval-mix|check2x1> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload's operation for `--seconds`, checks every
//! output, and prints two lines on stdout: the run parameters with the
//! deterministic counter digest, then the result object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the workload
//! runs once untraced and once under the decorators of
//! `flextm_perfbench::trace`, and the metrics are the per-layer ones.
//! `LAYERS.md` defines every metric and which change should move it.

use flextm::CmKind;
use flextm_bench::{run_cell, run_cell_timed, sim_ops, CellSpec, RuntimeKind, WorkloadKind};
use flextm_check::canon::canon;
use flextm_check::{explore_jobs, CheckConfig, Driver, Progress};
use flextm_perfbench::trace::{run_cell_traced, Phase, Span, TracedCell, Tracer};
use flextm_perfbench::{
    digest_of, peak_rss_mb, report_digest, reset_peak_rss, HostClock, END_TO_END, PER_LAYER,
    REF_NOMINAL_S,
};
use flextm_sweep::aggregate::{aggregate, emit_cells_json, emit_tables};
use flextm_sweep::{binary_fingerprint, cell_from_json, git_rev, run_sweep, MatrixSpec};
use flextm_sweep::{RunnerConfig, Store};
use std::collections::HashSet;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Untimed warm-up transactions per thread on `ht*` (as `sched_bench`).
const HT_WARMUP: u64 = 8;
/// Timed transactions per thread on `ht64` and `ht1`.
const HT64_TXNS: u64 = 1536;
const HT1_TXNS: u64 = 131_072;
/// Base timed transactions per thread of the `eval-mix` cells.
const EVAL_MIX_TXNS: u64 = 96;
/// The pinned 2-core × 1-line full-alphabet fixpoint.
const CHECK_STATES: u64 = 19_137;
const CHECK_TRANSITIONS: u64 = 147_700;
/// Checker states whose `fork`/`apply`/`canon` cost the traced run
/// times.
const CHECK_SAMPLE: usize = 256;
/// Set-up samples per `check2x1` repetition.
const CHECK_SETUP_SAMPLES: usize = 64;
/// Host workers for the sweep farm and the checker (capped by `nproc`).
const MAX_JOBS: usize = 2;
/// Fewest repetitions a run makes, however long each takes.
const MIN_REPS: usize = 3;
/// How many times as much, in log terms, the measured region of `ht1`
/// slows under host contention as the reference kernel does (slope of
/// the one against the other over 10-repetition windows; 1.0 for the
/// other workloads). Its host times are scaled by the reference factor
/// raised to this power.
const HT1_ELASTICITY: f64 = 1.7;
/// Scratch directory, relative to the working directory.
const SCRATCH: &str = ".perfbench_tmp";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Ht64,
    Ht1,
    EvalMix,
    Check2x1,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "ht64" => Some(Workload::Ht64),
            "ht1" => Some(Workload::Ht1),
            "eval-mix" => Some(Workload::EvalMix),
            "check2x1" => Some(Workload::Check2x1),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Ht64 => "ht64",
            Workload::Ht1 => "ht1",
            Workload::EvalMix => "eval-mix",
            Workload::Check2x1 => "check2x1",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Everything a run reports besides its parameters.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    digest: String,
    reps: usize,
    metrics: Vec<(&'static str, f64)>,
    errors: Vec<String>,
    /// Host-speed reference and raw timings, as a JSON object.
    host: String,
}

impl Outcome {
    /// Counts `n` operations, all failed with `error` if it is `Some`.
    fn record(&mut self, n: u64, error: Option<String>) {
        self.attempted += n;
        if let Some(e) = error {
            self.failed += n;
            self.errors.push(e);
        }
    }

    /// Counts `n` operations of which one failed per error (at most
    /// all `n`).
    fn record_each(&mut self, n: u64, errors: Vec<String>) {
        self.attempted += n;
        self.failed += (errors.len() as u64).min(n);
        self.errors.extend(errors);
    }

    /// Records the digest of one repetition; every repetition of one
    /// run must produce the same one.
    fn check_digest(&mut self, digest: String) -> Option<String> {
        if self.digest.is_empty() {
            self.digest = digest;
            None
        } else {
            (self.digest != digest).then(|| format!("digest {digest} differs from {}", self.digest))
        }
    }

    fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-repetition host times of an end-to-end run, each scaled to
/// reference seconds by the [`HostClock`] samples around its
/// repetition, reported as medians. The measured region is scaled by
/// the factor raised to `elasticity`; set-up by the factor itself.
struct Timings {
    clock: HostClock,
    elasticity: f64,
    setup: Vec<f64>,
    run: Vec<f64>,
    rate: Vec<f64>,
    rss: Vec<f64>,
    raw_setup: Vec<f64>,
    raw_run: Vec<f64>,
    raw_rate: Vec<f64>,
}

impl Timings {
    fn new(jobs: usize, elasticity: f64) -> Self {
        Timings {
            clock: HostClock::new(jobs),
            elasticity,
            setup: Vec::new(),
            run: Vec::new(),
            rate: Vec::new(),
            rss: Vec::new(),
            raw_setup: Vec::new(),
            raw_run: Vec::new(),
            raw_rate: Vec::new(),
        }
    }

    /// Records one repetition: its set-up samples and measured-region
    /// time in host seconds, the simulated ops it ran and its peak RSS.
    fn push(&mut self, setup_s: &[f64], run_s: f64, sim_ops: f64, peak_rss_mb: f64) {
        let f = self.clock.sample();
        let g = f.powf(self.elasticity);
        self.raw_setup.extend_from_slice(setup_s);
        self.raw_run.push(run_s);
        self.raw_rate.push(sim_ops / run_s);
        self.setup.extend(setup_s.iter().map(|s| s * f));
        self.run.push(run_s * g);
        self.rate.push(sim_ops / run_s / g);
        self.rss.push(peak_rss_mb);
    }

    fn report(&self, out: &mut Outcome) {
        out.metric("setup_s", median(&self.setup));
        out.metric("run_s", median(&self.run));
        out.metric("sim_ops_per_s", median(&self.rate));
        out.metric("peak_rss_mb", median(&self.rss));
        out.host = format!(
            concat!(
                "{{\"ref_s\": {:?}, \"ref_nominal_s\": {:?}, \"raw_setup_s\": {:?}, ",
                "\"raw_run_s\": {:?}, \"raw_sim_ops_per_s\": {:?}}}"
            ),
            self.clock.ref_s(),
            REF_NOMINAL_S,
            median(&self.raw_setup),
            median(&self.raw_run),
            median(&self.raw_rate),
        );
    }
}

/// Runs `rep` until `seconds` have passed and at least [`MIN_REPS`]
/// repetitions are done; returns the count.
fn repeat(seconds: u64, mut rep: impl FnMut(usize) -> Result<(), String>) -> Result<usize, String> {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut n = 0;
    while n < MIN_REPS || start.elapsed() < budget {
        rep(n)?;
        n += 1;
    }
    Ok(n)
}

fn jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(MAX_JOBS)
}

fn ht_spec(threads: usize, txns: u64, seed: u64) -> CellSpec {
    CellSpec {
        workload: WorkloadKind::HashTable,
        runtime: RuntimeKind::FlexTmLazy,
        cm: CmKind::Polka,
        threads,
        sig_bits: 2048,
        seed,
        txns_per_thread: txns,
        warmup_per_thread: HT_WARMUP,
    }
}

fn ht64(seed: u64) -> CellSpec {
    ht_spec(64, HT64_TXNS, seed)
}

fn ht1(seed: u64) -> CellSpec {
    ht_spec(1, HT1_TXNS, seed)
}

fn eval_mix(seed: u64) -> MatrixSpec {
    MatrixSpec {
        name: "eval_mix".to_string(),
        workloads: vec![WorkloadKind::RbTree, WorkloadKind::VacationHigh],
        runtimes: vec![
            RuntimeKind::Cgl,
            RuntimeKind::FlexTmEager,
            RuntimeKind::FlexTmLazy,
            RuntimeKind::RtmF,
            RuntimeKind::Tl2,
        ],
        cms: vec![CmKind::Polka],
        threads: vec![1, 16],
        sig_bits: vec![2048],
        seeds: vec![seed],
        txns_per_thread: EVAL_MIX_TXNS,
    }
}

/// The harness invariants of one cell: every thread committed exactly
/// its transactions, and no attempt count is below the commit count.
fn check_counts(spec: &CellSpec, committed: u64, attempts: u64) -> Option<String> {
    let expected = spec.threads as u64 * spec.txns_per_thread;
    (committed != expected || attempts < committed).then(|| {
        format!(
            "{}: committed {committed} (expected {expected}), attempts {attempts}",
            spec.label()
        )
    })
}

/// One untimed-setup / timed-region split of an `ht*` run.
struct HtRep {
    setup_s: f64,
    run_s: f64,
    sim_ops: u64,
    digest: String,
    error: Option<String>,
}

fn ht_rep(spec: &CellSpec) -> HtRep {
    let t0 = Instant::now();
    let run = run_cell(spec);
    let wall = t0.elapsed().as_secs_f64();
    let run_s = run.report.sched.host_nanos as f64 / 1e9;
    HtRep {
        setup_s: wall - run_s,
        run_s,
        sim_ops: sim_ops(&run.report),
        digest: report_digest(&run.report),
        error: check_counts(spec, run.committed, run.attempts),
    }
}

fn bench_ht(spec: &CellSpec, seconds: u64, elasticity: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut timings = Timings::new(1, elasticity);
    let txns = spec.threads as u64 * spec.txns_per_thread;
    let reps = repeat(seconds, |_| {
        reset_peak_rss()?;
        let rep = ht_rep(spec);
        timings.push(
            &[rep.setup_s],
            rep.run_s,
            rep.sim_ops as f64,
            peak_rss_mb()?,
        );
        let digest_error = out.check_digest(rep.digest);
        let error = rep.error.or(digest_error);
        out.record(txns, error);
        Ok(())
    })?;
    out.reps = reps;
    timings.report(&mut out);
    Ok(out)
}

/// A fresh, empty directory under the scratch root.
fn fresh_dir(name: &str) -> Result<PathBuf, String> {
    let dir = Path::new(SCRATCH)
        .join(std::process::id().to_string())
        .join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Where the cell children of benchmark process `pid` leave their
/// peak RSS, one file per child.
fn rss_dir(pid: u32) -> PathBuf {
    Path::new(SCRATCH).join(pid.to_string()).join("rss")
}

/// The largest peak RSS the cell children left in [`rss_dir`], which
/// must hold one file per executed cell.
fn children_peak_rss_mb(cells: usize) -> Result<f64, String> {
    let dir = rss_dir(std::process::id());
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut peaks = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        peaks.push(
            text.parse::<f64>()
                .map_err(|e| format!("{}: {e}", path.display()))?,
        );
    }
    if peaks.len() < cells {
        return Err(format!(
            "{} of {cells} cell children left their peak RSS",
            peaks.len()
        ));
    }
    Ok(peaks.into_iter().fold(0.0, f64::max))
}

fn remove_scratch() {
    let dir = Path::new(SCRATCH).join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(dir);
    // Leaves the root only when no other run is using it.
    let _ = std::fs::remove_dir(SCRATCH);
}

/// One cold sweep-farm regeneration into an empty store.
struct SweepRep {
    setup_s: f64,
    sweep_s: f64,
    aggregate_s: f64,
    run_s: f64,
    cells: Vec<CellSpec>,
    sweep: flextm_sweep::SweepOutcome,
    store: Store,
    runner: RunnerConfig,
}

fn sweep_rep(seed: u64, rev: &str, dir: &Path) -> Result<SweepRep, String> {
    let t0 = Instant::now();
    let spec = eval_mix(seed);
    spec.validate().map_err(|e| e.to_string())?;
    let cells = spec.expand();
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let fp = binary_fingerprint(&exe).map_err(|e| format!("fingerprinting binary: {e}"))?;
    let store = Store::open(&dir.join("store"), fp, rev.to_string())
        .map_err(|e| format!("opening store: {e}"))?;
    let mut runner = RunnerConfig::new(exe);
    runner.jobs = jobs();
    runner.progress = false;
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let sweep = run_sweep(&cells, &store, &runner);
    let sweep_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let tables = emit_tables(&spec.name, &aggregate(&sweep.outcomes));
    let cells_json = emit_cells_json(&spec.name, &sweep.outcomes);
    for (file, text) in [("tables.md", tables), ("cells.json", cells_json)] {
        std::fs::write(dir.join(file), text).map_err(|e| format!("writing {file}: {e}"))?;
    }
    let aggregate_s = t2.elapsed().as_secs_f64();
    Ok(SweepRep {
        setup_s,
        sweep_s,
        aggregate_s,
        run_s: t1.elapsed().as_secs_f64(),
        cells,
        sweep,
        store,
        runner,
    })
}

impl SweepRep {
    /// Per-cell check: every cell ran in a child (the store started
    /// empty) and passed [`check_counts`]. Returns the failed cells'
    /// errors and the digest over the cell digests.
    fn check(&self) -> (Vec<String>, String) {
        let mut errors: Vec<String> = self
            .sweep
            .failures
            .iter()
            .map(|f| format!("{}: {}", f.cell.label(), f.error))
            .collect();
        for o in &self.sweep.outcomes {
            if o.from_cache {
                errors.push(format!("{}: served from a cold store", o.cell.label()));
            } else if let Some(e) = check_counts(&o.cell, o.result.committed, o.result.attempts) {
                errors.push(e);
            }
        }
        if self.sweep.outcomes.len() + self.sweep.failures.len() != self.cells.len() {
            errors.push("sweep lost cells".to_string());
        }
        let digest = digest_of(self.sweep.outcomes.iter().map(|o| o.result.digest.as_str()));
        (errors, digest)
    }

    fn sim_ops(&self) -> u64 {
        self.sweep.outcomes.iter().map(|o| o.result.sim_ops).sum()
    }
}

fn bench_eval_mix(seed: u64, seconds: u64, rev: &str) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut timings = Timings::new(jobs(), 1.0);
    let reps = repeat(seconds, |i| {
        fresh_dir("rss")?;
        let rep = sweep_rep(seed, rev, &fresh_dir(&format!("cold{i}"))?)?;
        timings.push(
            &[rep.setup_s],
            rep.run_s,
            rep.sim_ops() as f64,
            children_peak_rss_mb(rep.sweep.executed)?,
        );
        let (mut errors, digest) = rep.check();
        errors.extend(out.check_digest(digest));
        out.record_each(rep.cells.len() as u64, errors);
        Ok(())
    })?;
    out.reps = reps;
    timings.report(&mut out);
    Ok(out)
}

fn check_config() -> CheckConfig {
    CheckConfig::new(2, 1)
}

/// `explore_jobs`'s own set-up, through the public entry point: with a
/// depth bound of 0 it installs its panic hook, builds the sharded
/// visited set and the hashed root `Driver`, then returns before
/// expanding the first level.
fn check_setup(cfg: &CheckConfig) -> Option<String> {
    let o = explore_jobs(cfg, Some(0), jobs(), None);
    let root_only = o.states == 1 && o.transitions == 0 && o.depth_truncated == 1;
    (!root_only || o.violation.is_some()).then(|| {
        format!(
            "2x1 set-up: {} states / {} transitions / {} truncated at depth 0 \
             (expected 1 / 0 / 1)",
            o.states, o.transitions, o.depth_truncated
        )
    })
}

fn check_fixpoint(
    states: u64,
    transitions: u64,
    truncated: u64,
    violation: bool,
) -> Option<String> {
    (states != CHECK_STATES || transitions != CHECK_TRANSITIONS || truncated != 0 || violation)
        .then(|| {
            format!(
                "2x1 fixpoint: {states} states / {transitions} transitions \
                 (expected {CHECK_STATES} / {CHECK_TRANSITIONS}), {truncated} truncated, \
                 violation: {violation}"
            )
        })
}

fn bench_check(seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut timings = Timings::new(jobs(), 1.0);
    let reps = repeat(seconds, |_| {
        reset_peak_rss()?;
        // Set-up is microseconds against a seconds-long exploration;
        // sample it many times per repetition for a steady median.
        let cfg = check_config();
        let mut setup = [0.0; CHECK_SETUP_SAMPLES];
        let mut setup_error = None;
        for sample in &mut setup {
            let t0 = Instant::now();
            let error = check_setup(&cfg);
            *sample = t0.elapsed().as_secs_f64();
            setup_error = setup_error.or(error);
        }
        let t1 = Instant::now();
        let o = explore_jobs(&cfg, None, jobs(), None);
        let run_s = t1.elapsed().as_secs_f64();
        timings.push(&setup, run_s, o.transitions as f64, peak_rss_mb()?);
        let digest_error = out.check_digest(digest_of([format!(
            "{}:{}:{}",
            o.states, o.transitions, o.max_depth
        )
        .as_str()]));
        let error = check_fixpoint(
            o.states,
            o.transitions,
            o.depth_truncated,
            o.violation.is_some(),
        )
        .or(setup_error)
        .or(digest_error);
        out.record(1, error);
        Ok(())
    })?;
    out.reps = reps;
    timings.report(&mut out);
    Ok(out)
}

// ---------------------------------------------------------------------
// Traced runs: per-layer metrics.
// ---------------------------------------------------------------------

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics of the in-process runtime stack (`workloads`,
/// `runtime`, `access`, `sched`, `proto`, `sim`) over traced cells.
/// `untraced_host_s` is the timed-region `Machine::run` time of the
/// same cells run untraced.
fn stack_layers(out: &mut Outcome, cells: &[TracedCell], untraced_host_s: f64, segment_ns: f64) {
    // (calls, self time net of recording cost) over the timed regions.
    let timed = |span| -> (f64, f64) {
        cells.iter().fold((0.0, 0.0), |(c, t), cell| {
            let p = &cell.profile;
            (
                c + p.get(Phase::Timed, span).calls as f64,
                t + p.net_self_ns(Phase::Timed, span, segment_ns),
            )
        })
    };
    let sum = |f: &dyn Fn(&TracedCell) -> f64| cells.iter().map(f).sum::<f64>();
    let core_sum = |f: &dyn Fn(&flextm_sim::CoreStats) -> u64| {
        cells
            .iter()
            .map(|c| c.run.report.total(f) as f64)
            .sum::<f64>()
    };
    let committed = sum(&|c| c.run.committed as f64);
    let attempts = sum(&|c| c.run.attempts as f64);
    let ops = sum(&|c| sim_ops(&c.run.report) as f64);

    out.metric("workloads.setup_s", sum(&|c| c.setup.as_secs_f64()));
    out.metric("workloads.warm_s", sum(&|c| c.warm.as_secs_f64()));
    out.metric(
        "workloads.body_ns_per_txn",
        ratio(timed(Span::RunOnce).1 + timed(Span::Body).1, committed),
    );
    out.metric(
        "runtime.txn_ns_per_attempt",
        ratio(timed(Span::TxnOnce).1, attempts),
    );
    out.metric("runtime.attempts_per_commit", ratio(attempts, committed));
    type Cause = fn(&flextm_sim::AbortBreakdown) -> u64;
    let causes: [(&'static str, Cause); 7] = [
        ("runtime.aborts.aou_alert", |a| a.aou_alert),
        ("runtime.aborts.strong_isolation", |a| a.strong_isolation),
        ("runtime.aborts.lost_tsw", |a| a.lost_tsw),
        ("runtime.aborts.commit_conflicts", |a| a.commit_conflicts),
        ("runtime.aborts.cm_self", |a| a.cm_self),
        ("runtime.aborts.summary_trap", |a| a.summary_trap),
        ("runtime.aborts.explicit", |a| a.explicit),
    ];
    for (name, cause) in causes {
        out.metric(name, core_sum(&|c| cause(&c.abort_causes)));
    }
    let (access_calls, access_ns) = timed(Span::Access);
    out.metric("access.calls", access_calls);
    out.metric("access.ns_per_sim_op", ratio(access_ns, ops));

    let sched = |f: &dyn Fn(&flextm_sim::SchedStats) -> u64| {
        cells
            .iter()
            .map(|c| f(&c.run.report.sched) as f64)
            .sum::<f64>()
    };
    out.metric("sched.fast_ops", sched(&|s| s.fast_ops));
    out.metric("sched.epoch_ops", sched(&|s| s.epoch_ops));
    out.metric("sched.slow_ops", sched(&|s| s.slow_ops));
    out.metric("sched.grants", sched(&|s| s.grants));
    out.metric(
        "sched.bank_conflict_grants",
        sched(&|s| s.bank_conflict_grants),
    );
    out.metric("sched.rendezvous_per_op", ratio(sched(&|s| s.grants), ops));
    out.metric("sched.run_s", untraced_host_s);

    let hits = core_sum(&|c| c.l1_hits);
    let misses = core_sum(&|c| c.l1_misses);
    out.metric("proto.l1_hit_rate", ratio(hits, hits + misses));
    out.metric("proto.l1_misses", misses);
    out.metric("proto.l2_misses", core_sum(&|c| c.l2_misses));
    out.metric("proto.threatened", core_sum(&|c| c.threatened_seen));
    out.metric("proto.exposed", core_sum(&|c| c.exposed_seen));
    out.metric("proto.alerts", core_sum(&|c| c.alerts));
    out.metric("proto.overflows", core_sum(&|c| c.overflows));
    out.metric("proto.ot_hits", core_sum(&|c| c.ot_hits));
    out.metric("proto.nacks", core_sum(&|c| c.nacks));
    out.metric("proto.writebacks", core_sum(&|c| c.writebacks));
    out.metric("proto.commits", core_sum(&|c| c.commits));
    out.metric("proto.failed_commits", core_sum(&|c| c.failed_commits));
    let cycles = core_sum(&|c| c.cycle_sum());
    out.metric(
        "proto.cycles.work",
        ratio(core_sum(&|c| c.work_cycles), cycles),
    );
    out.metric(
        "proto.cycles.mem",
        ratio(core_sum(&|c| c.mem_cycles), cycles),
    );
    out.metric(
        "proto.cycles.stall",
        ratio(core_sum(&|c| c.stall_cycles), cycles),
    );
    out.metric(
        "proto.cycles.wasted",
        ratio(core_sum(&|c| c.wasted_cycles), cycles),
    );

    // Geometric mean over cells of committed txns per Mcycle.
    let log_sum: f64 = cells.iter().map(|c| c.run.throughput().ln()).sum();
    out.metric("sim.tx_per_mcycle", (log_sum / cells.len() as f64).exp());
}

fn zero_layers(out: &mut Outcome, prefix: &str) {
    for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with(prefix)) {
        out.metric(name, 0.0);
    }
}

/// The whole-stack per-layer metrics for one `ht*` cell, plus the
/// companion configuration's access cost for `access.cost_ratio_64_1`.
fn trace_ht(spec: &CellSpec, companion: &CellSpec) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let plain = run_cell(spec);
    let plain_wall = t0.elapsed();
    let traced = run_cell_traced(spec);
    let other = run_cell_traced(companion);
    let txns = |s: &CellSpec| s.threads as u64 * s.txns_per_thread;
    out.check_digest(report_digest(&plain.report));
    let traced_error =
        check_counts(spec, traced.run.committed, traced.run.attempts).or_else(|| {
            out.check_digest(report_digest(&traced.run.report))
                .map(|e| format!("traced run: {e}"))
        });
    out.record(
        txns(spec),
        check_counts(spec, plain.committed, plain.attempts),
    );
    out.record(txns(spec), traced_error);
    out.record(
        txns(companion),
        check_counts(companion, other.run.committed, other.run.attempts),
    );
    out.reps = 1;
    let segment_ns = Tracer::segment_ns();
    stack_layers(
        &mut out,
        std::slice::from_ref(&traced),
        plain.report.sched.host_nanos as f64 / 1e9,
        segment_ns,
    );
    let access = |c: &TracedCell| {
        ratio(
            c.profile
                .net_self_ns(Phase::Timed, Span::Access, segment_ns),
            sim_ops(&c.run.report) as f64,
        )
    };
    let (wide, narrow) = if spec.threads > companion.threads {
        (&traced, &other)
    } else {
        (&other, &traced)
    };
    out.metric(
        "access.cost_ratio_64_1",
        ratio(access(wide), access(narrow)),
    );
    zero_layers(&mut out, "check.");
    zero_layers(&mut out, "sweep.");
    out.metric(
        "trace.overhead_s",
        traced.wall.as_secs_f64() - plain_wall.as_secs_f64(),
    );
    out.metric("trace.segment_ns", segment_ns);
    print_profile(spec.label(), &traced);
    out
}

fn print_profile(label: String, cell: &TracedCell) {
    eprintln!(
        "{{\"span\": \"none\", \"cell\": \"{label}\", \"self_ns\": {}}}",
        cell.profile.unattributed_ns
    );
    for (phase, phase_name) in [(Phase::Warm, "warm"), (Phase::Timed, "timed")] {
        for span in flextm_perfbench::trace::SPANS {
            let s = cell.profile.get(phase, span);
            if s.calls > 0 {
                eprintln!(
                    "{{\"span\": \"{}\", \"cell\": \"{label}\", \"phase\": \"{phase_name}\", \
                     \"calls\": {}, \"self_ns\": {}}}",
                    span.name(),
                    s.calls,
                    s.self_ns
                );
            }
        }
    }
}

fn trace_eval_mix(seed: u64, rev: &str) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = fresh_dir("traced")?;
    let cold = sweep_rep(seed, rev, &dir)?;
    let (errors, digest) = cold.check();
    out.record_each(cold.cells.len() as u64, errors);
    out.check_digest(digest);

    // An immediate re-run against the now-full store: all hits.
    let t0 = Instant::now();
    let warm = run_sweep(&cold.cells, &cold.store, &cold.runner);
    let warm_s = t0.elapsed().as_secs_f64();
    out.record(
        cold.cells.len() as u64,
        (warm.cached != cold.cells.len()).then(|| format!("warm re-run: {} cached", warm.cached)),
    );

    // The same cells in-process: untraced, then under the decorators.
    let mut cell_s_sum = 0.0;
    let mut host_s = 0.0;
    let mut traced = Vec::new();
    for outcome in &cold.sweep.outcomes {
        let cell = &outcome.cell;
        let t = Instant::now();
        let plain = run_cell(cell);
        cell_s_sum += t.elapsed().as_secs_f64();
        host_s += plain.report.sched.host_nanos as f64 / 1e9;
        let run = run_cell_traced(cell);
        let child = &outcome.result.digest;
        let mismatch = [("in-process", &plain), ("traced", &run.run)]
            .into_iter()
            .find_map(|(how, r)| {
                let d = flextm_bench::CellResult::from_run(r, 0.0).digest;
                (d != *child)
                    .then(|| format!("{}: {how} digest {d} != child {child}", cell.label()))
            });
        out.record(
            1,
            mismatch.or_else(|| check_counts(cell, run.run.committed, run.run.attempts)),
        );
        traced.push(run);
    }
    let traced_s: f64 = traced.iter().map(|c| c.wall.as_secs_f64()).sum();
    let segment_ns = Tracer::segment_ns();
    stack_layers(&mut out, &traced, host_s, segment_ns);
    out.metric("access.cost_ratio_64_1", 0.0);
    zero_layers(&mut out, "check.");
    out.metric("sweep.cells", cold.cells.len() as f64);
    out.metric("sweep.executed", cold.sweep.executed as f64);
    out.metric("sweep.cached", cold.sweep.cached as f64);
    out.metric("sweep.failed", cold.sweep.failures.len() as f64);
    out.metric("sweep.cell_s_sum", cell_s_sum);
    out.metric(
        "sweep.farm_overhead_s",
        cold.run_s - cell_s_sum / jobs() as f64,
    );
    out.metric("sweep.aggregate_s", cold.aggregate_s);
    out.metric("sweep.warm_s", warm_s);
    out.metric("trace.overhead_s", traced_s - cell_s_sum);
    out.metric("trace.segment_ns", segment_ns);
    eprintln!(
        "{{\"span\": \"run_sweep\", \"cold_s\": {}, \"setup_s\": {}}}",
        cold.sweep_s, cold.setup_s
    );
    for cell in &traced {
        let r = &cell.run;
        print_profile(format!("{}/{}/{}T", r.workload, r.runtime, r.threads), cell);
    }
    out.reps = 1;
    Ok(out)
}

/// `fork`, `apply` and `canon` cost over the first [`CHECK_SAMPLE`]
/// states in breadth-first order, in mean nanoseconds per call.
fn check_primitives(cfg: &CheckConfig) -> (f64, f64, f64) {
    let root = Driver::new(cfg.clone());
    let mut seen = HashSet::from([canon(&root)]);
    let mut sample = vec![root];
    let mut next = 0;
    while sample.len() < CHECK_SAMPLE && next < sample.len() {
        for op in sample[next].enabled_ops() {
            let mut d = sample[next].fork();
            d.apply(op);
            if seen.insert(canon(&d)) && sample.len() < CHECK_SAMPLE {
                sample.push(d);
            }
        }
        next += 1;
    }
    let (mut fork, mut apply, mut hash) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut calls = 0u32;
    for state in &sample {
        for op in state.enabled_ops() {
            let t0 = Instant::now();
            let mut d = state.fork();
            let t1 = Instant::now();
            d.apply(op);
            let t2 = Instant::now();
            black_box(canon(&d));
            hash += t2.elapsed();
            apply += t2 - t1;
            fork += t1 - t0;
            calls += 1;
        }
    }
    let per = |d: Duration| ns(d) / f64::from(calls.max(1));
    (per(fork), per(apply), per(hash))
}

fn trace_check() -> Outcome {
    let mut out = Outcome::default();
    let cfg = check_config();
    // Untraced explorations before and after the traced one, so the
    // overhead is not skewed by which run warmed the allocator.
    let untraced = || {
        let t0 = Instant::now();
        let o = explore_jobs(&cfg, None, jobs(), None);
        (o, t0.elapsed().as_secs_f64())
    };
    let (plain, before_s) = untraced();

    let (mut levels, mut level_max) = (0u64, Duration::ZERO);
    let mut last = Instant::now();
    let t1 = Instant::now();
    let traced = explore_jobs(
        &cfg,
        None,
        jobs(),
        Some(&mut |_: &Progress| {
            let now = Instant::now();
            level_max = level_max.max(now - last);
            last = now;
            levels += 1;
        }),
    );
    let traced_s = t1.elapsed().as_secs_f64();
    let (after, after_s) = untraced();
    let plain_s = (before_s + after_s) / 2.0;
    for o in [&plain, &traced, &after] {
        out.record(
            1,
            check_fixpoint(
                o.states,
                o.transitions,
                o.depth_truncated,
                o.violation.is_some(),
            ),
        );
    }
    out.check_digest(digest_of([format!(
        "{}:{}:{}",
        plain.states, plain.transitions, plain.max_depth
    )
    .as_str()]));
    let (fork_ns, apply_ns, canon_ns) = check_primitives(&cfg);

    zero_layers(&mut out, "workloads.");
    zero_layers(&mut out, "runtime.");
    zero_layers(&mut out, "access.");
    zero_layers(&mut out, "sched.");
    zero_layers(&mut out, "proto.");
    zero_layers(&mut out, "sim.");
    out.metric("check.states", traced.states as f64);
    out.metric("check.transitions", traced.transitions as f64);
    out.metric("check.levels", levels as f64);
    out.metric("check.states_per_s", traced.states as f64 / traced_s);
    out.metric("check.level_s_max", level_max.as_secs_f64());
    out.metric("check.fork_ns", fork_ns);
    out.metric("check.apply_ns", apply_ns);
    out.metric("check.canon_ns", canon_ns);
    zero_layers(&mut out, "sweep.");
    out.metric("trace.overhead_s", traced_s - plain_s);
    out.metric("trace.segment_ns", 0.0);
    out.reps = 1;
    out
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// The run parameters every result echoes, as a JSON object body.
fn params_json(args: &Args, rev: &str) -> String {
    let (cores, runtime, cm, txns) = match args.workload {
        Workload::Ht64 => ("64", "FlexTM(L)", "Polka", HT64_TXNS.to_string()),
        Workload::Ht1 => ("1", "FlexTM(L)", "Polka", HT1_TXNS.to_string()),
        Workload::EvalMix => (
            "1,16",
            "CGL,FlexTM(E),FlexTM(L),RTM-F,TL2",
            "Polka",
            EVAL_MIX_TXNS.to_string(),
        ),
        Workload::Check2x1 => ("2", "none", "none", "0".to_string()),
    };
    let jobs = match args.workload {
        Workload::Ht64 | Workload::Ht1 => 1,
        Workload::EvalMix | Workload::Check2x1 => jobs(),
    };
    let engine = if cfg!(target_arch = "x86_64") {
        "fiber"
    } else {
        "os_threads"
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        concat!(
            "\"workload\": \"{}\", \"cores\": \"{}\", \"runtime\": \"{}\", \"cm\": \"{}\", ",
            "\"seed\": {}, \"txns_per_thread\": {}, \"jobs\": {}, \"engine\": \"{}\", ",
            "\"nproc\": {}, \"git_rev\": \"{}\", \"rustc\": \"{}\", \"trace\": {}"
        ),
        args.workload.name(),
        cores,
        runtime,
        cm,
        args.seed,
        txns,
        jobs,
        engine,
        nproc,
        rev,
        rustc_version(),
        u8::from(args.trace),
    )
}

/// Renders the metrics in the order of `names`, failing if any is
/// missing, repeated or not finite.
fn metrics_json(metrics: &[(&'static str, f64)], names: &[(&str, &str)]) -> Result<String, String> {
    if metrics.len() != names.len() {
        return Err(format!(
            "{} metrics reported, {} defined",
            metrics.len(),
            names.len()
        ));
    }
    let mut parts = Vec::new();
    for (name, unit) in names {
        let mut found = metrics.iter().filter(|(n, _)| n == name);
        let value = match (found.next(), found.next()) {
            (Some(&(_, v)), None) if v.is_finite() => v,
            _ => return Err(format!("metric {name} missing, repeated or not finite")),
        };
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(parts.join(", "))
}

fn run(args: &Args) -> Result<(Outcome, String), String> {
    // Only a checkout with its own `.git` is asked for its revision, so
    // git never searches the directories above the working directory.
    let rev = if Path::new(".git").exists() {
        git_rev(Path::new("."))
    } else {
        "unknown".to_string()
    };
    let out = match (args.workload, args.trace) {
        (Workload::Ht64, false) => bench_ht(&ht64(args.seed), args.seconds, 1.0)?,
        (Workload::Ht1, false) => bench_ht(&ht1(args.seed), args.seconds, HT1_ELASTICITY)?,
        (Workload::EvalMix, false) => bench_eval_mix(args.seed, args.seconds, &rev)?,
        (Workload::Check2x1, false) => bench_check(args.seconds)?,
        (Workload::Ht64, true) => trace_ht(&ht64(args.seed), &ht1(args.seed)),
        (Workload::Ht1, true) => trace_ht(&ht1(args.seed), &ht64(args.seed)),
        (Workload::EvalMix, true) => trace_eval_mix(args.seed, &rev)?,
        (Workload::Check2x1, true) => trace_check(),
    };
    Ok((out, rev))
}

/// Child mode of the `eval-mix` sweep farm: run one cell and print its
/// record, exactly as the `sweep` binary's `--run-cell` does.
fn child_main(cell_json: &str) -> ExitCode {
    match cell_from_json(cell_json) {
        Ok(cell) => {
            println!("{}", run_cell_timed(&cell).to_json(&cell));
            // Leave this child's peak RSS where the parent collects it.
            // (`getrusage(RUSAGE_CHILDREN)` in the parent would also
            // count what that process ran before an exec, such as the
            // build `cargo run` performs.) Outside a benchmark run the
            // directory does not exist and nothing is written.
            if let Ok(mb) = peak_rss_mb() {
                let file = rss_dir(std::os::unix::process::parent_id())
                    .join(std::process::id().to_string());
                let _ = std::fs::write(file, mb.to_string());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench --run-cell: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, cell] = argv.as_slice() {
        if flag == "--run-cell" {
            return child_main(cell);
        }
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <ht64|ht1|eval-mix|check2x1> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    remove_scratch();
    let (out, rev) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = match metrics_json(&out.metrics, names) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!(
        "{{\"params\": {{{}}}, \"digest\": \"{}\", \"reps\": {}, \"host\": {}}}",
        params_json(&args, &rev),
        out.digest,
        out.reps,
        if out.host.is_empty() { "{}" } else { &out.host },
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    ExitCode::SUCCESS
}
