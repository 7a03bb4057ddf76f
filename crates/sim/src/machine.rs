//! The machine: shared simulator state plus the single-runner scheduler
//! that retires every core's operations in one deterministic order.
//!
//! # The deterministic order
//!
//! Each simulated operation (load, store, CAS-Commit, `with_sync`, …)
//! is a call into the machine. Operations execute one at a time in a
//! fixed total order: always the pending operation with the smallest
//! `(issue clock, core id)` over every live core. The order therefore
//! depends only on the program and its seeds — fully repeatable, which
//! the test suite relies on.
//!
//! # How it is scheduled
//!
//! Exactly one worker (simulated thread) executes at any moment: the
//! *runner*. Every other live worker is parked in one queue, a
//! min-`(clock, core)` heap keyed by the clock the worker resumes at —
//! the issue clock of the operation it waits to run, or, for a worker
//! that has not started yet, its clock at the start of the run (a lower
//! bound on its first operation's clock, since clocks only grow).
//!
//! * **Inline.** An operation whose key is below the queue minimum runs
//!   at once: every parked worker's next operation is ordered after it.
//!   This is the strict second-minimum horizon of the original
//!   conservative-lockstep engine, so the schedule is the same
//!   (DESIGN.md, "Why nothing runs past the strict horizon"). A
//!   single-threaded run never queues at all.
//! * **Queued.** Otherwise the runner replaces the queue minimum with
//!   itself (one sift-down) and switches to the worker it removed.
//! * **Exit.** A finishing worker pops the minimum and switches to it;
//!   the run ends when the queue is empty.
//! * **Local ops.** `work(n)`, `stall(n)` and `now()` touch only the
//!   runner's own clock and cycle buckets, never the queue.
//!
//! Native code between operations runs while its worker is the runner,
//! so it is serialized too, but it is not ordered by clock: a worker
//! that has not started is switched to as soon as its start key is the
//! minimum. Workloads therefore must not let native code depend on
//! another worker's native code; cross-thread host state goes through
//! [`crate::ProcHandle::with_sync`], which is an ordinary operation.
//!
//! # Execution engines
//!
//! Both engines make the same queue decisions; they differ only in what
//! a switch is.
//!
//! * **Fibers** (default on x86_64 Linux). Every worker is a stackful
//!   fiber on the OS thread that called [`Machine::run`]; a switch is a
//!   userspace context switch straight into the next worker
//!   (`fiber.rs`).
//! * **OS threads** ([`crate::MachineConfig::os_threads`], and the only
//!   engine on other targets). One scoped thread per worker, passing a
//!   baton: a per-core flag plus park/unpark. Every thread waits for
//!   the baton before its body starts and holds it until it switches
//!   or exits, so its native code is serialized exactly as on fibers.
//!
//! Every simulated event, counter and clock — and the scheduler
//! counters — is therefore identical across the engines; a test in
//! this module compares whole reports.
//!
//! # Safety
//!
//! `SimState` and the scheduler state live in [`UnsafeCell`]s that are
//! read and written without a lock. The argument:
//!
//! 1. **One runner.** During a run, only the runner dereferences the
//!    cells, through [`as_runner`]. A worker becomes the runner only
//!    by being switched to, and stops only by switching away or
//!    exiting, so at most one thread of control holds the machine.
//!    Every [`crate::ProcHandle`] method runs on the handle's own
//!    worker, which is then the runner: a handle is `!Send + !Sync`, so
//!    it cannot reach another thread, and using it outside its run is
//!    documented as forbidden.
//! 2. **No reference survives a switch.** `as_runner` hands out the two
//!    `&mut` for the duration of one closure, and no closure switches:
//!    [`sync_op`] and [`exit`] decide under `as_runner`, switch
//!    outside it, and re-derive afterwards. An operation's closure
//!    never issues another operation.
//! 3. **Handoffs publish.** Fibers share one OS thread, so program
//!    order is the happens-before order. The baton flag is stored with
//!    release ordering after the previous runner's last write and
//!    loaded with acquire ordering before the next runner's first.
//! 4. **Outside a run, a claim.** [`Machine::run`] and every borrow
//!    through the handle (`with_state`, `report`, `align_clocks`)
//!    claim the `busy` flag with an acquire compare-exchange and
//!    release it on exit. A second claimant — another host thread, or
//!    a run body calling back into the handle — panics instead of
//!    aliasing the state.
//!
//! The fiber switch and stacks carry their own argument in `fiber.rs`.

use crate::config::ConfigError;
use crate::config::MachineConfig;
use crate::core_state::CoreState;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
use crate::fiber;
use crate::l2::L2;
use crate::mem::Memory;
use crate::proc::ProcHandle;
use crate::stats::{EventLog, MachineReport, SchedStats};
use flextm_sig::{LineAddr, LineHasher, ProcSet, SigKey};
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
use std::cell::Cell;
use std::cell::UnsafeCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{
    AtomicBool,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::Arc;
use std::thread::Thread;
use std::time::Instant;

/// All mutable simulator state. Exclusive access is enforced by the
/// single-runner rule (see the module doc), not by a lock around this
/// struct.
#[derive(Debug)]
pub struct SimState {
    /// Machine configuration (immutable after construction).
    pub config: MachineConfig,
    /// Committed memory contents.
    pub mem: Memory,
    /// Per-processor hardware state.
    pub cores: Vec<CoreState>,
    /// Shared L2 + directory + summary signatures.
    pub l2: L2,
    /// Optional protocol event log.
    pub log: EventLog,
    /// Each core's local clock, in cycles. The four cycle buckets in
    /// each core's stats sum to it.
    clocks: Vec<u64>,
    /// The signature hasher every core shares (same configuration), so
    /// one access hashes its line exactly once into a [`SigKey`].
    hasher: LineHasher,
    /// Set of cores with a non-empty `Rsig` or `Wsig`. A **superset**
    /// of the truth: bits are set eagerly on every insert but may linger
    /// after clears until the owner's next [`SimState::sync_core_masks`];
    /// consumers re-check the signatures, so staleness costs only a
    /// wasted test, never a missed one.
    sig_live: ProcSet,
    /// Set of cores with an allocated OT. Same superset discipline.
    ot_present: ProcSet,
    /// Reusable buffer for commit-time TMI drains, so steady-state
    /// commits never allocate. Always empty between commits.
    pub(crate) commit_scratch: Vec<(LineAddr, Box<[u64; crate::mem::WORDS_PER_LINE]>)>,
    /// Runtime switch for the invariant layer: when true, every
    /// protocol transition (`access`, `cas_commit`, `abort_tx`) ends in
    /// [`SimState::check_invariants`]. Off by default (production runs
    /// pay one predicted branch); [`SimState::for_tests`] turns it on,
    /// so the unit suites and the model checker sweep invariants after
    /// every step.
    #[cfg(any(test, feature = "check"))]
    check_every_op: bool,
}

impl SimState {
    fn new(config: MachineConfig) -> Self {
        let cores = (0..config.cores).map(|_| CoreState::new(&config)).collect();
        let l2 = L2::new(config.l2_sets(), config.l2_ways, config.signature.clone());
        let log = EventLog::new(config.record_events);
        let clocks = vec![0; config.cores];
        let hasher = config.signature.hasher();
        SimState {
            config,
            mem: Memory::new(),
            cores,
            l2,
            log,
            clocks,
            hasher,
            sig_live: ProcSet::empty(),
            ot_present: ProcSet::empty(),
            commit_scratch: Vec::new(),
            #[cfg(any(test, feature = "check"))]
            check_every_op: false,
        }
    }

    /// Hashes `line` once; the resulting key works against every
    /// signature in the machine (all share one configuration).
    #[inline]
    pub fn sig_key(&self, line: LineAddr) -> SigKey {
        self.hasher.key(line)
    }

    /// Set of cores whose `Rsig`/`Wsig` may be non-empty (superset).
    #[inline]
    pub(crate) fn sig_live_mask(&self) -> ProcSet {
        self.sig_live
    }

    /// Set of cores that may have an OT allocated (superset).
    #[inline]
    pub(crate) fn ot_present_mask(&self) -> ProcSet {
        self.ot_present
    }

    /// Marks `core` as having live signature state (insert sites call
    /// this eagerly to preserve the superset invariant).
    #[inline]
    pub(crate) fn mark_sig_live(&mut self, core: usize) {
        self.sig_live.insert(core);
    }

    /// Marks `core` as having an OT.
    #[inline]
    pub(crate) fn mark_ot_present(&mut self, core: usize) {
        self.ot_present.insert(core);
    }

    /// Recomputes `core`'s bits in the activity masks from its actual
    /// state. Called after clears (abort, commit, context switch) to
    /// shed stale bits; everything stays correct if a call is missed,
    /// just slower.
    pub(crate) fn sync_core_masks(&mut self, core: usize) {
        let c = &self.cores[core];
        if c.rsig.is_empty() && c.wsig.is_empty() {
            self.sig_live.remove(core);
        } else {
            self.sig_live.insert(core);
        }
        if c.ot.is_some() {
            self.ot_present.insert(core);
        } else {
            self.ot_present.remove(core);
        }
    }

    /// Builds a standalone state for unit tests that drive the protocol
    /// directly, without the thread scheduler. Invariant checking after
    /// every transition is enabled.
    #[doc(hidden)]
    pub fn for_tests(config: MachineConfig) -> Self {
        #[allow(unused_mut)]
        let mut st = Self::new(config);
        #[cfg(any(test, feature = "check"))]
        {
            st.check_every_op = true;
        }
        st
    }

    /// Turns per-transition invariant sweeps on or off (the model
    /// checker leaves them on; throughput comparisons turn them off).
    #[cfg(any(test, feature = "check"))]
    pub fn set_check_every_op(&mut self, on: bool) {
        self.check_every_op = on;
    }

    /// Runs the full invariant sweep if per-transition checking is
    /// enabled. Call sites stay unconditional: the disabled-feature
    /// twin below compiles to nothing.
    #[cfg(any(test, feature = "check"))]
    #[inline]
    pub(crate) fn maybe_check_invariants(&self) {
        if self.check_every_op {
            self.check_invariants();
        }
    }

    /// No-op twin: without `cfg(test)`/`feature = "check"` the hook
    /// vanishes entirely, keeping the protocol hot path untouched.
    #[cfg(not(any(test, feature = "check")))]
    #[inline(always)]
    pub(crate) fn maybe_check_invariants(&self) {}

    /// Advances `core`'s clock by `cycles`.
    pub fn advance(&mut self, core: usize, cycles: u64) {
        self.clocks[core] += cycles;
    }

    /// The current local time of `core`.
    pub fn now(&self, core: usize) -> u64 {
        self.clocks[core]
    }

    /// Advances `core` by `cycles` and charges them to the memory
    /// bucket — the single helper every protocol latency goes through
    /// so the four cycle buckets provably sum to the clock.
    pub(crate) fn charge_mem(&mut self, core: usize, cycles: u64) {
        self.advance(core, cycles);
        self.cores[core].stats.mem_cycles += cycles;
    }

    /// Snapshots `core`'s work/mem cycle counters at the start of a
    /// transaction attempt. If the attempt later aborts,
    /// [`SimState::abandon_attempt`] reclassifies everything accrued
    /// since this mark into `wasted_cycles`.
    pub fn begin_attempt(&mut self, core: usize) {
        let s = &self.cores[core].stats;
        self.cores[core].attempt_mark = Some((s.work_cycles, s.mem_cycles));
    }

    /// Clears the attempt mark without reclassifying — called when an
    /// attempt commits (its cycles were real work).
    pub(crate) fn clear_attempt_mark(&mut self, core: usize) {
        self.cores[core].attempt_mark = None;
    }

    /// Moves the work/mem cycles accrued since the attempt mark into
    /// `wasted_cycles` — the attempt aborted, so its computation and
    /// memory time bought nothing. Stall cycles are never reclassified.
    /// No-op when no mark is set (runtimes that don't mark attempts
    /// simply report zero waste).
    pub(crate) fn abandon_attempt(&mut self, core: usize) {
        let Some((work0, mem0)) = self.cores[core].attempt_mark.take() else {
            return;
        };
        let s = &mut self.cores[core].stats;
        s.wasted_cycles += (s.work_cycles - work0) + (s.mem_cycles - mem0);
        s.work_cycles = work0;
        s.mem_cycles = mem0;
    }

    /// Deep copy for the model checker's state forking.
    #[cfg(any(test, feature = "check"))]
    pub fn clone_for_check(&self) -> Self {
        SimState {
            config: self.config.clone(),
            mem: self.mem.clone(),
            cores: self.cores.iter().map(CoreState::clone_for_check).collect(),
            l2: self.l2.clone(),
            log: self.log.clone(),
            clocks: self.clocks.clone(),
            hasher: self.hasher.clone(),
            sig_live: self.sig_live,
            ot_present: self.ot_present,
            commit_scratch: Vec::new(),
            check_every_op: self.check_every_op,
        }
    }

    /// The full machine-level invariant sweep: per-core state checks
    /// plus the cross-core properties that define TMESI — SWMR modulo
    /// TMI, TI legality, directory coverage, activity-mask supersets,
    /// and cycle/abort accounting conservation. Panics (asserts) on the
    /// first violation; the model checker catches the panic and reports
    /// the op path that led here.
    #[cfg(any(test, feature = "check"))]
    pub fn check_invariants(&self) {
        use crate::cache::L1State;

        let ncores = self.config.cores;
        for (i, core) in self.cores.iter().enumerate() {
            core.check_invariants(i, ncores);

            // Activity masks are supersets of the truth: a live
            // signature or allocated OT must have its bit set (stale
            // set bits after clears are fine, missed ones are not).
            if core.has_tx_footprint() {
                assert!(
                    self.sig_live.contains(i),
                    "core {i}: live signatures but sig_live bit clear"
                );
            }
            if core.ot.is_some() {
                assert!(
                    self.ot_present.contains(i),
                    "core {i}: OT allocated but ot_present bit clear"
                );
            }

            // Accounting conservation: the four cycle buckets sum to
            // the core clock at every instant, and every abort/failed
            // commit carries exactly one recorded cause.
            let s = &core.stats;
            assert_eq!(
                s.cycle_sum(),
                self.now(i),
                "core {i}: cycle buckets diverge from the clock"
            );
            assert_eq!(
                s.abort_causes.cause_sum(),
                s.tx_aborts + s.failed_commits,
                "core {i}: abort causes do not sum to tx_aborts + failed_commits"
            );
        }

        // Cross-core sweep over every resident line.
        let mut lines: Vec<LineAddr> = self
            .cores
            .iter()
            .flat_map(|c| c.l1.iter_all().map(|e| e.line))
            .collect();
        lines.sort_unstable_by_key(|l| l.index());
        lines.dedup();
        for line in lines {
            let mut exclusive_holders = ProcSet::empty();
            let mut shared_holders = ProcSet::empty();
            for (i, core) in self.cores.iter().enumerate() {
                let Some(e) = core.l1.peek(line) else {
                    continue;
                };
                match e.state {
                    L1State::M | L1State::E => exclusive_holders.insert(i),
                    L1State::S => shared_holders.insert(i),
                    L1State::Tmi | L1State::Ti => {}
                }
            }
            // SWMR modulo TMI: conventional ownership stays singular.
            // Any number of TMI owners may coexist with it — a doomed
            // speculative writer legitimately persists past the point
            // where a conventional owner (or a committed rival's M
            // line) appears; its CSTs guarantee it can never commit.
            assert!(
                exclusive_holders.count() <= 1,
                "line {line:?}: multiple M/E holders {exclusive_holders:?}"
            );
            assert!(
                exclusive_holders.is_empty() || shared_holders.is_empty(),
                "line {line:?}: M/E holder {exclusive_holders:?} coexists \
                 with sharers {shared_holders:?}"
            );

            // TI legality lives next to the threat test it mirrors;
            // directory coverage next to the handlers that maintain
            // the bits.
            self.check_threat_invariants(line);
            self.check_directory_invariants(line);
        }
    }
}

/// The scheduler: the run's parked workers and its counters. Touched
/// only by the runner (module doc, "Safety").
#[derive(Debug, Default)]
struct Sched {
    /// Parked workers, min-`(clock, core)` first, each keyed by the
    /// clock it resumes at: the issue clock of its queued op, or its
    /// start clock if it has not run yet.
    queue: BinaryHeap<Reverse<(u64, usize)>>,
    /// Engine counters, folded into [`MachineReport`].
    stats: SchedStats,
    /// The core whose body panicked, poisoning the machine: every other
    /// worker bails out, and the handle refuses further use.
    poisoned: Option<usize>,
}

/// Fiber engine contexts: the suspended stack pointer of the `run`
/// caller and of each worker (or a worker's prepared first context).
/// Plain cells: all fibers share the calling OS thread, and only the
/// runner touches them.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
struct FiberHub {
    driver: Cell<u64>,
    ctx: Box<[Cell<u64>]>,
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
impl FiberHub {
    /// Suspends the running context into `save` and resumes `resume`.
    fn switch(&self, save: &Cell<u64>, resume: &Cell<u64>) {
        // SAFETY: `resume` holds a context this engine saved or
        // prepared and has not resumed since: the worker just popped
        // from the queue (each queue entry is popped once per park),
        // or the driver suspended in `run_fibers` (resumed once, by the
        // last exit). Its stack is alive until `run_fibers` returns,
        // which needs every worker to have exited first. `save` is the
        // running context's own cell.
        #[allow(unsafe_code)]
        unsafe {
            fiber::flextm_sim_fiber_switch(save.as_ptr(), resume.get())
        };
    }
}

/// OS-thread engine: the baton. `held[i]` is set by the worker handing
/// the machine to worker `i` and consumed by `i`.
struct BatonHub {
    held: Box<[AtomicBool]>,
    /// The run's worker threads, for unparking. Written by `run_threads`
    /// before it passes the first baton; read only by baton holders.
    workers: UnsafeCell<Vec<Thread>>,
}

// SAFETY: `held` is atomic; `workers` is written only while no worker
// holds the baton (before the first pass of a run, after every worker
// of the previous run has been joined) and is only read in between.
#[allow(unsafe_code)]
unsafe impl Sync for BatonHub {}

impl BatonHub {
    /// Hands the machine to worker `next`. The caller must not touch
    /// the machine again until it holds the baton once more.
    fn pass(&self, next: usize) {
        // SAFETY: see the `Sync` impl — the vector is not written while
        // any worker of this run is alive.
        #[allow(unsafe_code)]
        let thread = unsafe { &(&*self.workers.get())[next] };
        // Release: every write of this runner happens-before the next
        // runner's acquire load in `wait`.
        self.held[next].store(true, Release);
        thread.unpark();
    }

    /// Blocks until worker `me` holds the baton. An unpark that arrives
    /// before the park is absorbed by the park token.
    fn wait(&self, me: usize) {
        while !self.held[me].load(Acquire) {
            std::thread::park();
        }
        self.held[me].store(false, Relaxed);
    }
}

/// How workers run and switch.
enum Engine {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    Fibers(FiberHub),
    Threads(BatonHub),
}

/// State shared between the [`Machine`] handle and its workers.
pub(crate) struct Shared {
    state: UnsafeCell<SimState>,
    sched: UnsafeCell<Sched>,
    /// Claimed for the whole of [`Machine::run`] and for every borrow
    /// of the state through the handle, so none of them can overlap.
    busy: AtomicBool,
    engine: Engine,
}

// SAFETY: the cells are dereferenced only by the runner or by the
// holder of the `busy` claim (module doc, "Safety"); the fiber hub's
// cells only on the OS thread inside `Machine::run`, which holds the
// claim. Everything else in `Shared` is `Sync` on its own.
#[allow(unsafe_code)]
unsafe impl Sync for Shared {}

/// Runs `f` on the machine state and the scheduler. The caller must be
/// the runner, or hold the `busy` claim outside a run, and `f` must not
/// switch.
#[inline]
fn as_runner<R>(shared: &Shared, f: impl FnOnce(&mut SimState, &mut Sched) -> R) -> R {
    // SAFETY: by the caller's contract no other thread of control
    // touches either cell while `f` runs, and no reference outlives it
    // (module doc, "Safety").
    #[allow(unsafe_code)]
    let (st, sched) = unsafe { (&mut *shared.state.get(), &mut *shared.sched.get()) };
    f(st, sched)
}

/// Executes one simulated operation for the running worker `core`: `f`
/// runs exactly when the deterministic order reaches the op's
/// `(issue clock, core)`. Inline if that key is below the queue
/// minimum; otherwise `core` takes the minimum's place in the queue and
/// switches to it, running `f` once it is popped again.
pub(crate) fn sync_op<R>(shared: &Shared, core: usize, f: impl FnOnce(&mut SimState) -> R) -> R {
    let queued = as_runner(shared, |st, sched| {
        let key = (st.now(core), core);
        match sched.queue.peek_mut() {
            Some(mut min) if min.0 < key => {
                let next = min.0 .1;
                *min = Reverse(key);
                sched.stats.slow_ops += 1;
                sched.stats.grants += 1;
                Some(next)
            }
            _ => {
                sched.stats.fast_ops += 1;
                None
            }
        }
    });
    if let Some(next) = queued {
        switch(shared, core, next);
    }
    as_runner(shared, |st, _| f(st))
}

/// Parks the runner `me` (already queued) and hands the machine to
/// `next`. Returns once `me` has been popped and switched to again —
/// or, if the machine was poisoned meanwhile, panics so the worker
/// unwinds its own stack.
#[cold]
fn switch(shared: &Shared, me: usize, next: usize) {
    match &shared.engine {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        Engine::Fibers(hub) => hub.switch(&hub.ctx[me], &hub.ctx[next]),
        Engine::Threads(hub) => {
            hub.pass(next);
            hub.wait(me);
        }
    }
    if as_runner(shared, |_, sched| sched.poisoned.is_some()) {
        panic!("a simulated thread panicked; the machine is poisoned");
    }
}

/// A worker's last act: hands the machine to the queue minimum or, when
/// the queue is empty, back to `run`. A fiber never returns from here.
fn exit(shared: &Shared, me: usize) {
    let next = as_runner(shared, |_, sched| {
        let next = sched.queue.pop().map(|Reverse((_, core))| core);
        sched.stats.grants += u64::from(next.is_some());
        next
    });
    match &shared.engine {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        Engine::Fibers(hub) => {
            hub.switch(&hub.ctx[me], next.map_or(&hub.driver, |n| &hub.ctx[n]));
            unreachable!("finished fiber was resumed");
        }
        Engine::Threads(hub) => {
            if let Some(next) = next {
                hub.pass(next);
            }
        }
    }
}

/// `work`: charges `cycles` of local computation to the runner. Touches
/// only its own clock and work bucket, so it needs no ordering: no
/// other core can observe it before this core's next operation.
pub(crate) fn work_op(shared: &Shared, core: usize, cycles: u64) {
    as_runner(shared, |st, sched| {
        st.advance(core, cycles);
        st.cores[core].stats.work_cycles += cycles;
        sched.stats.fast_ops += 1;
    });
}

/// `stall`: charges `cycles` of contention-manager backoff/stall.
/// Scheduled exactly like [`work_op`]; only the bucket differs.
pub(crate) fn stall_op(shared: &Shared, core: usize, cycles: u64) {
    as_runner(shared, |st, sched| {
        st.advance(core, cycles);
        st.cores[core].stats.stall_cycles += cycles;
        sched.stats.fast_ops += 1;
    });
}

/// `now`: reads the runner's own clock, which only it writes.
pub(crate) fn now_op(shared: &Shared, core: usize) -> u64 {
    as_runner(shared, |st, sched| {
        sched.stats.fast_ops += 1;
        st.now(core)
    })
}

/// What one worker left behind: `None` if the run was poisoned before
/// its body started, else the body's result or panic.
type Outcome<R> = Option<std::thread::Result<R>>;

/// Runs worker `core`'s body; a panic poisons the machine. A worker
/// first reached after the poisoning never starts its body.
fn run_body<R>(
    shared: &Arc<Shared>,
    core: usize,
    body: &(impl Fn(ProcHandle) -> R + Sync),
) -> Outcome<R> {
    if as_runner(shared, |_, sched| sched.poisoned.is_some()) {
        return None;
    }
    let result = catch_unwind(AssertUnwindSafe(|| {
        body(ProcHandle::new(Arc::clone(shared), core))
    }));
    if result.is_err() {
        as_runner(shared, |_, sched| {
            sched.poisoned.get_or_insert(core);
        });
    }
    Some(result)
}

/// The fiber engine: every worker is a stackful fiber on the calling
/// OS thread. The driver (this function) switches into the queue
/// minimum and is resumed by the last worker to exit.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn run_fibers<R: Send>(
    shared: &Arc<Shared>,
    hub: &FiberHub,
    threads: usize,
    body: &(impl Fn(ProcHandle) -> R + Sync),
) -> Vec<Outcome<R>> {
    /// One fiber's one-shot job, reached through the raw pointer its
    /// stack was prepared with.
    struct Task {
        job: Option<Box<dyn FnOnce()>>,
    }
    extern "C" fn fiber_main(arg: *mut u8) -> ! {
        // SAFETY: `arg` is the `*mut Task` this fiber's stack was
        // prepared with below; the boxed task outlives the fiber.
        #[allow(unsafe_code)]
        let task = unsafe { &mut *arg.cast::<Task>() };
        (task.job.take().expect("fiber started twice"))();
        // The job's last act is `exit`, which never returns here.
        std::process::abort();
    }

    let outcomes: Vec<Cell<Outcome<R>>> = (0..threads).map(|_| Cell::new(None)).collect();
    let mut tasks: Vec<Box<Task>> = (0..threads)
        .map(|i| {
            let outcome = &outcomes[i];
            let job: Box<dyn FnOnce() + '_> = Box::new(move || {
                outcome.set(run_body(shared, i, body));
                exit(shared, i);
            });
            // SAFETY: lifetime erasure only. Every worker is queued at
            // the start and leaves the queue only to run, so every job
            // reaches `exit` — normally, by bailing out of a poisoned
            // run, or without starting its body — before the last exit
            // resumes the driver, strictly before `outcomes`, `body` and
            // the stacks are dropped.
            #[allow(unsafe_code)]
            let job: Box<dyn FnOnce() + 'static> = unsafe { std::mem::transmute(job) };
            Box::new(Task { job: Some(job) })
        })
        .collect();
    let stacks: Vec<fiber::FiberStack> = (0..threads).map(|_| fiber::FiberStack::new()).collect();
    for (i, stack) in stacks.iter().enumerate() {
        let arg = (&mut *tasks[i] as *mut Task).cast::<u8>();
        hub.ctx[i].set(stack.prepare(fiber_main, arg));
    }
    if let Some(Reverse((_, first))) = as_runner(shared, |_, sched| sched.queue.pop()) {
        hub.switch(&hub.driver, &hub.ctx[first]);
    }
    drop(tasks);
    drop(stacks);
    outcomes.into_iter().map(Cell::into_inner).collect()
}

/// The OS-thread engine: one scoped thread per worker, passing the
/// baton along the same queue. The only engine off x86_64 Linux, and
/// the engine-parity reference elsewhere.
fn run_threads<R: Send>(
    shared: &Arc<Shared>,
    hub: &BatonHub,
    threads: usize,
    body: &(impl Fn(ProcHandle) -> R + Sync),
) -> Vec<Outcome<R>> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|i| {
                scope.spawn(move || {
                    hub.wait(i);
                    let outcome = run_body(shared, i, body);
                    exit(shared, i);
                    outcome
                })
            })
            .collect();
        let handles = workers.iter().map(|w| w.thread().clone()).collect();
        // SAFETY: every worker is still waiting for its first baton, so
        // nothing reads the vector yet (`BatonHub`'s `Sync` impl).
        #[allow(unsafe_code)]
        unsafe {
            *hub.workers.get() = handles
        };
        if let Some(Reverse((_, first))) = as_runner(shared, |_, sched| sched.queue.pop()) {
            hub.pass(first);
        }
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    })
}

/// Exclusive use of the machine through its handle; released on drop
/// (also when the holder unwinds).
struct Claim<'a>(&'a AtomicBool);

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.0.store(false, Release);
    }
}

/// The simulated chip multiprocessor.
///
/// # Example
///
/// ```
/// use flextm_sim::{Addr, Machine, MachineConfig};
///
/// let machine = Machine::new(MachineConfig::small_test());
/// let results = machine.run(2, |proc| {
///     let a = Addr::new(0x1000 + proc.core() as u64 * 0x1000);
///     proc.store(a, 7);
///     proc.load(a)
/// });
/// assert_eq!(results, vec![7, 7]);
/// ```
pub struct Machine {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine").finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds a machine per `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MachineConfig::validate`]
    /// (e.g. more cores than the per-processor bit vectors can name);
    /// [`Machine::try_new`] is the non-panicking form.
    pub fn new(config: MachineConfig) -> Self {
        match Self::try_new(config) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds a machine per `config`, rejecting invalid configurations
    /// instead of panicking.
    pub fn try_new(config: MachineConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let cores = config.cores;
        let batons = || {
            Engine::Threads(BatonHub {
                held: (0..cores).map(|_| AtomicBool::new(false)).collect(),
                workers: UnsafeCell::new(Vec::new()),
            })
        };
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        let engine = if config.os_threads {
            batons()
        } else {
            Engine::Fibers(FiberHub {
                driver: Cell::new(0),
                ctx: (0..cores).map(|_| Cell::new(0)).collect(),
            })
        };
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        let engine = batons();
        Ok(Machine {
            shared: Arc::new(Shared {
                state: UnsafeCell::new(SimState::new(config)),
                sched: UnsafeCell::new(Sched::default()),
                busy: AtomicBool::new(false),
                engine,
            }),
        })
    }

    /// The execution engine this machine built: `"fiber"` (the default
    /// on x86_64 Linux) or `"os_threads"` (requested by
    /// [`MachineConfig::os_threads`], and the only engine elsewhere).
    pub fn engine(&self) -> &'static str {
        match self.shared.engine {
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            Engine::Fibers(_) => "fiber",
            Engine::Threads(_) => "os_threads",
        }
    }

    /// Claims the machine for `caller`, refusing while a run (or
    /// another borrow) holds it and once a run has been poisoned.
    fn claim(&self, caller: &str) -> Claim<'_> {
        let busy = &self.shared.busy;
        assert!(
            busy.compare_exchange(false, true, Acquire, Relaxed).is_ok(),
            "{caller} called while a run is in progress (or the state is borrowed)"
        );
        let claim = Claim(busy);
        assert!(
            as_runner(&self.shared, |_, sched| sched.poisoned.is_none()),
            "{caller}: a simulated thread panicked; the machine is poisoned"
        );
        claim
    }

    /// Direct access to simulator state. Only valid while no `run` is
    /// in progress — used to build data structures in memory before a
    /// run and to inspect state afterwards. Accesses made here cost no
    /// simulated time and leave caches untouched.
    ///
    /// # Panics
    ///
    /// Panics if called while a run is in progress — including from a
    /// run body — or from inside another `with_state`.
    pub fn with_state<R>(&self, f: impl FnOnce(&mut SimState) -> R) -> R {
        let _claim = self.claim("with_state");
        as_runner(&self.shared, |st, _| f(st))
    }

    /// Runs `threads` simulated threads to completion; thread `i`
    /// executes `body(ProcHandle(core i))`. Returns each thread's
    /// result, in core order. Core clocks continue from any previous
    /// run (take a [`Machine::report`] before and after to measure a
    /// region).
    ///
    /// # Panics
    ///
    /// Panics if `threads` exceeds the configured core count or a body
    /// panics (that panic is propagated; the machine is then poisoned).
    pub fn run<R: Send>(&self, threads: usize, body: impl Fn(ProcHandle) -> R + Sync) -> Vec<R> {
        let t0 = Instant::now();
        let _claim = self.claim("run");
        let shared = &self.shared;
        as_runner(shared, |st, sched| {
            let cores = st.clocks.len();
            assert!(
                threads <= cores,
                "asked for {threads} threads on a {cores}-core machine"
            );
            // A run that panicked before its first switch (say, a
            // failed stack mapping) leaves its seeds behind.
            sched.queue.clear();
            sched
                .queue
                .extend((0..threads).map(|i| Reverse((st.clocks[i], i))));
        });
        let mut outcomes = match &shared.engine {
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            Engine::Fibers(hub) => run_fibers(shared, hub, threads, &body),
            Engine::Threads(hub) => run_threads(shared, hub, threads, &body),
        };
        let poisoned = as_runner(shared, |_, sched| {
            sched.stats.host_nanos += t0.elapsed().as_nanos() as u64;
            sched.poisoned
        });
        if let Some(core) = poisoned {
            match outcomes.swap_remove(core) {
                Some(Err(payload)) => resume_unwind(payload),
                _ => unreachable!("the poisoning worker recorded no panic"),
            }
        }
        outcomes
            .into_iter()
            .map(|o| match o {
                Some(Ok(r)) => r,
                _ => unreachable!("a worker of an unpoisoned run did not finish"),
            })
            .collect()
    }

    /// Aligns every core's local clock to the current global maximum —
    /// a synchronization barrier between measurement phases.
    ///
    /// Threads that did different amounts of work in a previous
    /// [`Machine::run`] leave their cores' clocks skewed; a later run
    /// would then execute them in disjoint simulated-time windows,
    /// making serialized work look concurrent. Call this between a
    /// warm-up phase and a timed phase (the workload harness does).
    ///
    /// # Panics
    ///
    /// Panics if called while a run is in progress.
    pub fn align_clocks(&self) {
        let _claim = self.claim("align_clocks");
        as_runner(&self.shared, |st, _| {
            let max = st.clocks.iter().copied().max().unwrap_or(0);
            for (clock, core) in st.clocks.iter_mut().zip(&mut st.cores) {
                // The alignment skip is idle waiting at a barrier:
                // charge it to the stall bucket so the four buckets
                // keep summing to the clock.
                core.stats.stall_cycles += max - *clock;
                *clock = max;
            }
        });
    }

    /// Snapshot of counters, clocks and scheduler statistics.
    pub fn report(&self) -> MachineReport {
        let _claim = self.claim("report");
        as_runner(&self.shared, |st, sched| MachineReport {
            core_cycles: st.clocks.clone(),
            cores: st.cores.iter().map(|c| c.stats).collect(),
            sched: sched.stats,
        })
    }
}

pub(crate) type SharedMachine = Arc<Shared>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_runs_to_completion() {
        let m = Machine::new(MachineConfig::small_test());
        let out = m.run(1, |proc| {
            proc.work(10);
            proc.core()
        });
        assert_eq!(out, vec![0]);
        assert_eq!(m.report().core_cycles[0], 10);
    }

    #[test]
    fn operations_execute_in_clock_order() {
        // Core 0 does cheap ops, core 1 one expensive op; the cheap ops
        // must interleave deterministically before core 1's clock is
        // passed.
        let m = Machine::new(MachineConfig::small_test());
        m.run(2, |proc| {
            if proc.core() == 0 {
                for _ in 0..10 {
                    proc.work(1);
                }
            } else {
                proc.work(100);
            }
        });
        let r = m.report();
        assert_eq!(r.core_cycles[0], 10);
        assert_eq!(r.core_cycles[1], 100);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let m = Machine::new(MachineConfig::small_test());
            m.with_state(|st| st.mem.write(crate::mem::Addr::new(0x1000), 5));
            m.run(3, |proc| {
                let a = crate::mem::Addr::new(0x1000);
                let v = proc.load(a);
                proc.store(a.offset(1 + proc.core() as u64), v + proc.core() as u64);
                proc.work(proc.core() as u64 * 3);
            });
            let r = m.report();
            (r.core_cycles.clone(), r.total(|c| c.l1_misses))
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "threads on a")]
    fn too_many_threads_panics() {
        let m = Machine::new(MachineConfig::small_test());
        m.run(99, |_| {});
    }

    #[test]
    fn try_new_rejects_unsupported_core_counts() {
        let err = Machine::try_new(MachineConfig::small_test().with_cores(200)).unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooManyCores {
                requested: 200,
                max: flextm_sig::MAX_CORES
            }
        );
        assert!(Machine::try_new(MachineConfig::small_test().with_cores(128)).is_ok());
    }

    #[test]
    #[should_panic(expected = "200 cores")]
    fn new_panics_with_the_requested_core_count() {
        let _ = Machine::new(MachineConfig::small_test().with_cores(200));
    }

    #[test]
    fn sequential_runs_accumulate_clocks() {
        let m = Machine::new(MachineConfig::small_test());
        m.run(1, |p| p.work(5));
        m.run(2, |p| p.work(7));
        let r = m.report();
        assert_eq!(r.core_cycles[0], 12);
        assert_eq!(r.core_cycles[1], 7);
    }

    #[test]
    fn fast_path_is_used_and_counted() {
        // One worker never queues: every op runs inline.
        let m = Machine::new(MachineConfig::small_test());
        m.run(1, |p| {
            for _ in 0..100 {
                p.work(1);
            }
            p.store(crate::mem::Addr::new(0x80), 9);
        });
        let r = m.report();
        assert_eq!(r.sched.fast_ops, 101, "{:?}", r.sched);
        assert_eq!((r.sched.slow_ops, r.sched.grants), (0, 0));
        assert_eq!(r.cores[0].work_cycles, 100);
    }

    #[test]
    fn ops_retire_in_min_clock_id_order() {
        // The ordering rule itself: number every op as it retires and
        // record its (issue clock, core); in retire order the keys must
        // be sorted. Uneven work between ops makes the cores overtake
        // one another.
        let retired = std::sync::atomic::AtomicUsize::new(0);
        let m = Machine::new(MachineConfig::small_test());
        let per_core = m.run(4, |p| {
            (0..24u64)
                .map(|i| {
                    p.work(1 + (i * 7 + p.core() as u64 * 5) % 11);
                    let key = (p.now(), p.core());
                    (p.with_sync(|| retired.fetch_add(1, Relaxed)), key)
                })
                .collect::<Vec<_>>()
        });
        let mut log: Vec<_> = per_core.into_iter().flatten().collect();
        log.sort_unstable();
        assert_eq!(log.len(), 4 * 24);
        assert!(log.windows(2).all(|w| w[0].1 < w[1].1), "{log:?}");
        let r = m.report();
        assert!(r.sched.slow_ops > 0, "no op ever queued: {:?}", r.sched);
    }

    #[test]
    fn stall_and_wasted_buckets_sum_to_clock() {
        let m = Machine::new(MachineConfig::small_test());
        m.run(1, |p| {
            p.work(10);
            p.stall(7);
            p.begin_attempt();
            p.work(5);
            p.load(crate::mem::Addr::new(0x400));
            p.abort_tx(crate::stats::AbortCause::Explicit);
        });
        let r = m.report();
        let c = &r.cores[0];
        // The aborted attempt's work and memory time moved to wasted;
        // the stall stayed a stall.
        assert_eq!(c.work_cycles, 10);
        assert_eq!(c.stall_cycles, 7);
        assert_eq!(c.mem_cycles, 0);
        assert!(c.wasted_cycles > 5, "wasted = {}", c.wasted_cycles);
        assert_eq!(c.cycle_sum(), r.core_cycles[0]);
        assert_eq!(c.abort_causes.cause_sum(), c.tx_aborts + c.failed_commits);
    }

    #[test]
    fn align_clocks_charges_skew_to_stall() {
        let m = Machine::new(MachineConfig::small_test());
        m.run(2, |p| p.work(if p.core() == 0 { 3 } else { 40 }));
        m.align_clocks();
        let r = m.report();
        // Every core (including idle ones) aligns to the max clock and
        // charges the skipped span to stall.
        assert!(r.core_cycles.iter().all(|&c| c == 40));
        assert_eq!(r.cores[0].stall_cycles, 37);
        for (i, c) in r.cores.iter().enumerate() {
            assert_eq!(c.cycle_sum(), r.core_cycles[i]);
        }
    }

    #[test]
    fn engine_names_the_engine_the_machine_built() {
        let mut cfg = MachineConfig::small_test();
        let fibers = cfg!(all(target_arch = "x86_64", target_os = "linux"));
        let want = if fibers { "fiber" } else { "os_threads" };
        assert_eq!(Machine::new(cfg.clone()).engine(), want);
        cfg.os_threads = true;
        assert_eq!(Machine::new(cfg).engine(), "os_threads");
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn fiber_and_thread_engines_simulate_identically() {
        // The execution engine must be invisible: same clocks, same
        // per-core counters, same event order, and — since both engines
        // make the same queue decisions — the same scheduler counters.
        let run = |os_threads: bool| {
            let mut cfg = MachineConfig::small_test();
            cfg.os_threads = os_threads;
            let m = Machine::new(cfg);
            m.with_state(|st| st.mem.write(crate::mem::Addr::new(0x40), 1));
            m.run(4, |p| {
                let a = crate::mem::Addr::new(0x40);
                for i in 0..12 {
                    let v = p.load(a.offset((p.core() as u64 + i) % 7));
                    p.store(a.offset(7 + v % 5), v + 1);
                    p.work(1 + p.core() as u64);
                }
            });
            let events = m.with_state(|st| st.log.take());
            (m.report(), events)
        };
        let (fiber_report, fiber_events) = run(false);
        let (thread_report, thread_events) = run(true);
        assert!(fiber_report.sched.grants > 0, "{:?}", fiber_report.sched);
        assert_eq!(fiber_report, thread_report);
        assert_eq!(fiber_events, thread_events);
    }

    /// Calls `with_state` from inside a run body on the chosen engine.
    fn with_state_inside_run(os_threads: bool) {
        let mut cfg = MachineConfig::small_test();
        cfg.os_threads = os_threads;
        let m = Machine::new(cfg);
        m.run(2, |p| {
            p.load(crate::mem::Addr::new(0x100));
            if p.core() == 1 {
                m.with_state(|_| ());
            }
        });
    }

    #[test]
    #[should_panic(expected = "with_state called while a run is in progress")]
    fn with_state_inside_a_run_panics() {
        with_state_inside_run(false);
    }

    #[test]
    #[should_panic(expected = "with_state called while a run is in progress")]
    fn with_state_inside_a_run_panics_on_thread_engine() {
        with_state_inside_run(true);
    }

    /// Test-only switch: set in the child process that the guard-page
    /// test spawns, which then overflows a fiber stack.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    const OVERFLOW_CHILD: &str = "FLEXTM_SIM_TEST_FIBER_OVERFLOW_CHILD";

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn fiber_stack_overflow_faults_on_the_guard_page() {
        use std::os::unix::process::ExitStatusExt;

        if std::env::var_os(OVERFLOW_CHILD).is_some() {
            /// Recurses in frames of more than a page each until the
            /// stack pointer is below `floor`.
            fn recurse(floor: usize) -> u8 {
                let frame = std::hint::black_box([0u8; 4096]);
                if (&frame as *const [u8; 4096] as usize) < floor {
                    return frame[0];
                }
                recurse(floor).wrapping_add(frame[4095])
            }
            extern "C" {
                fn setrlimit(resource: i32, limit: *const [u64; 2]) -> i32;
            }
            // No core file for the expected crash (RLIMIT_CORE = 4).
            // SAFETY: a valid pointer to a two-word rlimit.
            #[allow(unsafe_code)]
            unsafe {
                setrlimit(4, &[0, 0]);
            }
            let m = Machine::new(MachineConfig::small_test());
            m.run(2, |p| {
                if p.core() == 0 {
                    // Core 1 runs first and finishes, so the stack
                    // mapped just below this one is dead: without a
                    // guard page, overflowing into it would go
                    // unnoticed rather than hit unmapped memory.
                    p.work(1_000);
                    p.load(crate::mem::Addr::new(0x40));
                    // 256 KiB past the end of this stack, well inside
                    // the neighbour below it.
                    let here = std::hint::black_box(0u8);
                    let sp = &here as *const u8 as usize;
                    recurse(sp - crate::fiber::STACK_BYTES - (256 << 10));
                } else {
                    p.load(crate::mem::Addr::new(0x80));
                }
            });
            return; // reached only if the overflow went unnoticed
        }
        let exe = std::env::current_exe().expect("test binary path");
        for _ in 0..3 {
            let out = std::process::Command::new(&exe)
                .args([
                    "--exact",
                    "machine::tests::fiber_stack_overflow_faults_on_the_guard_page",
                    "--test-threads=1",
                ])
                .env(OVERFLOW_CHILD, "1")
                .output()
                .expect("spawn the overflowing child");
            assert_eq!(
                out.status.signal(),
                Some(11),
                "expected SIGSEGV, got {:?}; stderr: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }

    #[test]
    fn worker_panic_propagates_and_poisons_on_thread_engine() {
        let mut cfg = MachineConfig::small_test();
        cfg.os_threads = true;
        let m = Machine::new(cfg);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run(2, |p| {
                if p.core() == 1 {
                    panic!("boom");
                }
                for _ in 0..4 {
                    p.load(crate::mem::Addr::new(0x100));
                }
            });
        }));
        assert!(result.is_err());
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.report())).is_err());
    }

    #[test]
    fn worker_panic_propagates_and_poisons() {
        let m = Machine::new(MachineConfig::small_test());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run(2, |p| {
                if p.core() == 1 {
                    panic!("boom");
                }
                for _ in 0..4 {
                    p.load(crate::mem::Addr::new(0x100));
                }
            });
        }));
        assert!(result.is_err());
        // The machine must refuse further use rather than expose
        // half-mutated state.
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.report())).is_err());
    }
}
