//! Tracing decorators: wrappers around the real runtime
//! ([`TmRuntime`] → [`TmThread`] → the [`Txn`] each body receives) and
//! around a [`Workload`], which record span events from outside the
//! program and charge host time to the layer that was running.
//!
//! On the fiber engine every simulated core shares one OS thread, so a
//! span's wall-clock extent includes time other cores ran. The
//! [`Tracer`] therefore keeps one stack of open spans per simulated
//! core and charges the host time between two consecutive events to
//! the innermost open span of the core that emitted the earlier one. A
//! fiber switch happens only inside a simulator call, so switch and
//! scheduling time lands in [`Span::Access`] or [`Span::TxnOnce`], the
//! spans that made the call. Accounting is done online, so memory use
//! is fixed however long the run.

use flextm_bench::CellSpec;
use flextm_sim::api::{AttemptOutcome, TmRuntime, TmThread, TxRetry, Txn, TxnBody};
use flextm_sim::{Addr, Machine, MachineConfig, ProcHandle};
use flextm_workloads::harness::{run_measured, RunConfig, RunResult, ThreadCtx, Workload};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The span kinds the decorators record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Workload::setup` (host, not on a simulated core).
    Setup,
    /// One `run_measured` call (host).
    RunMeasured,
    /// A worker's lifetime: from `TmRuntime::thread` to dropping the
    /// handle. Self time is harness loop code between units of work.
    Worker,
    /// One `Workload::run_once` call, minus the transactions it runs.
    RunOnce,
    /// One `TmThread::txn_once` attempt minus its body: begin, commit,
    /// abort and contention-manager backoff.
    TxnOnce,
    /// The transaction body closure minus its `Txn` calls.
    Body,
    /// One `Txn` call: the runtime barrier plus the simulator beneath.
    Access,
}

/// Every span kind, in report order.
pub const SPANS: [Span; 7] = [
    Span::Setup,
    Span::RunMeasured,
    Span::Worker,
    Span::RunOnce,
    Span::TxnOnce,
    Span::Body,
    Span::Access,
];

impl Span {
    /// The span kind opened directly inside this one on the same core.
    fn child(self) -> Option<Span> {
        match self {
            Span::Worker => Some(Span::RunOnce),
            Span::RunOnce => Some(Span::TxnOnce),
            Span::TxnOnce => Some(Span::Body),
            Span::Body => Some(Span::Access),
            Span::Setup | Span::RunMeasured | Span::Access => None,
        }
    }

    /// Stable span name used in the span table.
    pub fn name(self) -> &'static str {
        match self {
            Span::Setup => "workloads.setup",
            Span::RunMeasured => "run_measured",
            Span::Worker => "worker",
            Span::RunOnce => "run_once",
            Span::TxnOnce => "txn_once",
            Span::Body => "body",
            Span::Access => "txn_call",
        }
    }
}

/// Calls and self time of one span kind in one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans opened.
    pub calls: u64,
    /// Host nanoseconds charged to the span itself.
    pub self_ns: u64,
}

/// The run phase a span event falls in. `run_measured` warms the
/// caches and runs warm-up transactions before its timed region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Everything before the timed region.
    Warm = 0,
    /// The timed region.
    Timed = 1,
}

/// Per-phase, per-span totals, plus host time no open span covered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// `spans[phase][span]`, indexed like [`SPANS`].
    pub spans: [[SpanTotals; SPANS.len()]; 2],
    /// Host nanoseconds between events while no span was open.
    pub unattributed_ns: u64,
}

impl Profile {
    /// Totals of `span` in `phase`.
    pub fn get(&self, phase: Phase, span: Span) -> SpanTotals {
        self.spans[phase as usize][span_index(span)]
    }

    /// Self time of `span` in `phase` with the tracer's own cost taken
    /// out. Every event charges the host time up to the next event to
    /// the span innermost after it, so a span is charged one segment
    /// per call plus one per call of its children, and each segment
    /// carries `segment_ns` of recording cost (see
    /// [`Tracer::segment_ns`]).
    pub fn net_self_ns(&self, phase: Phase, span: Span, segment_ns: f64) -> f64 {
        let child_calls = span.child().map_or(0, |c| self.get(phase, c).calls);
        let segments = (self.get(phase, span).calls + child_calls) as f64;
        (self.get(phase, span).self_ns as f64 - segments * segment_ns).max(0.0)
    }
}

fn span_index(span: Span) -> usize {
    SPANS
        .iter()
        .position(|&s| s == span)
        .expect("every span is listed in SPANS")
}

/// Stack slot for events not on a simulated core.
const HOST: usize = 0;

struct State {
    last: Instant,
    last_stack: usize,
    /// Open spans per stack: slot 0 is the host, slot `c + 1` core `c`.
    stacks: Vec<Vec<(Span, Phase)>>,
    phase: Phase,
    timed_start: Option<Instant>,
    profile: Profile,
}

/// The span recorder shared by all decorators of one traced run.
pub struct Tracer {
    state: Mutex<State>,
}

impl Tracer {
    /// A tracer in the warm phase with no open spans.
    fn new() -> Self {
        Tracer {
            state: Mutex::new(State {
                last: Instant::now(),
                last_stack: HOST,
                stacks: vec![Vec::new()],
                phase: Phase::Warm,
                timed_start: None,
                profile: Profile::default(),
            }),
        }
    }

    /// Records one event on `stack`: opens `span`, or closes the
    /// innermost open span when `span` is `None`.
    fn event(&self, stack: usize, span: Option<Span>) {
        let now = Instant::now();
        let mut st = self.state.lock().expect("tracer lock poisoned");
        let st = &mut *st;
        let elapsed = u64::try_from(now.duration_since(st.last).as_nanos()).unwrap_or(u64::MAX);
        match st.stacks[st.last_stack].last() {
            Some(&(open, phase)) => {
                st.profile.spans[phase as usize][span_index(open)].self_ns += elapsed;
            }
            None => st.profile.unattributed_ns += elapsed,
        }
        if st.stacks.len() <= stack {
            st.stacks.resize_with(stack + 1, Vec::new);
        }
        match span {
            Some(span) => {
                st.stacks[stack].push((span, st.phase));
                st.profile.spans[st.phase as usize][span_index(span)].calls += 1;
            }
            None => {
                st.stacks[stack]
                    .pop()
                    .expect("span exit without a matching enter");
            }
        }
        st.last = now;
        st.last_stack = stack;
    }

    fn enter(&self, stack: usize, span: Span) {
        self.event(stack, Some(span));
    }

    fn exit(&self, stack: usize) {
        self.event(stack, None);
    }

    /// Runs `f` inside a host span (not attributed to any core).
    fn host_span<R>(&self, span: Span, f: impl FnOnce() -> R) -> R {
        self.enter(HOST, span);
        let r = f();
        self.exit(HOST);
        r
    }

    /// Enters the timed region: later-opened spans are charged to
    /// [`Phase::Timed`].
    fn start_timed(&self) {
        let mut st = self.state.lock().expect("tracer lock poisoned");
        st.phase = Phase::Timed;
        st.timed_start = Some(Instant::now());
    }

    /// When the timed region began, if it has.
    fn timed_start(&self) -> Option<Instant> {
        self.state.lock().expect("tracer lock poisoned").timed_start
    }

    /// The recording cost one charged segment carries: the tail of one
    /// event and the head of the next, measured as the self time of
    /// empty spans (median of several batches, in nanoseconds).
    pub fn segment_ns() -> f64 {
        const SPANS_PER_BATCH: u32 = 4096;
        let mut batches: Vec<f64> = (0..9)
            .map(|_| {
                let tracer = Tracer::new();
                tracer.host_span(Span::RunMeasured, || {
                    for _ in 0..SPANS_PER_BATCH {
                        tracer.enter(core_stack(0), Span::Access);
                        tracer.exit(core_stack(0));
                    }
                });
                let p = tracer.take();
                p.get(Phase::Warm, Span::Access).self_ns as f64 / f64::from(SPANS_PER_BATCH)
            })
            .collect();
        batches.sort_by(f64::total_cmp);
        batches[batches.len() / 2]
    }

    /// Takes the accumulated profile and resets the totals.
    fn take(&self) -> Profile {
        let mut st = self.state.lock().expect("tracer lock poisoned");
        std::mem::take(&mut st.profile)
    }
}

fn core_stack(core: usize) -> usize {
    core + 1
}

/// [`TmRuntime`] decorator. Hands out [`TracedThread`]s and switches
/// the tracer to [`Phase::Timed`] when the timed region's first worker
/// asks for its handle.
struct TracedRuntime<'a> {
    inner: &'a dyn TmRuntime,
    tracer: &'a Tracer,
    handles: Mutex<usize>,
    warm_handles: usize,
}

impl<'a> TracedRuntime<'a> {
    /// Wraps `inner`. `warm_handles` is how many thread handles the
    /// harness creates before its timed region (the warm-up run's
    /// thread count, or 0 without warm-up).
    fn new(inner: &'a dyn TmRuntime, tracer: &'a Tracer, warm_handles: usize) -> Self {
        TracedRuntime {
            inner,
            tracer,
            handles: Mutex::new(0),
            warm_handles,
        }
    }
}

impl TmRuntime for TracedRuntime<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn thread<'r>(&'r self, thread_id: usize, proc: ProcHandle) -> Box<dyn TmThread + 'r> {
        let mut handles = self.handles.lock().expect("handle count lock poisoned");
        if *handles == self.warm_handles {
            self.tracer.start_timed();
        }
        *handles += 1;
        drop(handles);
        let stack = core_stack(proc.core());
        self.tracer.enter(stack, Span::Worker);
        Box::new(TracedThread {
            inner: self.inner.thread(thread_id, proc),
            tracer: self.tracer,
            stack,
        })
    }
}

/// [`TmThread`] decorator: records `txn_once` and body spans and hands
/// the body a [`TracedTxn`].
struct TracedThread<'r> {
    inner: Box<dyn TmThread + 'r>,
    tracer: &'r Tracer,
    stack: usize,
}

impl Drop for TracedThread<'_> {
    fn drop(&mut self) {
        self.tracer.exit(self.stack);
    }
}

impl TmThread for TracedThread<'_> {
    fn txn_once(&mut self, body: &mut TxnBody<'_>) -> AttemptOutcome {
        let (tracer, stack) = (self.tracer, self.stack);
        tracer.enter(stack, Span::TxnOnce);
        let outcome = self.inner.txn_once(&mut |tx: &mut dyn Txn| {
            tracer.enter(stack, Span::Body);
            let r = body(&mut TracedTxn {
                inner: tx,
                tracer,
                stack,
            });
            tracer.exit(stack);
            r
        });
        tracer.exit(stack);
        outcome
    }

    fn proc(&self) -> &ProcHandle {
        self.inner.proc()
    }
}

/// [`Txn`] decorator: one [`Span::Access`] per call.
struct TracedTxn<'t> {
    inner: &'t mut dyn Txn,
    tracer: &'t Tracer,
    stack: usize,
}

impl TracedTxn<'_> {
    fn call<R>(&mut self, f: impl FnOnce(&mut dyn Txn) -> R) -> R {
        self.tracer.enter(self.stack, Span::Access);
        let r = f(&mut *self.inner);
        self.tracer.exit(self.stack);
        r
    }
}

impl Txn for TracedTxn<'_> {
    fn read(&mut self, addr: Addr) -> Result<u64, TxRetry> {
        self.call(|tx| tx.read(addr))
    }
    fn write(&mut self, addr: Addr, value: u64) -> Result<(), TxRetry> {
        self.call(|tx| tx.write(addr, value))
    }
    fn work(&mut self, cycles: u64) -> Result<(), TxRetry> {
        self.call(|tx| tx.work(cycles))
    }
    fn escape_read(&mut self, addr: Addr) -> Result<u64, TxRetry> {
        self.call(|tx| tx.escape_read(addr))
    }
    fn escape_write(&mut self, addr: Addr, value: u64) -> Result<(), TxRetry> {
        self.call(|tx| tx.escape_write(addr, value))
    }
}

/// [`Workload`] decorator: one [`Span::RunOnce`] per unit of work.
/// `setup` is traced as a host [`Span::Setup`].
struct TracedWorkload<'a> {
    inner: &'a mut dyn Workload,
    tracer: &'a Tracer,
}

impl<'a> TracedWorkload<'a> {
    /// Wraps `inner`.
    fn new(inner: &'a mut dyn Workload, tracer: &'a Tracer) -> Self {
        TracedWorkload { inner, tracer }
    }
}

impl Workload for TracedWorkload<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn setup(&mut self, machine: &Machine) {
        let inner = &mut *self.inner;
        self.tracer.host_span(Span::Setup, || inner.setup(machine));
    }

    fn run_once(&self, th: &mut dyn TmThread, ctx: &mut ThreadCtx) -> u32 {
        let stack = core_stack(th.proc().core());
        self.tracer.enter(stack, Span::RunOnce);
        let attempts = self.inner.run_once(th, ctx);
        self.tracer.exit(stack);
        attempts
    }
}

/// One cell run under the decorators, with its host-time profile.
#[derive(Debug, Clone)]
pub struct TracedCell {
    /// The harness result (counters identical to an untraced run).
    pub run: RunResult,
    /// Span totals of the run.
    pub profile: Profile,
    /// `Machine::new`, `Workload::setup` and building the runtime.
    pub setup: Duration,
    /// `run_measured` up to its timed region: the L2 warm and the
    /// warm-up transactions.
    pub warm: Duration,
    /// The whole call.
    pub wall: Duration,
}

/// `flextm_bench::run_cell` with every layer wrapped in a decorator:
/// the same machine, workload, runtime and harness calls in the same
/// order, so the simulated outcome is identical.
pub fn run_cell_traced(spec: &CellSpec) -> TracedCell {
    let tracer = Tracer::new();
    let t0 = Instant::now();
    let mut config = MachineConfig::paper_default().with_cores(spec.threads.max(16));
    config.signature.total_bits = spec.sig_bits;
    let machine = Machine::new(config);
    let mut workload = spec.workload.build(spec.threads);
    let mut workload = TracedWorkload::new(workload.as_mut(), &tracer);
    workload.setup(&machine);
    let runtime = spec.runtime.build_with_cm(&machine, spec.threads, spec.cm);
    let warm_handles = if spec.warmup_per_thread > 0 {
        spec.threads
    } else {
        0
    };
    let runtime = TracedRuntime::new(runtime.as_ref(), &tracer, warm_handles);
    let setup = t0.elapsed();
    let t1 = Instant::now();
    let run = tracer.host_span(Span::RunMeasured, || {
        run_measured(
            &machine,
            &runtime,
            &workload,
            RunConfig {
                threads: spec.threads,
                txns_per_thread: spec.txns_per_thread,
                warmup_per_thread: spec.warmup_per_thread,
                seed: spec.seed,
            },
        )
    });
    let wall = t0.elapsed();
    let warm = tracer
        .timed_start()
        .expect("run_measured created its timed-region workers")
        .duration_since(t1);
    TracedCell {
        run,
        profile: tracer.take(),
        setup,
        warm,
        wall,
    }
}
