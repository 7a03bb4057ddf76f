//! `flextm-bench`: shared machinery for the benchmark targets that
//! regenerate every table and figure of the paper's evaluation.
//!
//! Each experiment lives in `benches/` as a `harness = false` target
//! that prints the same rows/series the paper reports:
//!
//! | target | reproduces |
//! |---|---|
//! | `table2_area` | Table 2 (hardware area overheads) |
//! | `fig4_throughput` | Fig. 4(a–g) throughput & scalability |
//! | `fig4_conflicts` | Fig. 4 conflicting-transactions side table |
//! | `fig5_eager_lazy` | Fig. 5(a–d) eager vs. lazy |
//! | `fig5_multiprog` | Fig. 5(e–f) multiprogramming mix |
//! | `ablation_overflow` | §7.3 OT vs. unbounded victim buffer |
//! | `table4_flexwatcher` | Table 4 FlexWatcher vs. Discover |
//! | `micro` | `std::time` micro-benchmarks of the primitives |
//!
//! Sizing: `FLEXTM_TXNS` (timed transactions per thread, default 96)
//! and `FLEXTM_MAX_THREADS` (default 16) trade fidelity for wall-clock
//! time.

#![forbid(unsafe_code)]

pub mod cell;
pub mod envcfg;

/// The repository's JSON codec, re-exported for the crates above this
/// one (the sweep farm reaches it through here).
pub use flextm_trace::json;

pub use cell::{
    cm_from_label, cm_label, run_cell, run_cell_timed, sim_ops, CellResult, CellSpec, RecordError,
    SchedRecord,
};

use flextm::{CmKind, FlexTm, FlexTmConfig, Mode};
use flextm_sim::api::TmRuntime;
use flextm_sim::Machine;
use flextm_stm::{Cgl, Rstm, RtmF, Tl2};
use flextm_workloads::harness::{RunResult, Workload};
use flextm_workloads::{Contention, Delaunay, HashTable, LfuCache, RandomGraph, RbTree, Vacation};

/// The runtimes of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// Coarse-grain locks (normalization baseline).
    Cgl,
    /// FlexTM with eager conflict management (Polka).
    FlexTmEager,
    /// FlexTM with lazy conflict management (Polka).
    FlexTmLazy,
    /// RTM-F hardware-accelerated STM model.
    RtmF,
    /// RSTM-like invisible-reader STM.
    Rstm,
    /// TL2 (Workload-Set 2 comparator).
    Tl2,
}

impl RuntimeKind {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::Cgl => "CGL",
            RuntimeKind::FlexTmEager => "FlexTM(E)",
            RuntimeKind::FlexTmLazy => "FlexTM(L)",
            RuntimeKind::RtmF => "RTM-F",
            RuntimeKind::Rstm => "RSTM",
            RuntimeKind::Tl2 => "TL2",
        }
    }

    /// Inverse of [`RuntimeKind::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        [
            RuntimeKind::Cgl,
            RuntimeKind::FlexTmEager,
            RuntimeKind::FlexTmLazy,
            RuntimeKind::RtmF,
            RuntimeKind::Rstm,
            RuntimeKind::Tl2,
        ]
        .into_iter()
        .find(|k| k.label() == s)
    }

    /// Instantiates the runtime on `machine` for `threads` threads
    /// with the paper-default Polka contention manager.
    pub fn build(self, machine: &Machine, threads: usize) -> Box<dyn TmRuntime + '_> {
        self.build_with_cm(machine, threads, CmKind::Polka)
    }

    /// Instantiates the runtime with an explicit CM policy. CGL and
    /// TL2 have no contention manager and ignore `cm`.
    pub fn build_with_cm(
        self,
        machine: &Machine,
        threads: usize,
        cm: CmKind,
    ) -> Box<dyn TmRuntime + '_> {
        let flex = |mode| FlexTmConfig {
            mode,
            cm,
            threads,
            serialized_commits: false,
        };
        match self {
            RuntimeKind::Cgl => Box::new(Cgl::new(machine)),
            RuntimeKind::FlexTmEager => Box::new(FlexTm::new(machine, flex(Mode::Eager))),
            RuntimeKind::FlexTmLazy => Box::new(FlexTm::new(machine, flex(Mode::Lazy))),
            RuntimeKind::RtmF => Box::new(RtmF::new(machine, threads, cm)),
            RuntimeKind::Rstm => Box::new(Rstm::new(machine, threads, cm)),
            RuntimeKind::Tl2 => Box::new(Tl2::with_defaults(machine)),
        }
    }
}

/// The benchmarks of Table 3(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// HashTable (WS1).
    HashTable,
    /// RBTree (WS1).
    RbTree,
    /// LFUCache (WS1).
    LfuCache,
    /// RandomGraph (WS1).
    RandomGraph,
    /// Delaunay (WS1).
    Delaunay,
    /// Vacation, low contention (WS2).
    VacationLow,
    /// Vacation, high contention (WS2).
    VacationHigh,
}

impl WorkloadKind {
    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::HashTable => "HashTable",
            WorkloadKind::RbTree => "RBTree",
            WorkloadKind::LfuCache => "LFUCache",
            WorkloadKind::RandomGraph => "RandomGraph",
            WorkloadKind::Delaunay => "Delaunay",
            WorkloadKind::VacationLow => "Vacation-Low",
            WorkloadKind::VacationHigh => "Vacation-High",
        }
    }

    /// Inverse of [`WorkloadKind::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        ALL_WORKLOADS.into_iter().find(|k| k.label() == s)
    }

    /// Builds a fresh (un-setup) workload instance.
    pub fn build(self, max_threads: usize) -> Box<dyn Workload> {
        match self {
            WorkloadKind::HashTable => Box::new(HashTable::paper()),
            WorkloadKind::RbTree => Box::new(RbTree::paper()),
            WorkloadKind::LfuCache => Box::new(LfuCache::paper()),
            WorkloadKind::RandomGraph => Box::new(RandomGraph::paper()),
            WorkloadKind::Delaunay => Box::new(Delaunay::new(max_threads)),
            WorkloadKind::VacationLow => Box::new(Vacation::new(Contention::Low)),
            WorkloadKind::VacationHigh => Box::new(Vacation::new(Contention::High)),
        }
    }

    /// High-conflict workloads run fewer transactions per point to keep
    /// full sweeps tractable.
    pub fn txn_scale(self) -> f64 {
        match self {
            // RandomGraph transactions are ~100× heavier than HashTable
            // ones (80-line read sets; quadratic validation on RSTM).
            WorkloadKind::RandomGraph => 0.25,
            WorkloadKind::Delaunay => 0.5,
            _ => 1.0,
        }
    }
}

/// Every workload of the evaluation, in the paper's Table 3(b) order.
pub const ALL_WORKLOADS: [WorkloadKind; 7] = [
    WorkloadKind::HashTable,
    WorkloadKind::RbTree,
    WorkloadKind::LfuCache,
    WorkloadKind::RandomGraph,
    WorkloadKind::Delaunay,
    WorkloadKind::VacationLow,
    WorkloadKind::VacationHigh,
];

/// Timed transactions per thread (env `FLEXTM_TXNS`, default 96).
/// Exits loudly on an unparsable value.
pub fn txns_per_thread() -> u64 {
    envcfg::or_exit(envcfg::parse("FLEXTM_TXNS", 96))
}

/// Largest thread count in sweeps (env `FLEXTM_MAX_THREADS`, default
/// 16). Exits loudly on an unparsable value.
pub fn max_threads() -> usize {
    envcfg::or_exit(envcfg::parse("FLEXTM_MAX_THREADS", 16))
}

/// The paper's thread axis, capped at [`max_threads`].
pub fn thread_axis() -> Vec<usize> {
    [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&t| t <= max_threads())
        .collect()
}

/// The [`CellSpec`] the serial bench path runs for `workload ×
/// runtime × threads`: paper machine and signature, Polka, seed
/// 0xF1E7, `FLEXTM_TXNS` sizing with the workload's [`txn_scale`]
/// applied. The sweep farm expands the same specs, so both paths
/// describe — and therefore simulate — identical cells.
///
/// [`txn_scale`]: WorkloadKind::txn_scale
pub fn point_spec(
    workload_kind: WorkloadKind,
    runtime_kind: RuntimeKind,
    threads: usize,
    base_txns: u64,
) -> CellSpec {
    let txns = (base_txns as f64 * workload_kind.txn_scale()).max(8.0) as u64;
    CellSpec {
        workload: workload_kind,
        runtime: runtime_kind,
        cm: CmKind::Polka,
        threads,
        sig_bits: 2048,
        seed: 0xF1E7,
        txns_per_thread: txns,
        // The harness also functionally warms the L2; these warm-up
        // transactions additionally steady-state the data structures
        // and per-thread caches.
        warmup_per_thread: (txns / 4).max(8),
    }
}

/// Runs `workload` on `runtime_kind` at `threads` on a fresh paper
/// machine; one measured run per machine.
pub fn run_point(
    workload_kind: WorkloadKind,
    runtime_kind: RuntimeKind,
    threads: usize,
) -> RunResult {
    run_cell(&point_spec(
        workload_kind,
        runtime_kind,
        threads,
        txns_per_thread(),
    ))
}

/// Prints one normalized series in a gnuplot-friendly layout.
pub fn print_series(plot: &str, runtime: RuntimeKind, points: &[(usize, f64)]) {
    print!("{plot:<16} {:<10}", runtime.label());
    for (threads, value) in points {
        print!("  {threads:>2}T={value:>7.3}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextm_sim::MachineConfig;
    use flextm_workloads::harness::{run_measured, RunConfig};

    #[test]
    fn every_runtime_builds_and_runs_hashtable() {
        for kind in [
            RuntimeKind::Cgl,
            RuntimeKind::FlexTmEager,
            RuntimeKind::FlexTmLazy,
            RuntimeKind::RtmF,
            RuntimeKind::Rstm,
            RuntimeKind::Tl2,
        ] {
            let machine = Machine::new(MachineConfig::small_test().with_cores(2));
            let mut wl = WorkloadKind::HashTable.build(2);
            wl.setup(&machine);
            let rt = kind.build(&machine, 2);
            let r = run_measured(
                &machine,
                rt.as_ref(),
                wl.as_ref(),
                RunConfig {
                    threads: 2,
                    txns_per_thread: 10,
                    warmup_per_thread: 1,
                    seed: 9,
                },
            );
            assert_eq!(r.committed, 20, "{} lost transactions", kind.label());
            assert!(r.throughput() > 0.0);
        }
    }

    #[test]
    fn thread_axis_respects_env_cap() {
        // Do not mutate the env (tests run in parallel); just check the
        // default shape.
        let axis = thread_axis();
        assert!(axis.starts_with(&[1, 2, 4]));
        assert!(axis.iter().all(|&t| t <= 16));
    }
}
