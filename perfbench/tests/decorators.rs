//! The tracing decorators must not perturb the simulation: a traced
//! run of every runtime produces the same machine report, commit count
//! and attempt count as the plain `run_cell`.

use flextm::CmKind;
use flextm_bench::{run_cell, CellSpec, RuntimeKind, WorkloadKind};
use flextm_perfbench::report_digest;
use flextm_perfbench::trace::{run_cell_traced, Phase, Span};

const RUNTIMES: [RuntimeKind; 6] = [
    RuntimeKind::Cgl,
    RuntimeKind::FlexTmEager,
    RuntimeKind::FlexTmLazy,
    RuntimeKind::RtmF,
    RuntimeKind::Rstm,
    RuntimeKind::Tl2,
];

fn small_hashtable(runtime: RuntimeKind) -> CellSpec {
    CellSpec {
        workload: WorkloadKind::HashTable,
        runtime,
        cm: CmKind::Polka,
        threads: 4,
        sig_bits: 2048,
        seed: 0x5EED,
        txns_per_thread: 24,
        warmup_per_thread: 4,
    }
}

#[test]
fn traced_runs_match_plain_runs_on_every_runtime() {
    for runtime in RUNTIMES {
        let spec = small_hashtable(runtime);
        let plain = run_cell(&spec);
        let traced = run_cell_traced(&spec);
        let label = runtime.label();
        assert_eq!(plain.report, traced.run.report, "{label}: reports differ");
        assert_eq!(
            report_digest(&plain.report),
            report_digest(&traced.run.report),
            "{label}: digests differ"
        );
        assert_eq!(plain.committed, traced.run.committed, "{label}");
        assert_eq!(plain.attempts, traced.run.attempts, "{label}");
        assert_eq!(plain.committed, 4 * 24, "{label}");
    }
}

#[test]
fn traced_run_counts_every_unit_and_attempt() {
    let spec = small_hashtable(RuntimeKind::FlexTmLazy);
    let traced = run_cell_traced(&spec);
    let p = &traced.profile;
    assert_eq!(p.get(Phase::Timed, Span::RunOnce).calls, 4 * 24);
    assert_eq!(p.get(Phase::Warm, Span::RunOnce).calls, 4 * 4);
    assert_eq!(
        p.get(Phase::Timed, Span::TxnOnce).calls,
        traced.run.attempts
    );
    assert_eq!(p.get(Phase::Timed, Span::Worker).calls, 4);
    assert!(p.get(Phase::Timed, Span::Access).calls >= traced.run.committed);
    assert!(p.get(Phase::Timed, Span::Access).self_ns > 0);
    assert_eq!(p.get(Phase::Warm, Span::Setup).calls, 1);
}
