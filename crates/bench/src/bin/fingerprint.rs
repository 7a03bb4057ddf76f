//! Simulation fingerprint: a stable digest of a recorded HashTable run.
//!
//! Runs the paper HashTable workload at `FLEXTM_FP_THREADS` cores
//! (default 16) with event recording on, and prints the simulated
//! results that must stay bit-identical across engine refactors:
//! committed / attempts / sim_ops / sim_cycles plus an FNV-1a digest
//! over the full protocol event log and the per-core counters.
//!
//! ```text
//! FLEXTM_FP_THREADS=16 FLEXTM_FP_TXNS=96 \
//!     cargo run --release -p flextm-bench --bin fingerprint
//! ```
//!
//! Two trees implementing the same simulated machine must print the
//! same line; anything else is a semantic change, not a refactor.
//! `FLEXTM_FP_OS_THREADS=1` runs the OS-thread engine instead of the
//! fiber engine; it must reproduce the exact same digests, which
//! `scripts/verify.sh` checks on every run. The line ends with the
//! engine that ran.

use flextm::{FlexTm, FlexTmConfig};
use flextm_bench::cell::{fnv1a, FNV_OFFSET};
use flextm_bench::envcfg;
use flextm_bench::json::Json;
use flextm_sim::{Machine, MachineConfig};
use flextm_workloads::harness::{run_measured, RunConfig, Workload};
use flextm_workloads::HashTable;

fn main() {
    let threads: usize = envcfg::or_exit(envcfg::parse("FLEXTM_FP_THREADS", 16));
    let txns: u64 = envcfg::or_exit(envcfg::parse("FLEXTM_FP_TXNS", 96));

    let mut config = MachineConfig::paper_default().with_cores(threads);
    config.record_events = true;
    config.os_threads = envcfg::or_exit(envcfg::flag("FLEXTM_FP_OS_THREADS"));
    let machine = Machine::new(config);
    let mut wl = HashTable::paper();
    wl.setup(&machine);
    let tm = FlexTm::new(&machine, FlexTmConfig::lazy(threads));
    let result = run_measured(
        &machine,
        &tm,
        &wl,
        RunConfig {
            threads,
            txns_per_thread: txns,
            warmup_per_thread: 8,
            seed: 0xF1E7,
        },
    );

    let events = machine.with_state(|st| st.log.take());
    let report = machine.report();

    let mut digest: u64 = FNV_OFFSET;
    for ev in &events {
        fnv1a(&mut digest, format!("{ev:?}").as_bytes());
    }
    let mut counters: u64 = FNV_OFFSET;
    for (i, core) in report.cores.iter().enumerate() {
        fnv1a(
            &mut counters,
            format!("{i}:{core:?}:{}", report.core_cycles[i]).as_bytes(),
        );
    }

    let line = Json::obj([
        ("bench", Json::str("fingerprint_hashtable")),
        ("threads", Json::num_u64(threads as u64)),
        ("txns_per_thread", Json::num_u64(txns)),
        ("committed", Json::num_u64(result.committed)),
        ("attempts", Json::num_u64(result.attempts)),
        ("sim_ops", Json::num_u64(report.sim_ops())),
        ("sim_cycles", Json::num_u64(report.elapsed_cycles())),
        ("events", Json::num_u64(events.len() as u64)),
        ("event_digest", Json::str(format!("{digest:016x}"))),
        ("counter_digest", Json::str(format!("{counters:016x}"))),
        ("engine", Json::str(machine.engine())),
    ]);
    println!("{}", line.encode());
}
