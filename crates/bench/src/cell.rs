//! The run-one-cell library API the sweep farm executes.
//!
//! A *cell* is one point of the evaluation matrix — workload × runtime
//! × CM policy × threads × signature size × seed × transaction count —
//! described exactly (no environment variables, no derived sizing) so
//! that the same [`CellSpec`] produces the same simulated results in
//! any process: the serial `cargo bench` path ([`crate::run_point`]
//! expands to a spec and calls [`run_cell`]), the sweep farm's child
//! processes, and tests all share this one entry point.
//!
//! [`CellResult`] carries the deterministic simulated outcome
//! (committed / attempts / sim_ops / sim_cycles plus an FNV-1a digest
//! over the per-core counter deltas, the same construction as the
//! `fingerprint` binary) and the host wall time, which is the only
//! nondeterministic field.
//!
//! Each record type here keeps its JSON encoder and decoder side by
//! side, both built on the [`crate::json`] codec.

use crate::json::Json;
use crate::{RuntimeKind, WorkloadKind};
use flextm::CmKind;
use flextm_sim::{Machine, MachineConfig, MachineReport};
use flextm_workloads::harness::{run_measured, RunConfig, RunResult};
use std::time::Instant;

/// The op metric shared by every bench binary:
/// [`MachineReport::sim_ops`].
pub fn sim_ops(r: &MachineReport) -> u64 {
    r.sim_ops()
}

/// FNV-1a over `bytes`, continuing `h`.
pub fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Stable label for a CM policy (the `flextm` crate's `CmKind`).
pub fn cm_label(cm: CmKind) -> &'static str {
    match cm {
        CmKind::Polka => "Polka",
        CmKind::Aggressive => "Aggressive",
        CmKind::Timid => "Timid",
        CmKind::Polite => "Polite",
    }
}

/// Inverse of [`cm_label`].
pub fn cm_from_label(s: &str) -> Option<CmKind> {
    [
        CmKind::Polka,
        CmKind::Aggressive,
        CmKind::Timid,
        CmKind::Polite,
    ]
    .into_iter()
    .find(|&cm| cm_label(cm) == s)
}

/// One fully-described point of the evaluation matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// Benchmark.
    pub workload: WorkloadKind,
    /// System under test.
    pub runtime: RuntimeKind,
    /// Contention management policy (ignored by CGL and TL2).
    pub cm: CmKind,
    /// Worker threads; the machine is `threads.max(16)`-wide (the
    /// paper's fixed 16-way CMP — idle cores cost nothing).
    pub threads: usize,
    /// Signature size in bits (paper: 2048, 4-banked H3).
    pub sig_bits: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Timed transactions per thread.
    pub txns_per_thread: u64,
    /// Untimed warm-up transactions per thread.
    pub warmup_per_thread: u64,
}

impl CellSpec {
    /// The canonical JSON object: fixed field order, seed in hex.
    pub fn to_value(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.label())),
            ("runtime", Json::str(self.runtime.label())),
            ("cm", Json::str(cm_label(self.cm))),
            ("threads", Json::num_u64(self.threads as u64)),
            ("sig_bits", Json::num_u64(self.sig_bits as u64)),
            ("seed", Json::hex(self.seed)),
            ("txns_per_thread", Json::num_u64(self.txns_per_thread)),
            ("warmup_per_thread", Json::num_u64(self.warmup_per_thread)),
        ])
    }

    /// The canonical JSON encoding. This string (not the struct) is
    /// what the sweep farm hashes for its content-addressed store, and
    /// what a child process receives on its command line — one form
    /// serves both so the hash can never drift from what actually runs.
    pub fn canonical_json(&self) -> String {
        self.to_value().encode()
    }

    /// Decodes the fields [`CellSpec::to_value`] writes; other fields
    /// of `doc` are ignored, so a cell record decodes to its spec echo.
    pub fn from_json(doc: &Json) -> Result<CellSpec, String> {
        Ok(CellSpec {
            workload: WorkloadKind::from_label(doc.str_field("workload")?)
                .ok_or("unknown \"workload\"")?,
            runtime: RuntimeKind::from_label(doc.str_field("runtime")?)
                .ok_or("unknown \"runtime\"")?,
            cm: cm_from_label(doc.str_field("cm")?).ok_or("unknown \"cm\"")?,
            threads: doc.u64_field("threads")? as usize,
            sig_bits: doc.u64_field("sig_bits")? as usize,
            seed: doc.u64_field("seed")?,
            txns_per_thread: doc.u64_field("txns_per_thread")?,
            warmup_per_thread: doc.u64_field("warmup_per_thread")?,
        })
    }

    /// Short human label for progress output.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}T cm={} sig={} seed=0x{:X} txns={}",
            self.workload.label(),
            self.runtime.label(),
            self.threads,
            cm_label(self.cm),
            self.sig_bits,
            self.seed,
            self.txns_per_thread,
        )
    }
}

/// Deterministic simulated outcome of one cell, plus host wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Transactions committed in the timed region.
    pub committed: u64,
    /// Attempts in the timed region (≥ committed).
    pub attempts: u64,
    /// Simulated operations of the timed region ([`sim_ops`] over the
    /// counter deltas).
    pub sim_ops: u64,
    /// Elapsed simulated cycles of the timed region.
    pub sim_cycles: u64,
    /// FNV-1a digest over the per-core counter deltas — the
    /// bit-identity witness (same construction as the `fingerprint`
    /// binary's counter digest).
    pub digest: String,
    /// Host wall-clock seconds of the measured run (the only
    /// nondeterministic field; excluded from emitted tables).
    pub wall_s: f64,
}

impl CellResult {
    /// Transactions per million simulated cycles (the paper's Fig. 4
    /// y-axis before normalization).
    pub fn throughput(&self) -> f64 {
        if self.sim_cycles == 0 {
            0.0
        } else {
            self.committed as f64 * 1e6 / self.sim_cycles as f64
        }
    }

    /// Summarizes a harness [`RunResult`].
    pub fn from_run(run: &RunResult, wall_s: f64) -> Self {
        let mut digest = FNV_OFFSET;
        for (i, core) in run.report.cores.iter().enumerate() {
            fnv1a(
                &mut digest,
                format!("{i}:{core:?}:{}", run.report.core_cycles[i]).as_bytes(),
            );
        }
        CellResult {
            committed: run.committed,
            attempts: run.attempts,
            sim_ops: sim_ops(&run.report),
            sim_cycles: run.cycles,
            digest: format!("{digest:016x}"),
            wall_s,
        }
    }

    /// The spec echo followed by the deterministic result fields: one
    /// entry of the sweep's `*_cells.json`.
    pub fn sim_value(&self, spec: &CellSpec) -> Json {
        let mut doc = spec.to_value();
        doc.extend([
            ("committed", Json::num_u64(self.committed)),
            ("attempts", Json::num_u64(self.attempts)),
            ("sim_ops", Json::num_u64(self.sim_ops)),
            ("sim_cycles", Json::num_u64(self.sim_cycles)),
            ("digest", Json::str(&self.digest)),
        ]);
        doc
    }

    /// The cell record: [`CellResult::sim_value`] plus `wall_s`. A cell
    /// child process prints it on stdout (the spec echo lets the parent
    /// verify nothing was mangled in transit) and the store files it.
    pub fn record(&self, spec: &CellSpec) -> Json {
        let mut doc = self.sim_value(spec);
        doc.extend([("wall_s", Json::num_fixed(self.wall_s, 6))]);
        doc
    }

    /// [`CellResult::record`], encoded as one line.
    pub fn to_json(&self, spec: &CellSpec) -> String {
        self.record(spec).encode()
    }

    /// Decodes a [`CellResult::record`] and checks that it echoes
    /// `spec`.
    pub fn from_json(doc: &Json, spec: &CellSpec) -> Result<CellResult, RecordError> {
        let echoed = CellSpec::from_json(doc).map_err(RecordError::Malformed)?;
        if echoed != *spec {
            return Err(RecordError::OtherCell(echoed.canonical_json()));
        }
        let result = || -> Result<CellResult, String> {
            Ok(CellResult {
                committed: doc.u64_field("committed")?,
                attempts: doc.u64_field("attempts")?,
                sim_ops: doc.u64_field("sim_ops")?,
                sim_cycles: doc.u64_field("sim_cycles")?,
                digest: doc.str_field("digest")?.to_string(),
                wall_s: doc.field("wall_s")?.as_f64().ok_or("bad \"wall_s\"")?,
            })
        };
        result().map_err(RecordError::Malformed)
    }
}

/// Why a cell record did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Not a cell record: a field is missing or has the wrong type.
    Malformed(String),
    /// A well-formed record of a different cell (its canonical JSON).
    OtherCell(String),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Malformed(why) => write!(f, "bad cell record: {why}"),
            RecordError::OtherCell(got) => write!(f, "record is for a different cell: {got}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Runs one cell on a fresh machine, exactly as described by `spec`.
///
/// This is the entry point everything shares: [`crate::run_point`]
/// (the serial bench path) and the sweep farm's `--run-cell` child
/// mode both call it, which is what makes "sweep output is
/// bit-identical to the serial path" a property of construction rather
/// than a hope.
pub fn run_cell(spec: &CellSpec) -> RunResult {
    let mut config = MachineConfig::paper_default().with_cores(spec.threads.max(16));
    config.signature.total_bits = spec.sig_bits;
    let machine = Machine::new(config);
    let mut workload = spec.workload.build(spec.threads);
    workload.setup(&machine);
    let runtime = spec.runtime.build_with_cm(&machine, spec.threads, spec.cm);
    run_measured(
        &machine,
        runtime.as_ref(),
        workload.as_ref(),
        RunConfig {
            threads: spec.threads,
            txns_per_thread: spec.txns_per_thread,
            warmup_per_thread: spec.warmup_per_thread,
            seed: spec.seed,
        },
    )
}

/// [`run_cell`] plus host timing, summarized for transport.
pub fn run_cell_timed(spec: &CellSpec) -> CellResult {
    let t0 = Instant::now();
    let run = run_cell(spec);
    CellResult::from_run(&run, t0.elapsed().as_secs_f64())
}

/// The `sched_bench` stdout record, ready to paste into
/// `BENCH_sched.json` / `BENCH_protocol.json`. It echoes the run
/// parameters (engine, warm-up, seed) so a sampling harness can archive
/// the sample without consulting the invoking environment.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedRecord {
    /// Bench name ("sched_16core_hashtable", …).
    pub bench: String,
    /// Worker threads.
    pub threads: usize,
    /// Timed transactions per thread.
    pub txns_per_thread: u64,
    /// Committed transactions.
    pub committed: u64,
    /// Attempts (≥ committed).
    pub attempts: u64,
    /// Simulated operations ([`sim_ops`]).
    pub sim_ops: u64,
    /// Elapsed simulated cycles.
    pub sim_cycles: u64,
    /// Ops run inline (`SchedStats::fast_ops`).
    pub fast_ops: u64,
    /// Ops that queued (`SchedStats::slow_ops`).
    pub slow_ops: u64,
    /// Switches to another worker (`SchedStats::grants`).
    pub grants: u64,
    /// Switches per simulated op.
    pub rendezvous_per_op: f64,
    /// Host wall seconds.
    pub wall_s: f64,
    /// Simulated ops per host second.
    pub sim_ops_per_s: f64,
    /// Simulated cycles per host second.
    pub sim_cycles_per_s: f64,
    /// Execution engine the machine built ([`Machine::engine`]).
    pub engine: &'static str,
    /// Untimed warm-up transactions per thread.
    pub warmup_per_thread: u64,
    /// Workload RNG seed (printed in hex).
    pub seed: u64,
}

impl SchedRecord {
    /// The one-line JSON encoding `sched_bench` prints.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("bench", Json::str(&self.bench)),
            ("threads", Json::num_u64(self.threads as u64)),
            ("txns_per_thread", Json::num_u64(self.txns_per_thread)),
            ("committed", Json::num_u64(self.committed)),
            ("attempts", Json::num_u64(self.attempts)),
            ("sim_ops", Json::num_u64(self.sim_ops)),
            ("sim_cycles", Json::num_u64(self.sim_cycles)),
            ("fast_ops", Json::num_u64(self.fast_ops)),
            ("slow_ops", Json::num_u64(self.slow_ops)),
            ("grants", Json::num_u64(self.grants)),
            (
                "rendezvous_per_op",
                Json::num_fixed(self.rendezvous_per_op, 4),
            ),
            ("wall_s", Json::num_fixed(self.wall_s, 3)),
            ("sim_ops_per_s", Json::num_fixed(self.sim_ops_per_s, 0)),
            (
                "sim_cycles_per_s",
                Json::num_fixed(self.sim_cycles_per_s, 0),
            ),
            ("engine", Json::str(self.engine)),
            ("warmup_per_thread", Json::num_u64(self.warmup_per_thread)),
            ("seed", Json::hex(self.seed)),
        ])
        .encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cm_labels_round_trip() {
        for cm in [
            CmKind::Polka,
            CmKind::Aggressive,
            CmKind::Timid,
            CmKind::Polite,
        ] {
            assert_eq!(cm_from_label(cm_label(cm)), Some(cm));
        }
        assert_eq!(cm_from_label("Karma"), None);
    }

    #[test]
    fn run_cell_is_deterministic_across_calls() {
        let spec = CellSpec {
            workload: WorkloadKind::HashTable,
            runtime: RuntimeKind::FlexTmLazy,
            cm: CmKind::Polka,
            threads: 2,
            sig_bits: 2048,
            seed: 0xF1E7,
            txns_per_thread: 12,
            warmup_per_thread: 3,
        };
        let a = run_cell_timed(&spec);
        let b = run_cell_timed(&spec);
        assert_eq!(a.committed, 24);
        assert_eq!(
            (a.committed, a.attempts, a.sim_ops, a.sim_cycles, &a.digest),
            (b.committed, b.attempts, b.sim_ops, b.sim_cycles, &b.digest),
        );
    }

    /// A cell record decodes back to its result, re-encodes to the same
    /// bytes, and is refused for any other cell or with a field lost.
    #[test]
    fn cell_record_round_trips_and_checks_its_echo() {
        let spec = CellSpec {
            workload: WorkloadKind::RbTree,
            runtime: RuntimeKind::Rstm,
            cm: CmKind::Timid,
            threads: 4,
            sig_bits: 1024,
            seed: 0xABCD,
            txns_per_thread: 8,
            warmup_per_thread: 2,
        };
        let result = CellResult {
            committed: 32,
            attempts: 40,
            sim_ops: 1000,
            sim_cycles: 2000,
            digest: "00ff00ff00ff00ff".to_string(),
            wall_s: 0.25,
        };
        let line = result.to_json(&spec);
        assert_eq!(
            line,
            "{\"workload\": \"RBTree\", \"runtime\": \"RSTM\", \"cm\": \"Timid\", \
             \"threads\": 4, \"sig_bits\": 1024, \"seed\": \"0xABCD\", \
             \"txns_per_thread\": 8, \"warmup_per_thread\": 2, \"committed\": 32, \
             \"attempts\": 40, \"sim_ops\": 1000, \"sim_cycles\": 2000, \
             \"digest\": \"00ff00ff00ff00ff\", \"wall_s\": 0.250000}"
        );
        let doc = crate::json::parse(&line).expect("record parses");
        assert_eq!(CellResult::from_json(&doc, &spec), Ok(result.clone()));
        assert_eq!(doc.encode(), line);

        let other = CellSpec {
            threads: 8,
            ..spec.clone()
        };
        assert_eq!(
            CellResult::from_json(&doc, &other),
            Err(RecordError::OtherCell(spec.canonical_json()))
        );
        let Json::Obj(mut pairs) = doc else {
            unreachable!("a record is an object")
        };
        pairs.retain(|(k, _)| k != "digest");
        assert!(matches!(
            CellResult::from_json(&Json::Obj(pairs), &spec),
            Err(RecordError::Malformed(_))
        ));
    }

    /// The `sched_bench` line parses with the codec, reads back every
    /// field with its type, and re-encodes byte for byte.
    #[test]
    fn sched_record_round_trips() {
        let record = SchedRecord {
            bench: "sched_64core_hashtable".to_string(),
            threads: 64,
            txns_per_thread: 1536,
            committed: 98304,
            attempts: 105291,
            sim_ops: 683699,
            sim_cycles: 531018,
            fast_ops: 212195,
            slow_ops: 137300,
            grants: 137299,
            rendezvous_per_op: 0.8571,
            wall_s: 0.432,
            sim_ops_per_s: 1591007.0,
            sim_cycles_per_s: 1229208.0,
            engine: "fiber",
            warmup_per_thread: 8,
            seed: 0xF1E7,
        };
        let line = record.to_json();
        let doc = crate::json::parse(&line).expect("sched_bench output parses");
        assert_eq!(
            doc.get("bench").and_then(Json::as_str),
            Some("sched_64core_hashtable")
        );
        for (key, want) in [
            ("threads", 64),
            ("txns_per_thread", 1536),
            ("committed", 98304),
            ("attempts", 105291),
            ("sim_ops", 683699),
            ("sim_cycles", 531018),
            ("fast_ops", 212195),
            ("slow_ops", 137300),
            ("grants", 137299),
            ("warmup_per_thread", 8),
            ("seed", 0xF1E7),
        ] {
            assert_eq!(doc.get(key).and_then(Json::as_u64), Some(want), "{key}");
        }
        for (key, want) in [
            ("rendezvous_per_op", 0.8571),
            ("wall_s", 0.432),
            ("sim_ops_per_s", 1591007.0),
            ("sim_cycles_per_s", 1229208.0),
        ] {
            assert_eq!(doc.get(key).and_then(Json::as_f64), Some(want), "{key}");
        }
        assert_eq!(doc.get("engine").and_then(Json::as_str), Some("fiber"));
        assert_eq!(doc.encode(), line);
    }
}
