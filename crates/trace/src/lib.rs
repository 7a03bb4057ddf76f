//! Per-transaction attempt traces and abort-attribution reporting.
//!
//! The runtime (when tracing is enabled) records one [`TraceRecord`]
//! per interesting attempt event — begin, conflict, stall, abort,
//! commit — tagged with the software thread id, the attempt sequence
//! number and the core's simulated clock. This crate owns the record
//! type, its JSONL encoding ([`to_jsonl`] / [`parse_jsonl`] round-trip
//! exactly), and the human-readable abort-breakdown table
//! ([`abort_table`]) that `sched_bench --trace` and the workload
//! harness print.
//!
//! It is also the record layer for every crate above it: [`json`] is
//! the repository's one JSON codec, which traces, sweep specs, cell
//! records, store entries and the bench binaries' stdout lines all go
//! through.
//!
//! The encoder is deterministic: fixed key order, the codec's fixed
//! spacing, records pre-sorted by the producer — so two runs of the
//! same seeded workload serialize to byte-identical output, which the
//! determinism suite pins.

#![forbid(unsafe_code)]

pub mod json;

use flextm_sim::{AbortCause, ConflictKind, MachineReport};
use json::Json;

/// Classification of a conflict observed by a running attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictClass {
    /// The enemy holds the line in a transactional-written state.
    Threatened,
    /// The enemy has transactionally read a line we are writing.
    ExposedRead,
    /// The conflict is with a *descheduled* transaction, detected via
    /// the directory's summary signatures.
    Summary,
}

impl From<ConflictKind> for ConflictClass {
    fn from(k: ConflictKind) -> Self {
        match k {
            ConflictKind::Threatened => ConflictClass::Threatened,
            ConflictKind::ExposedRead => ConflictClass::ExposedRead,
        }
    }
}

/// One attempt event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEv {
    /// A transaction attempt began.
    Begin,
    /// A conflict with `enemy` (a core id, or a thread id for
    /// [`ConflictClass::Summary`]) was observed.
    Conflict {
        /// The conflicting party.
        enemy: u64,
        /// How the conflict was detected.
        kind: ConflictClass,
    },
    /// The contention manager stalled/backed off for `cycles`.
    Stall {
        /// Simulated cycles spent stalled.
        cycles: u64,
    },
    /// The attempt aborted.
    Abort {
        /// Attribution recorded with the abort.
        cause: AbortCause,
        /// The enemy that caused it, when software knows (CM-directed
        /// self-aborts know their enemy; asynchronous alerts do not).
        enemy: Option<u64>,
    },
    /// The attempt committed; `enemies` is the bitmask of cores this
    /// committer had to abort on its way out (lazy mode). Wide enough
    /// for machines beyond 64 cores (`flextm_sim::MAX_CORES`); values
    /// below 2^64 encode exactly as before.
    Commit {
        /// Bitmask of enemy cores aborted at commit.
        enemies: u128,
    },
}

/// One line of the attempt trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Software thread id.
    pub tid: u64,
    /// Attempt sequence number within the thread (increments per
    /// begin).
    pub seq: u64,
    /// The issuing core's simulated clock when the event was recorded.
    pub clock: u64,
    /// The event.
    pub ev: TraceEv,
}

fn cause_name(c: AbortCause) -> &'static str {
    match c {
        AbortCause::AouAlert => "aou-alert",
        AbortCause::StrongIsolation => "strong-isolation",
        AbortCause::LostTsw => "lost-tsw",
        AbortCause::CommitConflicts => "commit-conflicts",
        AbortCause::CmSelf => "cm-self",
        AbortCause::SummaryTrap => "summary-trap",
        AbortCause::Explicit => "explicit",
    }
}

fn cause_from_name(s: &str) -> Option<AbortCause> {
    Some(match s {
        "aou-alert" => AbortCause::AouAlert,
        "strong-isolation" => AbortCause::StrongIsolation,
        "lost-tsw" => AbortCause::LostTsw,
        "commit-conflicts" => AbortCause::CommitConflicts,
        "cm-self" => AbortCause::CmSelf,
        "summary-trap" => AbortCause::SummaryTrap,
        "explicit" => AbortCause::Explicit,
        _ => return None,
    })
}

fn class_name(c: ConflictClass) -> &'static str {
    match c {
        ConflictClass::Threatened => "threatened",
        ConflictClass::ExposedRead => "exposed-read",
        ConflictClass::Summary => "summary",
    }
}

fn class_from_name(s: &str) -> Option<ConflictClass> {
    Some(match s {
        "threatened" => ConflictClass::Threatened,
        "exposed-read" => ConflictClass::ExposedRead,
        "summary" => ConflictClass::Summary,
        _ => return None,
    })
}

/// Serializes records as JSONL: one JSON object per line, fixed key
/// order (`tid`, `seq`, `clock`, `ev`, then event payload keys).
/// Deterministic: equal record slices serialize to byte-identical
/// strings.
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 64);
    for r in records {
        let mut pairs = vec![
            ("tid", Json::num_u64(r.tid)),
            ("seq", Json::num_u64(r.seq)),
            ("clock", Json::num_u64(r.clock)),
        ];
        match r.ev {
            TraceEv::Begin => pairs.push(("ev", Json::str("begin"))),
            TraceEv::Conflict { enemy, kind } => pairs.extend([
                ("ev", Json::str("conflict")),
                ("enemy", Json::num_u64(enemy)),
                ("kind", Json::str(class_name(kind))),
            ]),
            TraceEv::Stall { cycles } => pairs.extend([
                ("ev", Json::str("stall")),
                ("cycles", Json::num_u64(cycles)),
            ]),
            TraceEv::Abort { cause, enemy } => {
                pairs.extend([
                    ("ev", Json::str("abort")),
                    ("cause", Json::str(cause_name(cause))),
                ]);
                pairs.extend(enemy.map(|e| ("enemy", Json::num_u64(e))));
            }
            TraceEv::Commit { enemies } => pairs.extend([
                ("ev", Json::str("commit")),
                ("enemies", Json::Num(enemies.to_string())),
            ]),
        }
        out.push_str(&Json::obj(pairs).encode());
        out.push('\n');
    }
    out
}

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// Decodes one trace line's object.
fn record_from_json(doc: &Json) -> Result<TraceRecord, String> {
    let ev = match doc.str_field("ev")? {
        "begin" => TraceEv::Begin,
        "conflict" => TraceEv::Conflict {
            enemy: doc.u64_field("enemy")?,
            kind: class_from_name(doc.str_field("kind")?).ok_or("unknown conflict kind")?,
        },
        "stall" => TraceEv::Stall {
            cycles: doc.u64_field("cycles")?,
        },
        "abort" => TraceEv::Abort {
            cause: cause_from_name(doc.str_field("cause")?).ok_or("unknown abort cause")?,
            enemy: doc.u64_field("enemy").ok(),
        },
        "commit" => TraceEv::Commit {
            enemies: doc.field("enemies")?.as_u128().ok_or("bad \"enemies\"")?,
        },
        other => return Err(format!("unknown ev {other:?}")),
    };
    Ok(TraceRecord {
        tid: doc.u64_field("tid")?,
        seq: doc.u64_field("seq")?,
        clock: doc.u64_field("clock")?,
        ev,
    })
}

/// Parses a JSONL trace produced by [`to_jsonl`].
///
/// # Errors
///
/// Returns a [`TraceParseError`] naming the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, TraceParseError> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            json::parse(line)
                .map_err(|e| e.to_string())
                .and_then(|doc| record_from_json(&doc))
                .map_err(|message| TraceParseError {
                    line: i + 1,
                    message,
                })
        })
        .collect()
}

/// Renders the per-run abort-breakdown and cycle-bucket table from a
/// [`MachineReport`] (typically the measured-phase delta).
pub fn abort_table(report: &MachineReport) -> String {
    use std::fmt::Write;
    let causes = report
        .cores
        .iter()
        .fold(flextm_sim::AbortBreakdown::default(), |mut acc, c| {
            acc.aou_alert += c.abort_causes.aou_alert;
            acc.strong_isolation += c.abort_causes.strong_isolation;
            acc.lost_tsw += c.abort_causes.lost_tsw;
            acc.commit_conflicts += c.abort_causes.commit_conflicts;
            acc.cm_self += c.abort_causes.cm_self;
            acc.summary_trap += c.abort_causes.summary_trap;
            acc.explicit += c.abort_causes.explicit;
            acc.mutual_abort += c.abort_causes.mutual_abort;
            acc.cm_enemy_kills += c.abort_causes.cm_enemy_kills;
            acc
        });
    let aborts = report.total(|c| c.tx_aborts);
    let failed = report.total(|c| c.failed_commits);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "abort attribution (sum {} = {} aborts + {} failed commits)",
        causes.cause_sum(),
        aborts,
        failed
    );
    for (name, n) in [
        ("aou-alert", causes.aou_alert),
        ("strong-isolation", causes.strong_isolation),
        ("lost-tsw", causes.lost_tsw),
        ("commit-conflicts", causes.commit_conflicts),
        ("cm-self", causes.cm_self),
        ("summary-trap", causes.summary_trap),
        ("explicit", causes.explicit),
    ] {
        let _ = writeln!(out, "  {name:<18} {n:>8}");
    }
    let _ = writeln!(
        out,
        "  {:<18} {:>8}   (diagnostic, out of sum)",
        "tie-breaks", causes.mutual_abort
    );
    let _ = writeln!(
        out,
        "  {:<18} {:>8}   (diagnostic, out of sum)",
        "enemy-kills", causes.cm_enemy_kills
    );
    let _ = writeln!(
        out,
        "cycle buckets (sum {} over {} cores)",
        report.total(|c| c.cycle_sum()),
        report.cores.len()
    );
    for (name, n) in [
        ("work", report.total(|c| c.work_cycles)),
        ("mem", report.total(|c| c.mem_cycles)),
        ("stall", report.total(|c| c.stall_cycles)),
        ("wasted", report.total(|c| c.wasted_cycles)),
    ] {
        let _ = writeln!(out, "  {name:<18} {n:>8}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                tid: 0,
                seq: 1,
                clock: 20,
                ev: TraceEv::Begin,
            },
            TraceRecord {
                tid: 0,
                seq: 1,
                clock: 90,
                ev: TraceEv::Conflict {
                    enemy: 3,
                    kind: ConflictClass::Threatened,
                },
            },
            TraceRecord {
                tid: 0,
                seq: 1,
                clock: 150,
                ev: TraceEv::Stall { cycles: 48 },
            },
            TraceRecord {
                tid: 0,
                seq: 1,
                clock: 180,
                ev: TraceEv::Abort {
                    cause: AbortCause::CmSelf,
                    enemy: Some(3),
                },
            },
            TraceRecord {
                tid: 0,
                seq: 2,
                clock: 400,
                ev: TraceEv::Abort {
                    cause: AbortCause::AouAlert,
                    enemy: None,
                },
            },
            TraceRecord {
                tid: 1,
                seq: 1,
                clock: 500,
                ev: TraceEv::Commit { enemies: 0b101 },
            },
            TraceRecord {
                tid: 1,
                seq: 2,
                clock: 700,
                ev: TraceEv::Conflict {
                    enemy: 9,
                    kind: ConflictClass::Summary,
                },
            },
            TraceRecord {
                tid: 2,
                seq: 1,
                clock: 900,
                // Cores 0, 64 and 127 of a 128-core machine: above 2^64.
                ev: TraceEv::Commit {
                    enemies: 1 | 1 << 64 | 1 << 127,
                },
            },
        ]
    }

    /// All five event kinds, both abort forms, and a commit mask above
    /// 2^64 survive encode → parse → encode.
    #[test]
    fn jsonl_round_trips_exactly() {
        let records = sample();
        let text = to_jsonl(&records);
        let parsed = parse_jsonl(&text).expect("parses");
        assert_eq!(parsed, records);
        assert_eq!(to_jsonl(&parsed), text);
    }

    #[test]
    fn encoding_is_stable() {
        let text = to_jsonl(&sample()[..2]);
        assert_eq!(
            text,
            "{\"tid\": 0, \"seq\": 1, \"clock\": 20, \"ev\": \"begin\"}\n\
             {\"tid\": 0, \"seq\": 1, \"clock\": 90, \"ev\": \"conflict\", \"enemy\": 3, \"kind\": \"threatened\"}\n"
        );
    }

    #[test]
    fn parse_reports_line_numbers() {
        let err = parse_jsonl("{\"tid\":0,\"seq\":1,\"clock\":2,\"ev\":\"begin\"}\nnot json\n")
            .expect_err("second line is garbage");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn parse_rejects_unknown_cause() {
        let text = "{\"tid\":0,\"seq\":1,\"clock\":2,\"ev\":\"abort\",\"cause\":\"gremlins\"}\n";
        assert!(parse_jsonl(text).is_err());
    }

    #[test]
    fn abort_table_sums_match_report() {
        let mut report = MachineReport {
            core_cycles: vec![100, 100],
            cores: vec![flextm_sim::CoreStats::default(); 2],
            sched: Default::default(),
        };
        report.cores[0].tx_aborts = 2;
        report.cores[0].abort_causes.aou_alert = 2;
        report.cores[1].failed_commits = 1;
        report.cores[1].abort_causes.commit_conflicts = 1;
        let table = abort_table(&report);
        assert!(table.contains("sum 3 = 2 aborts + 1 failed commits"));
        assert!(table.contains("aou-alert"));
    }
}
