//! The batch scheduler: fans cells across host cores as isolated
//! child processes.
//!
//! Workers are plain threads pulling from one shared queue (idle
//! workers steal the next pending cell the moment they finish, so the
//! tail of the batch stays packed no matter how uneven the cells are).
//! Each cell executes in its **own child process** — a re-invocation
//! of the sweep binary in `--run-cell` mode — so a panic, OOM-kill, or
//! runaway loop costs exactly one cell, not the batch. Children get a
//! wall-clock timeout and a bounded number of retries; anything still
//! failing is reported per-cell with its stderr, and the rest of the
//! matrix completes regardless.

use crate::store::Store;
use flextm_bench::{CellResult, CellSpec};
use std::collections::VecDeque;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How the runner executes and supervises cells.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker binary to re-invoke with `--run-cell` (the sweep binary
    /// itself; tests pass `CARGO_BIN_EXE_sweep`).
    pub worker_exe: PathBuf,
    /// Concurrent workers (defaults to the host's parallelism).
    pub jobs: usize,
    /// Per-cell wall-clock timeout.
    pub timeout: Duration,
    /// Executions attempted per cell before it is declared failed
    /// (first try + retries).
    pub max_attempts: u32,
    /// Print per-cell progress lines to stderr.
    pub progress: bool,
}

impl RunnerConfig {
    /// Defaults for `worker_exe`: host-parallelism workers, 300 s
    /// timeout, one retry.
    pub fn new(worker_exe: PathBuf) -> Self {
        RunnerConfig {
            worker_exe,
            jobs: std::thread::available_parallelism().map_or(1, usize::from),
            timeout: Duration::from_secs(300),
            max_attempts: 2,
            progress: true,
        }
    }
}

/// One completed cell.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The cell.
    pub cell: CellSpec,
    /// Its result.
    pub result: CellResult,
    /// Served from the store instead of executing.
    pub from_cache: bool,
}

/// One failed cell.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// The cell.
    pub cell: CellSpec,
    /// Why its last attempt failed.
    pub error: String,
}

/// What a sweep did, cell by cell. `outcomes` preserves the input
/// (canonical expansion) order so emitters are deterministic however
/// the workers interleaved.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Completed cells in input order.
    pub outcomes: Vec<Outcome>,
    /// Failed cells (empty on a clean sweep).
    pub failures: Vec<CellFailure>,
    /// Cells that executed in a child process.
    pub executed: usize,
    /// Cells served from the store.
    pub cached: usize,
}

enum Slot {
    Done(Outcome),
    Failed(CellFailure),
}

/// Runs every cell, consulting (and filling) `store`. The store is
/// what makes this incremental: only cells whose (config, binary)
/// key misses actually spawn a child.
pub fn run_sweep(cells: &[CellSpec], store: &Store, config: &RunnerConfig) -> SweepOutcome {
    let total = cells.len();
    let queue: Mutex<VecDeque<(usize, &CellSpec)>> = Mutex::new(cells.iter().enumerate().collect());
    let slots: Vec<Mutex<Option<Slot>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let done = AtomicUsize::new(0);
    let executed = AtomicUsize::new(0);
    let cached = AtomicUsize::new(0);

    let workers = config.jobs.max(1).min(total.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let Some((index, cell)) = queue.lock().unwrap().pop_front() else {
                    return;
                };
                let t0 = Instant::now();
                let (slot, status) = match run_one(cell, store, config) {
                    Ok((result, from_cache)) => {
                        if from_cache {
                            cached.fetch_add(1, Ordering::Relaxed);
                        } else {
                            executed.fetch_add(1, Ordering::Relaxed);
                        }
                        (
                            Slot::Done(Outcome {
                                cell: cell.clone(),
                                result,
                                from_cache,
                            }),
                            if from_cache { "cache" } else { "ran" },
                        )
                    }
                    Err(error) => (
                        Slot::Failed(CellFailure {
                            cell: cell.clone(),
                            error,
                        }),
                        "FAILED",
                    ),
                };
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                if config.progress {
                    eprintln!(
                        "[{finished}/{total}] {} ({status}, {:.2}s)",
                        cell.label(),
                        t0.elapsed().as_secs_f64(),
                    );
                }
                *slots[index].lock().unwrap() = Some(slot);
            });
        }
    });

    let mut outcomes = Vec::with_capacity(total);
    let mut failures = Vec::new();
    for slot in slots {
        match slot.into_inner().unwrap() {
            Some(Slot::Done(outcome)) => outcomes.push(outcome),
            Some(Slot::Failed(failure)) => failures.push(failure),
            None => unreachable!("worker exited without filling its slot"),
        }
    }
    SweepOutcome {
        outcomes,
        failures,
        executed: executed.into_inner(),
        cached: cached.into_inner(),
    }
}

fn run_one(
    cell: &CellSpec,
    store: &Store,
    config: &RunnerConfig,
) -> Result<(CellResult, bool), String> {
    if let Some(hit) = store.lookup(cell).map_err(|e| e.to_string())? {
        return Ok((hit.result, true));
    }
    let mut last_error = String::new();
    for attempt in 1..=config.max_attempts {
        match execute_in_child(cell, config) {
            Ok(result) => {
                store
                    .insert(cell, &result)
                    .map_err(|e| format!("storing result: {e}"))?;
                return Ok((result, false));
            }
            Err(e) => {
                last_error = format!("attempt {attempt}/{}: {e}", config.max_attempts);
            }
        }
    }
    Err(last_error)
}

/// Spawns one `--run-cell` child and parses its stdout record. The
/// child's stdout is a single small JSON line, so reading it after
/// exit cannot deadlock on a full pipe.
fn execute_in_child(cell: &CellSpec, config: &RunnerConfig) -> Result<CellResult, String> {
    let mut child = Command::new(&config.worker_exe)
        .arg("--run-cell")
        .arg(cell.canonical_json())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", config.worker_exe.display()))?;
    let status = wait_with_timeout(&mut child, config.timeout)?;
    let mut stdout = String::new();
    let mut stderr = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        let _ = pipe.read_to_string(&mut stdout);
    }
    if let Some(mut pipe) = child.stderr.take() {
        let _ = pipe.read_to_string(&mut stderr);
    }
    if !status.success() {
        let tail: String = stderr.lines().rev().take(4).collect::<Vec<_>>().join(" | ");
        return Err(format!("child exited with {status}: {tail}"));
    }
    parse_cell_record(cell, stdout.trim())
}

/// Polls the child to completion or kills it at the deadline. (No
/// blocking `wait` + alarm here — plain `try_wait` polling keeps the
/// runner free of signal handling and works on any Unix.)
fn wait_with_timeout(
    child: &mut Child,
    timeout: Duration,
) -> Result<std::process::ExitStatus, String> {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(status),
            Ok(None) => {
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("timed out after {:.0?}", timeout));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(format!("waiting for child: {e}")),
        }
    }
}

/// Parses a child's stdout record and verifies the echoed spec is the
/// cell we asked for (a mangled argv or a wrong-binary worker shows up
/// here, not as silently mislabeled data).
pub fn parse_cell_record(cell: &CellSpec, line: &str) -> Result<CellResult, String> {
    let doc = crate::json::parse(line).map_err(|e| format!("bad cell record: {e}"))?;
    CellResult::from_json(&doc, cell)
        .map_err(|e| format!("{e}; asked for {}", cell.canonical_json()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_parse_round_trips_the_producer_encoding() {
        let cell = crate::spec::MatrixSpec::builtin("smoke2x2")
            .unwrap()
            .expand()
            .remove(3);
        let result = CellResult {
            committed: 32,
            attempts: 35,
            sim_ops: 512,
            sim_cycles: 7777,
            digest: "deadbeefdeadbeef".to_string(),
            wall_s: 0.5,
        };
        let line = result.to_json(&cell);
        assert_eq!(parse_cell_record(&cell, &line).unwrap(), result);
    }

    #[test]
    fn record_for_a_different_cell_is_rejected() {
        let cells = crate::spec::MatrixSpec::builtin("smoke2x2")
            .unwrap()
            .expand();
        let result = CellResult {
            committed: 1,
            attempts: 1,
            sim_ops: 1,
            sim_cycles: 1,
            digest: "0".repeat(16),
            wall_s: 0.0,
        };
        let line = result.to_json(&cells[0]);
        let err = parse_cell_record(&cells[1], &line).unwrap_err();
        assert!(err.contains("different cell"), "{err}");
    }
}
