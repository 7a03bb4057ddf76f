//! `sweep` — parallel, cached, incremental evaluation of the paper
//! matrix.
//!
//! ```text
//! # cold run: expand the matrix, fan cells across cores, fill the store
//! cargo run --release -p flextm-sweep --bin sweep -- --spec fig4_hashtable
//!
//! # warm run: same command; unchanged cells are served from the store
//! # (summary line reports "executed": 0)
//!
//! # custom matrix
//! cargo run --release -p flextm-sweep --bin sweep -- --spec-file my_matrix.json
//! ```
//!
//! Flags:
//!
//! - `--spec NAME` — a built-in spec (`smoke2x2`, `fig4_hashtable`)
//! - `--spec-file PATH` — a JSON matrix spec (see EXPERIMENTS.md)
//! - `--store DIR` — content-addressed results store
//!   (default `target/sweep-store`)
//! - `--emit DIR` — where tables/JSON are written
//!   (default `target/sweep-out`)
//! - `--jobs N` — concurrent workers (default: host parallelism)
//! - `--timeout-s N` — per-cell wall-clock timeout (default 300)
//! - `--retries N` — extra attempts per failed cell (default 1)
//! - `--quiet` — suppress per-cell progress on stderr
//! - `--in-process` — run every cell serially in this process,
//!   bypassing store and children (the serial-baseline mode; emits the
//!   same files, so `diff` against a farmed run proves bit-identity)
//! - `--hash-spec` — print each cell's canonical config and content
//!   hash, then exit (the cross-process hash-determinism probe)
//! - `--run-cell JSON` — internal: execute one cell and print its
//!   record (the child-process entry point)
//!
//! Exit status: 0 on a clean sweep, 1 if any cell failed, 2 on usage
//! or spec errors.

use flextm_sweep::aggregate::{aggregate, emit_cells_json, emit_tables};
use flextm_sweep::json::Json;
use flextm_sweep::runner::{run_sweep, Outcome, RunnerConfig};
use flextm_sweep::spec::{cell_from_json, MatrixSpec};
use flextm_sweep::store::{binary_fingerprint, config_hash, git_rev, Store};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn usage(msg: &str) -> ! {
    eprintln!("sweep: {msg} (see crates/sweep/src/bin/sweep.rs for usage)");
    std::process::exit(2);
}

struct Args {
    spec: Option<String>,
    spec_file: Option<PathBuf>,
    store: PathBuf,
    emit: PathBuf,
    jobs: Option<usize>,
    timeout_s: u64,
    retries: u32,
    quiet: bool,
    in_process: bool,
    hash_spec: bool,
    run_cell: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        spec: None,
        spec_file: None,
        store: PathBuf::from("target/sweep-store"),
        emit: PathBuf::from("target/sweep-out"),
        jobs: None,
        timeout_s: 300,
        retries: 1,
        quiet: false,
        in_process: false,
        hash_spec: false,
        run_cell: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--spec" => args.spec = Some(value("--spec")),
            "--spec-file" => args.spec_file = Some(PathBuf::from(value("--spec-file"))),
            "--store" => args.store = PathBuf::from(value("--store")),
            "--emit" => args.emit = PathBuf::from(value("--emit")),
            "--jobs" => {
                args.jobs = Some(
                    value("--jobs")
                        .parse()
                        .unwrap_or_else(|_| usage("--jobs needs a number")),
                )
            }
            "--timeout-s" => {
                args.timeout_s = value("--timeout-s")
                    .parse()
                    .unwrap_or_else(|_| usage("--timeout-s needs a number"))
            }
            "--retries" => {
                args.retries = value("--retries")
                    .parse()
                    .unwrap_or_else(|_| usage("--retries needs a number"))
            }
            "--quiet" => args.quiet = true,
            "--in-process" => args.in_process = true,
            "--hash-spec" => args.hash_spec = true,
            "--run-cell" => args.run_cell = Some(value("--run-cell")),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    args
}

/// Child mode: run exactly one cell, print its record, exit. Kept
/// first and minimal — everything after this line is farm machinery
/// the child never touches.
fn child_main(cell_json: &str) -> ! {
    let cell = match cell_from_json(cell_json) {
        Ok(cell) => cell,
        Err(e) => {
            eprintln!("sweep --run-cell: {e}");
            std::process::exit(2);
        }
    };
    let result = flextm_bench::run_cell_timed(&cell);
    println!("{}", result.to_json(&cell));
    std::process::exit(0);
}

fn load_spec(args: &Args) -> MatrixSpec {
    match (&args.spec, &args.spec_file) {
        (Some(_), Some(_)) => usage("--spec and --spec-file are mutually exclusive"),
        (Some(name), None) => MatrixSpec::builtin(name)
            .unwrap_or_else(|| usage(&format!("unknown built-in spec {name:?}"))),
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| usage(&format!("reading {}: {e}", path.display())));
            MatrixSpec::from_json(&text).unwrap_or_else(|e| usage(&e.to_string()))
        }
        (None, None) => usage("need --spec or --spec-file (or --run-cell)"),
    }
}

fn write_outputs(args: &Args, spec: &MatrixSpec, outcomes: &[Outcome]) {
    std::fs::create_dir_all(&args.emit)
        .unwrap_or_else(|e| usage(&format!("creating {}: {e}", args.emit.display())));
    let tables = emit_tables(&spec.name, &aggregate(outcomes));
    let cells = emit_cells_json(&spec.name, outcomes);
    let tables_path = args.emit.join(format!("{}_tables.md", spec.name));
    let cells_path = args.emit.join(format!("{}_cells.json", spec.name));
    std::fs::write(&tables_path, tables)
        .unwrap_or_else(|e| usage(&format!("writing {}: {e}", tables_path.display())));
    std::fs::write(&cells_path, cells)
        .unwrap_or_else(|e| usage(&format!("writing {}: {e}", cells_path.display())));
    if !args.quiet {
        eprintln!(
            "emitted {} and {}",
            tables_path.display(),
            cells_path.display()
        );
    }
}

fn main() {
    let args = parse_args();
    if let Some(cell_json) = &args.run_cell {
        child_main(cell_json);
    }
    let spec = load_spec(&args);
    let cells = spec.expand();

    if args.hash_spec {
        // Canonical config and content hash per cell — comparing this
        // output across two processes (or two hosts) proves the hash
        // has no per-process state in it.
        for cell in &cells {
            println!("{} {}", config_hash(cell), cell.canonical_json());
        }
        return;
    }

    let t0 = Instant::now();
    let (outcomes, executed, cached, failed) = if args.in_process {
        // Serial baseline: the exact work a `cargo bench` target does,
        // one cell after another in this process.
        let outcomes: Vec<Outcome> = cells
            .iter()
            .map(|cell| {
                let cell_t0 = Instant::now();
                let result = flextm_bench::run_cell_timed(cell);
                if !args.quiet {
                    eprintln!(
                        "{} (serial, {:.2}s)",
                        cell.label(),
                        cell_t0.elapsed().as_secs_f64()
                    );
                }
                Outcome {
                    cell: cell.clone(),
                    result,
                    from_cache: false,
                }
            })
            .collect();
        let executed = outcomes.len();
        (outcomes, executed, 0, 0)
    } else {
        let worker_exe = std::env::current_exe()
            .unwrap_or_else(|e| usage(&format!("cannot locate own binary: {e}")));
        let bin_fp = binary_fingerprint(&worker_exe)
            .unwrap_or_else(|e| usage(&format!("fingerprinting {}: {e}", worker_exe.display())));
        let rev = git_rev(worker_exe.parent().unwrap_or(std::path::Path::new(".")));
        let store = Store::open(&args.store, bin_fp, rev)
            .unwrap_or_else(|e| usage(&format!("opening store {}: {e}", args.store.display())));
        let mut runner_config = RunnerConfig::new(worker_exe);
        if let Some(jobs) = args.jobs {
            runner_config.jobs = jobs;
        }
        runner_config.timeout = Duration::from_secs(args.timeout_s);
        runner_config.max_attempts = args.retries + 1;
        runner_config.progress = !args.quiet;
        let sweep = run_sweep(&cells, &store, &runner_config);
        for failure in &sweep.failures {
            eprintln!("FAILED {}: {}", failure.cell.label(), failure.error);
        }
        (
            sweep.outcomes,
            sweep.executed,
            sweep.cached,
            sweep.failures.len(),
        )
    };

    write_outputs(&args, &spec, &outcomes);

    // The machine-readable summary the smoke test asserts on.
    let jobs = if args.in_process {
        1
    } else {
        args.jobs
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
    };
    let summary = Json::obj([
        ("spec", Json::str(&spec.name)),
        ("cells", Json::num_u64(cells.len() as u64)),
        ("executed", Json::num_u64(executed as u64)),
        ("cached", Json::num_u64(cached as u64)),
        ("failed", Json::num_u64(failed as u64)),
        ("jobs", Json::num_u64(jobs as u64)),
        ("wall_s", Json::num_fixed(t0.elapsed().as_secs_f64(), 3)),
    ]);
    println!("{}", summary.encode());
    if failed > 0 {
        std::process::exit(1);
    }
}
