//! Declarative matrix specs and their expansion into cells.
//!
//! A spec is a cross product over the evaluation axes — workload ×
//! runtime × CM policy × threads × signature size × seed — plus scalar
//! sizing (timed transactions per thread). Expansion applies the same
//! derivations the serial bench path applies ([`flextm_bench::
//! point_spec`]): per-workload transaction scaling and the
//! `(txns / 4).max(8)` warm-up rule, so a spec cell and a `cargo
//! bench` point describe identical runs.

use crate::json::{parse, Json};
use flextm::CmKind;
use flextm_bench::{cm_from_label, cm_label, CellSpec, RuntimeKind, WorkloadKind};

/// A declarative matrix: every combination of the axis vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSpec {
    /// Spec name (store metadata and emitted file names).
    pub name: String,
    /// Workload axis.
    pub workloads: Vec<WorkloadKind>,
    /// Runtime axis (eager/lazy are distinct runtimes).
    pub runtimes: Vec<RuntimeKind>,
    /// CM policy axis.
    pub cms: Vec<CmKind>,
    /// Thread-count axis.
    pub threads: Vec<usize>,
    /// Signature-size axis (bits).
    pub sig_bits: Vec<usize>,
    /// Seed axis (each seed is an independent deterministic sample).
    pub seeds: Vec<u64>,
    /// Base timed transactions per thread (scaled per workload).
    pub txns_per_thread: u64,
}

/// A spec that does not describe a runnable matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid sweep spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl MatrixSpec {
    /// The built-in specs. `smoke2x2` is the CI smoke (2 runtimes × 2
    /// thread counts on HashTable, small sizing); `fig4_hashtable` is
    /// the full Fig. 4(a) matrix the serial `fig4_throughput` bench
    /// runs for HashTable.
    pub fn builtin(name: &str) -> Option<MatrixSpec> {
        match name {
            "smoke2x2" => Some(MatrixSpec {
                name: name.to_string(),
                workloads: vec![WorkloadKind::HashTable],
                runtimes: vec![RuntimeKind::Cgl, RuntimeKind::FlexTmLazy],
                cms: vec![CmKind::Polka],
                threads: vec![1, 2],
                sig_bits: vec![2048],
                seeds: vec![0xF1E7],
                txns_per_thread: 16,
            }),
            "fig4_hashtable" => Some(MatrixSpec {
                name: name.to_string(),
                workloads: vec![WorkloadKind::HashTable],
                runtimes: vec![
                    RuntimeKind::Cgl,
                    RuntimeKind::FlexTmEager,
                    RuntimeKind::RtmF,
                    RuntimeKind::Rstm,
                ],
                cms: vec![CmKind::Polka],
                threads: vec![1, 2, 4, 8, 16],
                sig_bits: vec![2048],
                seeds: vec![0xF1E7],
                txns_per_thread: 96,
            }),
            _ => None,
        }
    }

    /// Parses a spec document (see `EXPERIMENTS.md` for the format).
    /// Axes default to the paper configuration when omitted; `name`,
    /// `workloads`, `runtimes` and `threads` are required.
    pub fn from_json(text: &str) -> Result<MatrixSpec, SpecError> {
        let doc = parse(text).map_err(|e| SpecError(e.to_string()))?;
        let spec = MatrixSpec {
            name: doc.str_field("name").map_err(SpecError)?.to_string(),
            workloads: axis(&doc, "workloads", None, |j| {
                j.as_str().and_then(WorkloadKind::from_label)
            })?,
            runtimes: axis(&doc, "runtimes", None, |j| {
                j.as_str().and_then(RuntimeKind::from_label)
            })?,
            cms: axis(&doc, "cm", Some(CmKind::Polka), |j| {
                j.as_str().and_then(cm_from_label)
            })?,
            threads: axis(&doc, "threads", None, |j| j.as_u64().map(|t| t as usize))?,
            sig_bits: axis(&doc, "sig_bits", Some(2048), |j| {
                j.as_u64().map(|b| b as usize)
            })?,
            seeds: axis(&doc, "seeds", Some(0xF1E7), Json::as_u64)?,
            txns_per_thread: match doc.get("txns_per_thread") {
                None => 96,
                Some(_) => doc.u64_field("txns_per_thread").map_err(SpecError)?,
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The spec as its canonical JSON document (what
    /// [`MatrixSpec::from_json`] reads).
    pub fn to_value(&self) -> Json {
        fn arr<T>(items: &[T], item: impl Fn(&T) -> Json) -> Json {
            Json::Arr(items.iter().map(item).collect())
        }
        Json::obj([
            ("name", Json::str(&self.name)),
            ("workloads", arr(&self.workloads, |w| Json::str(w.label()))),
            ("runtimes", arr(&self.runtimes, |r| Json::str(r.label()))),
            ("cm", arr(&self.cms, |&c| Json::str(cm_label(c)))),
            ("threads", arr(&self.threads, |&t| Json::num_u64(t as u64))),
            (
                "sig_bits",
                arr(&self.sig_bits, |&b| Json::num_u64(b as u64)),
            ),
            ("seeds", arr(&self.seeds, |&s| Json::hex(s))),
            ("txns_per_thread", Json::num_u64(self.txns_per_thread)),
        ])
    }

    /// Rejects matrices a cell would panic on (so a bad spec fails
    /// here, once, instead of as N children dying).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.workloads.is_empty()
            || self.runtimes.is_empty()
            || self.cms.is_empty()
            || self.threads.is_empty()
            || self.sig_bits.is_empty()
            || self.seeds.is_empty()
        {
            return Err(SpecError("every axis needs at least one entry".to_string()));
        }
        // A repeated value would run (and count) the same cells twice,
        // and two farm workers would race on one store entry.
        if let Json::Obj(axes) = self.to_value() {
            for (axis, values) in &axes {
                if let Some(value) = values.as_arr().and_then(first_repeat) {
                    let value = value.encode();
                    return Err(SpecError(format!("axis \"{axis}\" repeats {value}")));
                }
            }
        }
        for &t in &self.threads {
            if t == 0 || t > 128 {
                return Err(SpecError(format!(
                    "threads {t} out of range (1..=128, the ProcSet machine-width cap)"
                )));
            }
        }
        for &bits in &self.sig_bits {
            // SignatureConfig: power of two, 4 banks, each bank a
            // power-of-two bit count.
            if !bits.is_power_of_two() || !(64..=1 << 20).contains(&bits) {
                return Err(SpecError(format!(
                    "sig_bits {bits} invalid (power of two in 64..=1048576)"
                )));
            }
        }
        if self.txns_per_thread == 0 {
            return Err(SpecError("txns_per_thread must be positive".to_string()));
        }
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(SpecError(format!(
                "name {:?} must be non-empty [A-Za-z0-9_-] (it names emitted files)",
                self.name
            )));
        }
        Ok(())
    }

    /// Expands the cross product in canonical (nested-axis) order:
    /// workload, runtime, cm, threads, sig_bits, seed.
    pub fn expand(&self) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for &workload in &self.workloads {
            // Same sizing derivation as the serial bench path.
            let base =
                flextm_bench::point_spec(workload, RuntimeKind::Cgl, 1, self.txns_per_thread);
            for &runtime in &self.runtimes {
                for &cm in &self.cms {
                    for &threads in &self.threads {
                        for &sig_bits in &self.sig_bits {
                            for &seed in &self.seeds {
                                cells.push(CellSpec {
                                    workload,
                                    runtime,
                                    cm,
                                    threads,
                                    sig_bits,
                                    seed,
                                    txns_per_thread: base.txns_per_thread,
                                    warmup_per_thread: base.warmup_per_thread,
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// Reads axis `key` of a spec document: an array whose entries all
/// decode through `item`, or `[default]` when the key is absent.
fn axis<T>(
    doc: &Json,
    key: &str,
    default: Option<T>,
    item: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<T>, SpecError> {
    let Some(values) = doc.get(key) else {
        return default
            .map(|d| vec![d])
            .ok_or_else(|| SpecError(format!("missing \"{key}\"")));
    };
    let values = values
        .as_arr()
        .ok_or_else(|| SpecError(format!("\"{key}\" must be an array")))?;
    values
        .iter()
        .map(|v| item(v).ok_or_else(|| SpecError(format!("\"{key}\": bad entry {}", v.encode()))))
        .collect()
}

/// The first item of `items` that also appears earlier in it.
fn first_repeat<T: PartialEq>(items: &[T]) -> Option<&T> {
    items
        .iter()
        .enumerate()
        .find_map(|(i, item)| items[..i].contains(item).then_some(item))
}

/// Parses a [`CellSpec`] from its canonical JSON (the `--run-cell`
/// transport): [`CellSpec::from_json`] on a parsed document.
pub fn cell_from_json(text: &str) -> Result<CellSpec, SpecError> {
    let doc = parse(text).map_err(|e| SpecError(e.to_string()))?;
    CellSpec::from_json(&doc).map_err(SpecError)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_smoke_expands_to_2x2() {
        let spec = MatrixSpec::builtin("smoke2x2").unwrap();
        let cells = spec.expand();
        assert_eq!(cells.len(), 4);
        // Canonical order: runtime-major over the thread axis.
        assert_eq!(cells[0].runtime, RuntimeKind::Cgl);
        assert_eq!(cells[0].threads, 1);
        assert_eq!(cells[1].threads, 2);
        assert_eq!(cells[2].runtime, RuntimeKind::FlexTmLazy);
        // Sizing derivations match the serial path: 16 txns, warmup
        // (16/4).max(8) = 8.
        assert!(cells.iter().all(|c| c.txns_per_thread == 16));
        assert!(cells.iter().all(|c| c.warmup_per_thread == 8));
    }

    #[test]
    fn fig4_hashtable_matches_the_serial_matrix() {
        let spec = MatrixSpec::builtin("fig4_hashtable").unwrap();
        let cells = spec.expand();
        assert_eq!(cells.len(), 4 * 5);
        for cell in &cells {
            assert_eq!(
                *cell,
                flextm_bench::point_spec(cell.workload, cell.runtime, cell.threads, 96)
            );
        }
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = MatrixSpec::builtin("fig4_hashtable").unwrap();
        let parsed = MatrixSpec::from_json(&spec.to_value().encode()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn cell_json_round_trips() {
        for cell in MatrixSpec::builtin("fig4_hashtable").unwrap().expand() {
            let parsed = cell_from_json(&cell.canonical_json()).unwrap();
            assert_eq!(parsed, cell);
        }
    }

    #[test]
    fn spec_defaults_fill_the_paper_configuration() {
        let spec = MatrixSpec::from_json(
            "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \
             \"runtimes\": [\"FlexTM(E)\"], \"threads\": [4]}",
        )
        .unwrap();
        assert_eq!(spec.cms, vec![CmKind::Polka]);
        assert_eq!(spec.sig_bits, vec![2048]);
        assert_eq!(spec.seeds, vec![0xF1E7]);
        assert_eq!(spec.txns_per_thread, 96);
    }

    #[test]
    fn invalid_specs_are_rejected_up_front() {
        for (label, text) in [
            ("unknown workload", "{\"name\": \"t\", \"workloads\": [\"HashMap\"], \"runtimes\": [\"CGL\"], \"threads\": [1]}"),
            ("unknown runtime", "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"HTM\"], \"threads\": [1]}"),
            ("threads over machine cap", "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"CGL\"], \"threads\": [256]}"),
            ("non-power-of-two signature", "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"CGL\"], \"threads\": [1], \"sig_bits\": [1000]}"),
            ("empty axis", "{\"name\": \"t\", \"workloads\": [], \"runtimes\": [\"CGL\"], \"threads\": [1]}"),
            ("bad name", "{\"name\": \"a/b\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"CGL\"], \"threads\": [1]}"),
            ("repeated thread count", "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"CGL\"], \"threads\": [1, 1, 2]}"),
            ("repeated runtime", "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"CGL\", \"TL2\", \"CGL\"], \"threads\": [1]}"),
            ("repeated seed", "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"CGL\"], \"threads\": [1], \"seeds\": [\"0x1\", 1]}"),
        ] {
            assert!(MatrixSpec::from_json(text).is_err(), "{label} should fail");
        }
        let err = MatrixSpec::from_json(
            "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \
             \"runtimes\": [\"CGL\"], \"threads\": [1, 2, 2]}",
        )
        .unwrap_err();
        assert_eq!(err.0, "axis \"threads\" repeats 2");
    }
}
