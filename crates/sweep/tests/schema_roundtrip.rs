//! Producer/consumer schema pinning for the one record that crosses
//! crates: the cell record a farm child prints
//! (`flextm_bench::CellResult::to_json`) must round-trip through the
//! farm's parser (`parse_cell_record`), spec echo included — so a field
//! rename, a type change, or a formatting drift on either side fails
//! here instead of silently producing unparseable archives. Records
//! that stay inside one crate are pinned by that crate's own tests.

use flextm_bench::json::parse;
use flextm_bench::CellResult;
use flextm_sweep::runner::parse_cell_record;
use flextm_sweep::MatrixSpec;

#[test]
fn cell_record_round_trips_through_the_farm_parser() {
    for cell in MatrixSpec::builtin("smoke2x2").unwrap().expand() {
        let result = CellResult {
            committed: 32,
            attempts: 37,
            sim_ops: 1234,
            sim_cycles: 56789,
            digest: "0badc0de0badc0de".to_string(),
            wall_s: 0.015625,
        };
        let line = result.to_json(&cell);
        assert_eq!(parse_cell_record(&cell, &line).expect("parses"), result);
        assert_eq!(parse(&line).unwrap().encode(), line);
    }
}
