//! The figure and table goldens, end to end through the binaries:
//! `fig12`–`fig16` and `hwsweep` with `--json --scale small`, and
//! `table3` and `table4`, must print exactly the bytes under
//! `tests/golden/`. The simulator is deterministic and thread-count
//! independent, so any difference is a behaviour change. After an
//! intentional one, rerun `cargo run --release -p sfence-bench --bin
//! regen-golden` and commit the result.

mod common;

const SMALL_JSON: &[&str] = &["--json", "--scale", "small"];

#[test]
fn figures_and_tables_match_the_goldens() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    let mut mismatches = Vec::new();
    for (bin, args, golden) in [
        (env!("CARGO_BIN_EXE_fig12"), SMALL_JSON, "fig12.json"),
        (env!("CARGO_BIN_EXE_fig13"), SMALL_JSON, "fig13.json"),
        (env!("CARGO_BIN_EXE_fig14"), SMALL_JSON, "fig14.json"),
        (env!("CARGO_BIN_EXE_fig15"), SMALL_JSON, "fig15.json"),
        (env!("CARGO_BIN_EXE_fig16"), SMALL_JSON, "fig16.json"),
        (env!("CARGO_BIN_EXE_hwsweep"), SMALL_JSON, "hwsweep.json"),
        (env!("CARGO_BIN_EXE_table3"), &[], "table3.txt"),
        (env!("CARGO_BIN_EXE_table4"), &[], "table4.txt"),
    ] {
        let live = common::run_ok(bin, args);
        let expected = std::fs::read_to_string(format!("{dir}/{golden}")).unwrap();
        if live != expected {
            let line = live
                .lines()
                .zip(expected.lines())
                .position(|(a, b)| a != b)
                .unwrap_or(live.lines().count().min(expected.lines().count()));
            mismatches.push(format!("{golden}: first difference at line {}", line + 1));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
