//! Regenerates the golden regression files under `tests/golden/`:
//!
//! - `figN.json` / `hwsweep.json`: byte-exact output of the
//!   corresponding binary run as `--json --scale small`;
//! - `table3.txt` / `table4.txt`: byte-exact output of the `table3` /
//!   `table4` binaries;
//! - `sim_digests.json`: SHA-256 of every registry workload's
//!   serialized sim report, both scales, all four fence configs
//!   (checked by the `sim_byte_identity` test in this crate).
//!
//! The `goldens` test diffs the binaries' live output against these
//! files; after an intentional simulator or schema change, rerun
//! `cargo run -p sfence-bench --bin regen-golden` and commit the
//! result.

use std::path::Path;

fn write(dir: &Path, name: &str, contents: &str) {
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    std::fs::create_dir_all(&dir).expect("create tests/golden");
    for name in sfence_bench::golden_names() {
        let experiment = sfence_bench::experiment_by_name(name)
            .expect("golden names are registered experiments")
            .scale(sfence_workloads::Scale::Small);
        write(
            &dir,
            &format!("{name}.json"),
            &experiment.run_parallel().to_json_string(),
        );
    }
    let hwsweep: Vec<_> = sfence_bench::hwsweep_experiments()
        .into_iter()
        .map(|e| e.scale(sfence_workloads::Scale::Small).run_parallel())
        .collect();
    write(
        &dir,
        "hwsweep.json",
        &sfence_bench::hwsweep_merge(&hwsweep).to_json_string(),
    );
    write(&dir, "table3.txt", &sfence_bench::table3());
    write(&dir, "table4.txt", &sfence_bench::table4());
    let mut digests = sfence_bench::digests::digest_rows(sfence_workloads::Scale::Small);
    digests.extend(sfence_bench::digests::digest_rows(
        sfence_workloads::Scale::Eval,
    ));
    write(
        &dir,
        "sim_digests.json",
        &sfence_bench::digests::digests_json(&digests).to_string_pretty(),
    );
}
