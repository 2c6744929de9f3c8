//! Regenerates Figure 12: impact of workload on the lock-free
//! algorithms (speedup of S-Fence over traditional fences).
//! Pass `--json` for the structured sweep rows; `--scale small`
//! runs the golden-test problem size, and `--cache-dir`/`--threads`
//! drive cached, resumable sweeps (see `sfence_bench::figure_main`).
fn main() {
    sfence_bench::figure_main(
        sfence_bench::fig12_experiment(),
        |result| sfence_bench::print_fig12(&sfence_bench::fig12_data_from(result)),
        &["paper: peak speedups range 1.13x..1.34x; rise-then-fall with workload"],
    );
}
