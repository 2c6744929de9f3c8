//! Regenerates Figure 14: class scope vs set scope.
//! Pass `--json` for the structured sweep rows; `--scale small`
//! runs the golden-test problem size, and `--cache-dir`/`--threads`
//! drive cached, resumable sweeps (see `sfence_bench::figure_main`).
fn main() {
    sfence_bench::figure_main(
        sfence_bench::fig14_experiment(),
        |result| {
            sfence_bench::print_bars(
                "Figure 14: class scope (C.S.) vs set scope (S.S.), normalized to class scope",
                &sfence_bench::fig14_data_from(result),
            )
        },
        &["paper: set scope slightly better, difference not significant"],
    );
}
