//! Regenerates Figure 13: normalized execution time of the full
//! applications under T, S, T+ and S+.
//! Pass `--json` for the structured sweep rows; `--scale small`
//! runs the golden-test problem size, and `--cache-dir`/`--threads`
//! drive cached, resumable sweeps (see `sfence_bench::figure_main`).
fn main() {
    sfence_bench::figure_main(
        sfence_bench::fig13_experiment(),
        |result| {
            sfence_bench::print_bars(
                "Figure 13: normalized execution time (T / S / T+ / S+), split into fence stalls and others",
                &sfence_bench::fig13_data_from(result),
            )
        },
        &[
            "paper: S reduces fence stalls; pst limited by its internal full fence;",
            "       in-window speculation (+) reduces stalls for both T and S",
        ],
    );
}
