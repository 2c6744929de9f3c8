//! Regenerates Figure 16: ROB size sweep (64/128/256).
//! Pass `--json` for the structured sweep rows; `--scale small`
//! runs the golden-test problem size, and `--cache-dir`/`--threads`
//! drive cached, resumable sweeps (see `sfence_bench::figure_main`).
fn main() {
    sfence_bench::figure_main(
        sfence_bench::fig16_experiment(),
        |result| {
            sfence_bench::print_bars(
                "Figure 16: varying ROB size; bars <rob><config>, normalized to default T",
                &sfence_bench::fig16_data_from(result),
            )
        },
        &["paper: barnes improves with bigger ROB; radiosity/pst/ptc saturate"],
    );
}
