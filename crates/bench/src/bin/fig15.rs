//! Regenerates Figure 15: memory access latency sweep (200/300/500).
//! Pass `--json` for the structured sweep rows; `--scale small`
//! runs the golden-test problem size, and `--cache-dir`/`--threads`
//! drive cached, resumable sweeps (see `sfence_bench::figure_main`).
fn main() {
    sfence_bench::figure_main(
        sfence_bench::fig15_experiment(),
        |result| {
            sfence_bench::print_bars(
                "Figure 15: varying memory latency; bars <latency><config>, normalized to default T",
                &sfence_bench::fig15_data_from(result),
            )
        },
        &["paper: barnes/radiosity gains grow with latency; pst does not (full fence offsets)"],
    );
}
