//! Figure 15: Cross-Counter reliability-aware migration (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("fig15"));
}
