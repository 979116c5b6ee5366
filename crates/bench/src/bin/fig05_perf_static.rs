//! Figure 5: performance-focused static placement vs DDR-only (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("fig05"));
}
