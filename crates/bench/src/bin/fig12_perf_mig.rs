//! Figure 12: performance-focused migration vs DDR-only (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("fig12"));
}
