//! Figure 16: program-annotation-based placement (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("fig16"));
}
