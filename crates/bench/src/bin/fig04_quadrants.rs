//! Figure 4: hotness-AVF quadrants of each footprint (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("fig04"));
}
