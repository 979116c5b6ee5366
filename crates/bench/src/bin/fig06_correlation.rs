//! Figure 6: hotness vs AVF of the hottest pages of mix1 (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("fig06"));
}
