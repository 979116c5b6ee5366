//! Figure 1: the reliability-performance frontier of hot pages (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("fig01"));
}
