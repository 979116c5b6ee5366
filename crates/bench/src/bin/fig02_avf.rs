//! Figure 2: mean memory AVF per workload, DDR-only (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("fig02"));
}
