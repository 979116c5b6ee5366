//! Figure 17: annotated structures per workload (its two `all_experiments` sections).
fn main() {
    ramp_bench::figures::run(Some("fig17"));
}
