//! Figure 14: reliability-aware Full-Counter migration (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("fig14"));
}
