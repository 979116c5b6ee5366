//! Table 3: every scheme vs its performance-focused counterpart (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("table3"));
}
