//! Figure 7: naive reliability-focused static placement (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("fig07"));
}
