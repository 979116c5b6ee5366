//! Figure 13: migration-interval sweep (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("fig13"));
}
