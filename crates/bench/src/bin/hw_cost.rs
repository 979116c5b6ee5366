//! Sections 6.3/6.4.2: hardware cost of the migration mechanisms (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("hwcost"));
}
