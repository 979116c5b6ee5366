//! Figure 8: balanced static placement (hot & low-risk pages) (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("fig08"));
}
