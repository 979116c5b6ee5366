//! Figure 9: write ratio as an AVF proxy on mix1 (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("fig09"));
}
