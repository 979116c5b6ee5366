//! Figure 10: top-Wr-ratio heuristic placement (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("fig10"));
}
