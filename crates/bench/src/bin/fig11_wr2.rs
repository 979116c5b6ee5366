//! Figure 11: top-Wr²-ratio heuristic placement (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("fig11"));
}
