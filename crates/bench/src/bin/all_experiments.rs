//! The whole experiment suite, every section of `ramp_bench::figures` in
//! order, in one process: one prewarm shares profiles and baselines, and
//! stdout is byte-identical at any thread count (`-j N`).
fn main() {
    ramp_bench::figures::run(None);
}
