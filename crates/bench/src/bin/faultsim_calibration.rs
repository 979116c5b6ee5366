//! Section 3.2: FaultSim uncorrected FIT/GB of each memory (its `all_experiments` section).
fn main() {
    ramp_bench::figures::run(Some("faultsim"));
}
