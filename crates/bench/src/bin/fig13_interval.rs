//! Figure 13: migration-interval sweep.
//!
//! Paper: sweeping the FC interval over three workloads of different
//! memory intensity shows ~100 ms (scaled here to cycles) performs best.

use ramp_bench::{fc_interval_sweep, print_table, Harness};
use ramp_trace::{Benchmark, MixId, Workload};

fn main() {
    let mut h = Harness::new();
    // Low / medium / high memory intensity, as in the paper.
    let wls = [
        Workload::Homogeneous(Benchmark::Astar),
        Workload::Mix(MixId::Mix1),
        Workload::Homogeneous(Benchmark::Lbm),
    ];
    let intervals: [u64; 4] = [100_000, 200_000, 400_000, 1_600_000];
    let ipcs = fc_interval_sweep(&mut h, &wls, &intervals);
    let rows: Vec<Vec<String>> = wls
        .iter()
        .zip(ipcs.chunks(intervals.len()))
        .map(|(wl, ipcs)| [&[wl.name().to_string()], ipcs].concat())
        .collect();
    print_table(
        "Figure 13: FC-interval sweep (IPC per interval, cycles)",
        &["workload", "100k", "200k", "400k (default)", "1.6M"],
        &rows,
    );
    println!("\npaper: 100 ms (our scaled 400k-cycle default) is the sweet spot.");
    ramp_bench::finish(&h);
}
