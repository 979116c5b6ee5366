//! Figure 3: ACE-interval semantics of memory AVF, demonstrated on the
//! four cache-line scenarios of the paper's illustration.

use ramp_avf::AvfTracker;
use ramp_bench::print_table;
use ramp_dram::MemoryKind;
use ramp_sim::units::{AccessKind, Cycle, PageId};

fn scenario(accesses: &[(u64, AccessKind)]) -> f64 {
    let mut t = AvfTracker::new(Cycle(0));
    for &(cycle, kind) in accesses {
        t.on_access(PageId(0), 0, kind, Cycle(cycle), MemoryKind::Ddr);
    }
    // One line of the page over a 1000-cycle window; scale to line-AVF.
    t.finish(Cycle(1000)).get(PageId(0)).unwrap().avf * 64.0
}

fn main() {
    use AccessKind::{Read as R, Write as W};
    let rows = vec![
        vec![
            "(a) WR,RD,RD,WR".into(),
            format!(
                "{:.1}%",
                scenario(&[(100, W), (400, R), (700, R), (900, W)]) * 100.0
            ),
            "ACE between write and last read (60%)".into(),
        ],
        vec![
            "(b) WR,WR,RD".into(),
            format!("{:.1}%", scenario(&[(100, W), (600, W), (700, R)]) * 100.0),
            "strike before 2nd write masked (10%)".into(),
        ],
        vec![
            "(c) same hotness, early reads".into(),
            format!(
                "{:.1}%",
                scenario(&[(100, W), (200, R), (300, R), (400, W)]) * 100.0
            ),
            "reads right after write: low AVF (20%)".into(),
        ],
        vec![
            "(d) same hotness, late reads".into(),
            format!(
                "{:.1}%",
                scenario(&[(100, W), (700, R), (900, R), (950, W)]) * 100.0
            ),
            "reads long after write: high AVF (80%)".into(),
        ],
    ];
    let mut out = String::new();
    print_table(
        &mut out,
        "Figure 3: line AVF per access sequence (1000-cycle window)",
        &["scenario", "line AVF", "interpretation"],
        &rows,
    );
    print!("{out}");
    println!(
        "\n(c) and (d) have identical hotness but 4x different AVF — the paper's core insight."
    );
}
