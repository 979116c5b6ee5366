//! The experiment suite's output, pinned through the figure registry
//! (`ramp_bench::figures`), at the golden file's config:
//!
//! ```text
//! RAMP_WORKLOADS=lbm,mcf RAMP_INSTS=20000 RAMP_STORE=off all_experiments -j 2
//! ```
//!
//! 1. Rendering every section reproduces
//!    `tests/golden/all_experiments_smoke.md` byte for byte.
//! 2. Each section rendered alone, in a fresh harness as its
//!    single-figure binary does, prints exactly its slice of the suite:
//!    every table and figure has one definition.

use std::path::PathBuf;

use ramp::serve::store::RunStore;
use ramp::trace::Workload;
use ramp_bench::figures::{render, Section, SECTIONS};
use ramp_bench::Harness;

const GOLDEN: &str = include_str!("golden/all_experiments_smoke.md");

/// A harness at the golden file's config over `store`, without touching
/// the environment.
fn harness(store: Option<RunStore>) -> Harness {
    let mut h = Harness::with_store(store);
    h.cfg.insts_per_core = 20_000;
    h.threads = 2;
    h
}

/// Renders `sections` the way the binaries do; one string per section.
fn render_sections(h: &mut Harness, sections: &[&Section]) -> Vec<String> {
    let wls = ["lbm", "mcf"].map(|n| Workload::from_name(n).unwrap());
    let mut parts = Vec::new();
    render(h, &wls, sections, |text| parts.push(text.to_string()));
    parts
}

/// Asserts `got == want`, naming the first line that differs.
fn assert_same(got: &str, want: &str, what: &str) {
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{what} differs from line {}: got {:?}, want {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Both checks share one pass of the whole suite: its scratch store
/// starts empty, so the pass simulates every run exactly as a storeless
/// `all_experiments` does, and it fills the store the single sections
/// then read.
#[test]
fn suite_matches_golden_and_each_section_its_slice() {
    let dir = ScratchDir(std::env::temp_dir().join(format!("ramp-figures-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let store = || Some(RunStore::open(&dir.0).unwrap());
    let all: Vec<&Section> = SECTIONS.iter().collect();
    let suite = render_sections(&mut harness(store()), &all);
    assert_same(&suite.concat(), GOLDEN, "all_experiments output");
    for (section, slice) in SECTIONS.iter().zip(&suite) {
        let alone = render_sections(&mut harness(store()), &[section]).concat();
        assert_same(&alone, slice, section.id);
    }
}
