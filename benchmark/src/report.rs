//! The metric catalogue and the result line.
//!
//! Every name here is declared in `BENCHMARK.json` with the same unit, and
//! `tests/harness.rs` checks the two lists against each other. A run
//! without `--trace` prints exactly [`END_TO_END`]; a traced run prints
//! exactly [`PER_LAYER`]. A layer a workload does not exercise reports 0.

use std::collections::BTreeMap;

use crate::json;

/// A metric's name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+` name, unique across both tables.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Metrics a user of the system sees, measured with tracing off. What one
/// operation is depends on the workload (see the README).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("latency_ms_mean", "ms"),
    m("peak_rss_mb", "MB"),
];

/// Metrics of single layers, from the traced pass.
pub const PER_LAYER: &[Metric] = &[
    // Workload-specific views of the untraced half of a traced run.
    m("sim_minst_per_s", "Minst/s"),
    m("points_per_s", "1/s"),
    m("sweep_s_p50", "s"),
    m("sweep.count", "count"),
    m("req_ms_p50", "ms"),
    m("req_ms_tail", "ms"),
    m("req.tail_pct", "%"),
    m("req.samples", "count"),
    m("fail_frac", "ratio"),
    m("trace.overhead_frac", "ratio"),
    // Simulator layers, from the feed-forward layer replay.
    m("trace.records", "count"),
    m("trace.ns_per_record", "ns"),
    m("cache.accesses", "count"),
    m("cache.ns_per_access", "ns"),
    m("core.pagemap.ns_per_lookup", "ns"),
    m("dram.requests", "count"),
    m("dram.ns_per_request", "ns"),
    m("avf.ns_per_access", "ns"),
    m("avf.finish_ms", "ms"),
    m("core.system.run_s", "s"),
    m("core.system.unattributed_share", "ratio"),
    // Simulated statistics: identical across commits for a speed-only change.
    m("sim.instructions", "count"),
    m("sim.cycles", "count"),
    m("cache.l2_mpki", "1/kinst"),
    m("dram.hbm.row_hit_ratio", "ratio"),
    m("dram.ddr.row_hit_ratio", "ratio"),
    m("sim.out_digest", "fnv48"),
    // Migration engine, checkpoints and run-store writes.
    m("core.migration.ns_per_access", "ns"),
    m("core.migration.intervals", "count"),
    m("core.migration.ms_per_interval", "ms"),
    m("core.migration.pages", "count"),
    m("core.migration.pingpong_ratio", "ratio"),
    m("core.system.ckpt_count", "count"),
    m("core.system.ckpt_bytes", "B"),
    m("core.system.ckpt_save_us", "us"),
    m("core.system.ckpt_restore_us", "us"),
    m("serve.store.ckpt_write_us", "us"),
    m("serve.store.run_write_ms", "ms"),
    // Store reads, wire decoding and the sweep engine.
    m("serve.store.open_ms", "ms"),
    m("serve.store.loads", "count"),
    m("serve.store.load_us_p50", "us"),
    m("serve.store.read_us_p50", "us"),
    m("serve.wire.decode_us_p50", "us"),
    m("serve.store.bytes_per_entry", "B"),
    m("serve.store.hit_ratio", "ratio"),
    m("sweep.spec.points_ms", "ms"),
    m("sweep.pareto.ranks_ms", "ms"),
    m("sweep.pareto.layers", "count"),
    m("sweep.artifact.render_ms", "ms"),
    m("sweep.artifact.write_ms", "ms"),
    // HTTP, router and server.
    m("http.get_run_ms_p50", "ms"),
    m("http.get_run_ms_tail", "ms"),
    m("http.submit_batch_ms_p50", "ms"),
    m("http.submit_batch_ms_tail", "ms"),
    m("http.submit_ms_p50", "ms"),
    m("http.submit_ms_tail", "ms"),
    m("http.keepalive_ms_p50", "ms"),
    m("http.fresh_conn_ms_p50", "ms"),
    m("serve.router.hop_ms_p50", "ms"),
    m("serve.router.proxied", "count"),
    m("serve.router.failover", "count"),
    m("serve.router.handoff", "count"),
    m("serve.server.completed", "count"),
    m("serve.server.rejected", "count"),
    m("serve.store.hits", "count"),
    m("serve.store.misses", "count"),
    m("serve.store.writes", "count"),
    m("gen.late_ms_tail", "ms"),
    m("gen.sent", "count"),
];

/// Looks a name up in both tables.
fn find(name: &str) -> Option<Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .copied()
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted in the timed phase(s) and checks.
    pub attempted: u64,
    /// Operations that failed, plus failed checks.
    pub failed: u64,
}

impl Report {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let d = find(name).unwrap_or_else(|| panic!("metric '{name}' is not declared"));
        self.values.insert(d.name, value);
    }

    /// Counts one checked operation; a failure is recorded with `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[bench] check failed: {}", why());
        }
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The `name value unit` lines followed by the one-line JSON result,
    /// over [`END_TO_END`] or, when `traced`, [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was never recorded.
    pub fn render(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut lines = String::new();
        let mut metrics = Vec::new();
        for d in table {
            let v = match self.values.get(d.name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric '{}' was not measured", d.name),
            };
            let v = json::num(v);
            lines.push_str(&format!("{} {v} {}\n", d.name, d.unit));
            metrics.push(format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json::quote(d.name),
                json::quote(d.unit)
            ));
        }
        lines.push_str(&format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}\n",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        ));
        lines
    }
}
