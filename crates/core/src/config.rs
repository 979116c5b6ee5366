//! System configuration (Table 1) and its scaled simulation counterpart.
//!
//! The paper simulates 16 GB DDR + 1 GB HBM with multi-GB workloads; RAMP
//! runs the same architecture at 1/64 capacity scale so the full experiment
//! suite completes in minutes (all reported results are *ratios*, which
//! survive uniform scaling — DESIGN.md §2). Hardware-cost arithmetic
//! (Sections 6.3/6.4) always uses the full-scale constants.

use ramp_avf::SerModel;
use ramp_cache::HierarchyConfig;

/// Full-scale Table 1 capacities, used by the hardware-cost model.
pub mod full_scale {
    /// HBM capacity in bytes (1 GiB).
    pub const HBM_BYTES: u64 = 1 << 30;
    /// DDR capacity in bytes (16 GiB).
    pub const DDR_BYTES: u64 = 16 << 30;
    /// HBM pages (262,144).
    pub const HBM_PAGES: u64 = HBM_BYTES / 4096;
    /// Total pages across the 17 GiB HMA (4.25 M).
    pub const TOTAL_PAGES: u64 = (HBM_BYTES + DDR_BYTES) / 4096;
}

/// Complete configuration of one simulated system.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of cores (Table 1: 16). Not honoured by the simulator:
    /// `SystemSim` runs the workload's 16 generator cores whatever this
    /// says. Besides `validate`'s range check the field only enters
    /// [`SystemConfig::canonical_bytes`], so it splits store keys and
    /// nothing else.
    pub cores: usize,
    /// Issue width per core (Table 1: 4-wide).
    pub issue_width: u32,
    /// Maximum outstanding demand misses per core (ROB-limited MLP).
    pub mshrs_per_core: usize,
    /// HBM capacity in pages (scaled: 4096 pages = 16 MiB).
    pub hbm_capacity_pages: u64,
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// Per-core instruction budget of one run.
    pub insts_per_core: u64,
    /// Root seed for trace generation.
    pub seed: u64,
    /// Full-Counter migration interval in cycles (the scaled "100 ms";
    /// sized so a default run spans ~10-20 intervals, as the paper's
    /// simpoints span many 100 ms intervals).
    pub fc_interval_cycles: u64,
    /// MEA migration interval in cycles (the scaled "50 us": much shorter
    /// than the FC interval, migrating at most 32 pages at a time).
    pub mea_interval_cycles: u64,
    /// Maximum page swaps per FC interval. Scaled from the paper's ~47k
    /// migrations per 100 ms interval on 262k HBM pages to keep the
    /// migration-traffic share of memory bandwidth comparable.
    pub max_swaps_per_interval: usize,
    /// Maximum pages the MEA performance unit migrates into HBM per MEA
    /// interval (MemPod moves at most 32 per 50 us at full scale; scaled
    /// to keep the same migration-bandwidth share).
    pub mea_max_pages_per_interval: usize,
    /// Soft-error-rate model (uncorrected FIT per GiB per memory).
    pub ser_model: SerModel,
}

impl SystemConfig {
    /// The scaled Table 1 system used by every experiment.
    pub fn table1_scaled() -> Self {
        SystemConfig {
            cores: 16,
            issue_width: 4,
            mshrs_per_core: 16,
            hbm_capacity_pages: 4096,
            hierarchy: HierarchyConfig::table1_scaled(),
            insts_per_core: 5_000_000,
            seed: 0x52414d50, // "RAMP"
            fc_interval_cycles: 400_000,
            mea_interval_cycles: 50_000,
            max_swaps_per_interval: 32,
            mea_max_pages_per_interval: 4,
            ser_model: SerModel::calibrated(),
        }
    }

    /// A fast variant for unit tests: fewer instructions, a smaller HBM
    /// and shorter migration intervals. Its `cores: 4` changes only store
    /// keys; the simulator still runs 16 cores (see [`SystemConfig::cores`]).
    pub fn smoke_test() -> Self {
        SystemConfig {
            cores: 4,
            insts_per_core: 150_000,
            hbm_capacity_pages: 512,
            fc_interval_cycles: 60_000,
            mea_interval_cycles: 6_000,
            ..Self::table1_scaled()
        }
    }

    /// Lower-bound estimate of the FC-interval epochs a run spans, used
    /// for coarse progress reporting (`epochs_done / epochs_total`).
    ///
    /// Derived from the zero-stall cycle count (`insts_per_core` at full
    /// issue width), so real runs — which stall on memory — overshoot it;
    /// progress consumers must treat `done > total` as "still running",
    /// not an error.
    pub fn epochs_estimate(&self) -> u64 {
        (self.insts_per_core / self.issue_width as u64)
            .div_ceil(self.fc_interval_cycles)
            .max(1)
    }

    /// A canonical byte encoding of every simulation-relevant parameter.
    ///
    /// Two configs produce identical bytes iff they run identical
    /// simulations, so the `ramp-serve` persistent run store hashes this
    /// into its content-addressed keys: any config change — capacities,
    /// intervals, seed, SER model, cache geometry — lands in a different
    /// store slot instead of serving stale results.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut w = ramp_sim::codec::ByteWriter::new();
        w.u64(self.cores as u64);
        w.u32(self.issue_width);
        w.u64(self.mshrs_per_core as u64);
        w.u64(self.hbm_capacity_pages);
        w.u64(self.hierarchy.cores as u64);
        for cache in [self.hierarchy.l1, self.hierarchy.l2] {
            w.u64(cache.size_bytes as u64);
            w.u64(cache.assoc as u64);
            w.u64(cache.line_bytes as u64);
        }
        w.u64(self.insts_per_core);
        w.u64(self.seed);
        w.u64(self.fc_interval_cycles);
        w.u64(self.mea_interval_cycles);
        w.u64(self.max_swaps_per_interval as u64);
        w.u64(self.mea_max_pages_per_interval as u64);
        w.f64(self.ser_model.fit_hbm_per_gb);
        w.f64(self.ser_model.fit_ddr_per_gb);
        w.into_bytes()
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is degenerate (zero cores, zero capacity,
    /// MEA interval not shorter than the FC interval, ...).
    pub fn validate(&self) {
        assert!(self.cores > 0 && self.cores <= 64);
        assert!(self.issue_width > 0);
        assert!(self.mshrs_per_core > 0);
        assert!(self.hbm_capacity_pages > 0);
        assert!(self.insts_per_core > 0);
        assert!(
            self.mea_interval_cycles < self.fc_interval_cycles,
            "MEA interval must be much shorter than the FC interval (\u{a7}6.4.3)"
        );
        assert!(self.max_swaps_per_interval > 0);
        assert!(self.mea_max_pages_per_interval > 0);
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::table1_scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_validates() {
        SystemConfig::table1_scaled().validate();
        SystemConfig::smoke_test().validate();
    }

    #[test]
    fn full_scale_constants_match_paper() {
        assert_eq!(full_scale::HBM_PAGES, 262_144);
        assert_eq!(full_scale::TOTAL_PAGES, 4_456_448); // "4.25M pages"
    }

    #[test]
    fn canonical_bytes_track_every_parameter() {
        let base = SystemConfig::table1_scaled();
        assert_eq!(base.canonical_bytes(), base.canonical_bytes());
        assert_ne!(
            base.canonical_bytes(),
            SystemConfig::smoke_test().canonical_bytes()
        );
        for mutate in [
            |c: &mut SystemConfig| c.insts_per_core += 1,
            |c: &mut SystemConfig| c.seed ^= 1,
            |c: &mut SystemConfig| c.hbm_capacity_pages += 1,
            |c: &mut SystemConfig| c.ser_model.fit_hbm_per_gb += 1.0,
            |c: &mut SystemConfig| c.hierarchy.l2.assoc *= 2,
        ] {
            let mut changed = SystemConfig::table1_scaled();
            mutate(&mut changed);
            assert_ne!(base.canonical_bytes(), changed.canonical_bytes());
        }
    }

    #[test]
    #[should_panic(expected = "MEA interval")]
    fn mea_interval_must_be_shorter() {
        let cfg = SystemConfig {
            mea_interval_cycles: 5_000_000,
            ..SystemConfig::table1_scaled()
        };
        cfg.validate();
    }
}
