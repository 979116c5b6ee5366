//! DRAM timing parameters.
//!
//! All parameters are stored in **CPU cycles** (the paper's 3.2 GHz core
//! clock), pre-converted from each standard's bus clock so the controller
//! never does clock-domain math. Conversions round to the nearest CPU cycle;
//! DESIGN.md documents this scaling choice.

/// Timing parameters of one DRAM standard, in CPU cycles.
///
/// Field names follow JEDEC conventions; every command-to-command constraint
/// the controller enforces lives here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimingParams {
    /// ACT to RD/WR to the same bank.
    pub t_rcd: u64,
    /// PRE to ACT to the same bank.
    pub t_rp: u64,
    /// RD issue to first data beat.
    pub t_cl: u64,
    /// WR issue to first data beat.
    pub t_cwl: u64,
    /// ACT to PRE to the same bank.
    pub t_ras: u64,
    /// ACT to ACT to the same bank.
    pub t_rc: u64,
    /// Data burst duration for one 64 B line.
    pub t_bl: u64,
    /// RD/WR to RD/WR on the same channel (column-to-column).
    pub t_ccd: u64,
    /// ACT to ACT across banks of the same rank.
    pub t_rrd: u64,
    /// Four-activate window per rank.
    pub t_faw: u64,
    /// End of write data to PRE (write recovery).
    pub t_wr: u64,
    /// End of write data to next RD (turnaround).
    pub t_wtr: u64,
    /// RD to PRE.
    pub t_rtp: u64,
    /// Refresh cycle time (all banks blocked).
    pub t_rfc: u64,
    /// Refresh interval.
    pub t_refi: u64,
}

impl TimingParams {
    /// DDR3-1600 (800 MHz bus, tCK = 1.25 ns = 4 CPU cycles at 3.2 GHz).
    ///
    /// The paper's high-reliability off-package memory (Table 1).
    pub fn ddr3_1600() -> Self {
        let tck = 4;
        TimingParams {
            t_rcd: 11 * tck,
            t_rp: 11 * tck,
            t_cl: 11 * tck,
            t_cwl: 8 * tck,
            t_ras: 28 * tck,
            t_rc: 39 * tck,
            t_bl: 4 * tck, // BL8 on a 64-bit bus = 4 bus cycles per 64 B
            t_ccd: 4 * tck,
            t_rrd: 5 * tck,
            t_faw: 24 * tck,
            t_wr: 12 * tck,
            t_wtr: 6 * tck,
            t_rtp: 6 * tck,
            t_rfc: 208 * tck,
            t_refi: 6240 * tck,
        }
    }

    /// HBM (500 MHz command clock, 1.0 GHz DDR data on a 128-bit bus;
    /// tCK = 2 ns ≈ 6 CPU cycles at 3.2 GHz, rounded).
    ///
    /// The paper's high-bandwidth low-reliability on-package memory
    /// (Table 1). Absolute latencies are comparable to DDR3; bandwidth is
    /// ~5x thanks to the 8 channels and wide bus (4 beats = 2 bus cycles
    /// per 64 B line).
    pub fn hbm_1000() -> Self {
        let tck = 6;
        TimingParams {
            t_rcd: 7 * tck,
            t_rp: 7 * tck,
            t_cl: 7 * tck,
            t_cwl: 5 * tck,
            t_ras: 17 * tck,
            t_rc: 24 * tck,
            t_bl: 2 * tck, // BL4 on a 128-bit bus = 2 bus cycles per 64 B
            t_ccd: 2 * tck,
            t_rrd: 2 * tck,
            t_faw: 15 * tck,
            t_wr: 8 * tck,
            t_wtr: 4 * tck,
            t_rtp: 4 * tck,
            t_rfc: 130 * tck,
            t_refi: 6240 * tck,
        }
    }

    /// Idle row-miss read latency (PRE + ACT + RD + data).
    pub fn row_miss_read_latency(&self) -> u64 {
        self.t_rp + self.t_rcd + self.t_cl + self.t_bl
    }

    /// Sanity-checks JEDEC-style invariants between parameters.
    ///
    /// # Panics
    ///
    /// Panics when a constraint that the scheduler relies on is violated
    /// (e.g. `t_rc < t_ras + t_rp`).
    pub fn validate(&self) {
        assert!(self.t_rc >= self.t_ras, "tRC must cover tRAS");
        assert!(
            self.t_rc + 8 >= self.t_ras + self.t_rp,
            "tRC must roughly equal tRAS + tRP"
        );
        assert!(self.t_faw >= self.t_rrd, "tFAW covers at least one tRRD");
        assert!(self.t_refi > self.t_rfc, "refresh interval exceeds tRFC");
        assert!(self.t_bl > 0 && self.t_ccd > 0);
    }
}

/// Organization of one memory (Table 1 rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Organization {
    /// Independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks: usize,
    /// Cache lines per DRAM row (row-buffer size / 64 B).
    pub lines_per_row: u64,
}

impl Organization {
    /// DDR3 organization from Table 1: 2 channels, 1 rank, 8 banks, 8 KB
    /// rows.
    pub fn ddr3() -> Self {
        Organization {
            channels: 2,
            ranks: 1,
            banks: 8,
            lines_per_row: 128,
        }
    }

    /// HBM organization from Table 1: 8 channels, 1 rank, 8 banks, 2 KB
    /// rows.
    pub fn hbm() -> Self {
        Organization {
            channels: 8,
            ranks: 1,
            banks: 8,
            lines_per_row: 32,
        }
    }

    /// Total banks across the whole memory.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks * self.banks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standards_validate() {
        TimingParams::ddr3_1600().validate();
        TimingParams::hbm_1000().validate();
    }

    #[test]
    fn hbm_has_more_bandwidth_per_channel() {
        let ddr = TimingParams::ddr3_1600();
        let hbm = TimingParams::hbm_1000();
        // Bytes per CPU cycle per channel = 64 / tBL.
        let bw_ddr = 64.0 / ddr.t_bl as f64 * Organization::ddr3().channels as f64;
        let bw_hbm = 64.0 / hbm.t_bl as f64 * Organization::hbm().channels as f64;
        let ratio = bw_hbm / bw_ddr;
        assert!(
            (4.0..8.5).contains(&ratio),
            "HBM/DDR bandwidth ratio {ratio} outside the paper's 4x-8x"
        );
    }

    #[test]
    fn latencies_are_comparable() {
        let ddr = TimingParams::ddr3_1600();
        let hbm = TimingParams::hbm_1000();
        let r = ddr.row_miss_read_latency() as f64 / hbm.row_miss_read_latency() as f64;
        assert!((0.5..2.0).contains(&r), "latency ratio {r} implausible");
    }

    #[test]
    fn organizations_match_table1() {
        assert_eq!(Organization::ddr3().channels, 2);
        assert_eq!(Organization::hbm().channels, 8);
        assert_eq!(Organization::hbm().total_banks(), 64);
    }
}
