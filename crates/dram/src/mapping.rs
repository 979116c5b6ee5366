//! Physical address interleaving.
//!
//! RAMP uses a line-interleaved RoBaCoCh mapping: consecutive cache lines
//! rotate across channels (maximizing stream bandwidth), then fill a DRAM
//! row's worth of columns in one bank, then rotate banks, then rows — the
//! same default Ramulator uses for bandwidth-bound studies.

use ramp_sim::units::LineAddr;

use crate::timing::Organization;

/// A decoded DRAM coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramCoord {
    /// Channel index.
    pub channel: usize,
    /// Bank index within the channel (ranks are folded into banks; Table 1
    /// uses one rank per channel).
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Column (line within the row).
    pub col: u64,
}

/// Channel-first, line-interleaved address mapping for one memory
/// organization: the channel comes from the lowest line bits (maximum
/// stream bandwidth), then the column, the bank and the row.
#[derive(Clone, Copy, Debug)]
pub struct AddressMapping {
    org: Organization,
    /// `log2(channels, banks*ranks, lines_per_row)` when every dimension
    /// is a power of two (true for all shipped organizations), letting
    /// `decode` — on the per-request hot path, called millions of times a
    /// run — use shifts and masks instead of five hardware divisions.
    /// The division path stays for other organizations and as the
    /// reference the shift path is tested against.
    shifts: Option<(u32, u32, u32)>,
}

impl AddressMapping {
    /// Creates the mapping for `org`.
    pub fn new(org: Organization) -> Self {
        let channels = org.channels as u64;
        let banks = (org.banks * org.ranks) as u64;
        let lpr = org.lines_per_row;
        let shifts = (channels.is_power_of_two()
            && banks.is_power_of_two()
            && lpr.is_power_of_two())
        .then(|| {
            (
                channels.trailing_zeros(),
                banks.trailing_zeros(),
                lpr.trailing_zeros(),
            )
        });
        AddressMapping { org, shifts }
    }

    /// The organization this mapping decodes for.
    pub fn organization(&self) -> &Organization {
        &self.org
    }

    /// Decodes a global line address into a DRAM coordinate.
    ///
    /// The *frame* line address is expected to already be relative to this
    /// memory (the HMA layer remaps pages to per-memory frames).
    pub fn decode(&self, line: LineAddr) -> DramCoord {
        if let Some((ch_s, ba_s, lpr_s)) = self.shifts {
            let in_channel = line.0 >> ch_s;
            return DramCoord {
                channel: (line.0 & ((1 << ch_s) - 1)) as usize,
                bank: ((in_channel >> lpr_s) & ((1 << ba_s) - 1)) as usize,
                row: in_channel >> (lpr_s + ba_s),
                col: in_channel & ((1 << lpr_s) - 1),
            };
        }
        let channels = self.org.channels as u64;
        let banks = (self.org.banks * self.org.ranks) as u64;
        let lpr = self.org.lines_per_row;
        let in_channel = line.0 / channels;
        DramCoord {
            channel: (line.0 % channels) as usize,
            bank: ((in_channel / lpr) % banks) as usize,
            row: in_channel / (lpr * banks),
            col: in_channel % lpr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_lines_rotate_channels() {
        let m = AddressMapping::new(Organization::hbm());
        let c0 = m.decode(LineAddr(0));
        let c1 = m.decode(LineAddr(1));
        let c8 = m.decode(LineAddr(8));
        assert_eq!(c0.channel, 0);
        assert_eq!(c1.channel, 1);
        assert_eq!(c8.channel, 0);
        assert_eq!(c8.col, c0.col + 1);
    }

    #[test]
    fn rows_fill_before_bank_rotation() {
        let org = Organization::ddr3();
        let m = AddressMapping::new(org);
        // Within one channel, lines_per_row consecutive in-channel lines
        // share a row; the next one moves to the next bank.
        let lines_per_row_global = org.lines_per_row * org.channels as u64;
        let a = m.decode(LineAddr(0));
        let b = m.decode(LineAddr(lines_per_row_global - org.channels as u64));
        let c = m.decode(LineAddr(lines_per_row_global));
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row, b.row);
        assert_eq!(c.bank, a.bank + 1);
        assert_eq!(c.row, a.row);
    }

    #[test]
    fn decode_is_injective_over_a_window() {
        let m = AddressMapping::new(Organization::hbm());
        let mut seen = std::collections::HashSet::new();
        for l in 0..100_000u64 {
            let c = m.decode(LineAddr(l));
            assert!(
                seen.insert((c.channel, c.bank, c.row, c.col)),
                "collision at line {l}"
            );
        }
    }

    #[test]
    fn shift_decode_matches_division_decode() {
        for org in [Organization::hbm(), Organization::ddr3()] {
            let fast = AddressMapping::new(org);
            assert!(fast.shifts.is_some(), "shipped orgs are power-of-two");
            let mut slow = fast;
            slow.shifts = None;
            for l in (0..2_000_000u64).step_by(611) {
                assert_eq!(fast.decode(LineAddr(l)), slow.decode(LineAddr(l)));
            }
        }
    }

    #[test]
    fn coordinates_in_bounds() {
        let org = Organization::hbm();
        let m = AddressMapping::new(org);
        for l in (0..1_000_000u64).step_by(997) {
            let c = m.decode(LineAddr(l));
            assert!(c.channel < org.channels);
            assert!(c.bank < org.banks * org.ranks);
            assert!(c.col < org.lines_per_row);
        }
    }
}
