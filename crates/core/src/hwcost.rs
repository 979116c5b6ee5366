//! Hardware-cost accounting for the migration mechanisms (Sections 6.3 and
//! 6.4.2), computed at the paper's **full, unscaled** capacities.
//!
//! | mechanism | storage |
//! |---|---|
//! | performance-focused FC (8-bit counter / page, 17 GiB) | 4.25 MB |
//! | reliability-aware FC (2 x 8-bit counters / page)      | 8.5 MB (+4.25 MB) |
//! | Cross-Counters: 16-bit risk counters for HBM pages    | 512 KB |
//! | MEA tracking structures                               | 100 KB |
//! | remap table cache                                     | 64 KB |
//! | Cross-Counters total                                  | 676 KB |

use crate::config::full_scale;

/// Bytes of counter storage for one 8-bit counter per page over the whole
/// 17 GiB HMA (the performance-focused migration baseline).
pub fn perf_fc_bytes() -> u64 {
    full_scale::TOTAL_PAGES
}

/// Bytes for the reliability-aware Full-Counter mechanism: two 8-bit
/// counters (reads and writes) per page (Section 6.3: "16 bits per 4K
/// page ... 8.5 MB").
pub fn reliability_fc_bytes() -> u64 {
    full_scale::TOTAL_PAGES * 2
}

/// Extra storage of reliability-aware FC over the performance baseline
/// (Section 6.3: "additional storage of 4.25 MB").
pub fn reliability_fc_extra_bytes() -> u64 {
    reliability_fc_bytes() - perf_fc_bytes()
}

/// Bytes for the Cross-Counter reliability unit: 16-bit counters for every
/// HBM page only (Section 6.4.2: "512 KB").
pub fn cc_risk_counter_bytes() -> u64 {
    full_scale::HBM_PAGES * 2
}

/// MEA tracking storage modeled from MemPod (Section 6.4.2: "no more than
/// 100 KB").
pub fn mea_bytes() -> u64 {
    100 * 1024
}

/// Remap-table cache (Section 6.4.2: "64 KB").
pub fn remap_cache_bytes() -> u64 {
    64 * 1024
}

/// Total Cross-Counter mechanism storage (Section 6.4.2: "676 KB").
pub fn cross_counter_total_bytes() -> u64 {
    cc_risk_counter_bytes() + mea_bytes() + remap_cache_bytes()
}

/// Formats a byte count the way the paper quotes it (KB/MB, base 1024).
pub fn human_bytes(bytes: u64) -> String {
    if bytes >= 1024 * 1024 {
        format!("{:.2} MB", bytes as f64 / (1024.0 * 1024.0))
    } else {
        format!("{:.0} KB", bytes as f64 / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fc_costs_match_section_6_3() {
        // 4.25M pages x 16 bits = 8.5 MB total, 4.25 MB extra.
        assert_eq!(reliability_fc_bytes(), 8_912_896);
        assert_eq!(human_bytes(perf_fc_bytes()), "4.25 MB");
        assert_eq!(human_bytes(reliability_fc_bytes()), "8.50 MB");
        assert_eq!(human_bytes(reliability_fc_extra_bytes()), "4.25 MB");
    }

    #[test]
    fn cc_costs_match_section_6_4() {
        // 512 KB + 100 KB + 64 KB = 676 KB.
        assert_eq!(human_bytes(cc_risk_counter_bytes()), "512 KB");
        assert_eq!(human_bytes(mea_bytes()), "100 KB");
        assert_eq!(human_bytes(remap_cache_bytes()), "64 KB");
        assert_eq!(human_bytes(cross_counter_total_bytes()), "676 KB");
    }

    #[test]
    fn cc_is_dramatically_cheaper_than_fc() {
        assert!(cross_counter_total_bytes() * 6 < reliability_fc_bytes());
    }

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(64 * 1024), "64 KB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.00 MB");
    }
}
