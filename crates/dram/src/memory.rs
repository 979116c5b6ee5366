//! A complete memory device: channels + address mapping + aggregate stats.

use ramp_sim::units::Cycle;

use crate::controller::{ChannelController, ChannelStats};
use crate::mapping::AddressMapping;
use crate::request::{Completion, MemRequest, QueueFull};
use crate::timing::{Organization, TimingParams};

/// Which of the two HMA memories a request targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// On-package die-stacked high-bandwidth memory (low reliability).
    Hbm,
    /// Off-package DDRx (high reliability).
    Ddr,
}

impl std::fmt::Display for MemoryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryKind::Hbm => write!(f, "HBM"),
            MemoryKind::Ddr => write!(f, "DDR"),
        }
    }
}

/// One memory device (all channels of the HBM stack, or of the DDR DIMMs).
///
/// ```
/// use ramp_dram::{MemorySystem, MemoryKind};
/// use ramp_dram::request::MemRequest;
/// use ramp_sim::units::{AccessKind, Cycle, LineAddr};
///
/// let mut mem = MemorySystem::ddr3();
/// let req = MemRequest {
///     id: 1,
///     line: LineAddr(0),
///     kind: AccessKind::Read,
///     core: 0,
///     arrive: Cycle(0),
/// };
/// mem.enqueue(req)?;
/// let mut done = Vec::new();
/// mem.advance(Cycle(1_000), &mut done);
/// assert_eq!(done.len(), 1);
/// # Ok::<(), ramp_dram::request::QueueFull>(())
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    kind: MemoryKind,
    mapping: AddressMapping,
    channels: Vec<ChannelController>,
}

impl MemorySystem {
    /// Builds a memory from explicit timing and organization.
    pub fn new(kind: MemoryKind, timing: TimingParams, org: Organization) -> Self {
        MemorySystem {
            kind,
            mapping: AddressMapping::new(org),
            channels: (0..org.channels)
                .map(|_| ChannelController::new(timing, org.banks * org.ranks))
                .collect(),
        }
    }

    /// The Table 1 DDR3 configuration (2 channels, ChipKill class).
    pub fn ddr3() -> Self {
        Self::new(
            MemoryKind::Ddr,
            TimingParams::ddr3_1600(),
            Organization::ddr3(),
        )
    }

    /// The Table 1 HBM configuration (8 channels, SEC-DED class).
    pub fn hbm() -> Self {
        Self::new(
            MemoryKind::Hbm,
            TimingParams::hbm_1000(),
            Organization::hbm(),
        )
    }

    /// Which memory this is.
    pub fn kind(&self) -> MemoryKind {
        self.kind
    }

    /// Whether the target channel for `req` can accept it.
    pub fn can_accept(&self, req: &MemRequest) -> bool {
        let coord = self.mapping.decode(req.line);
        self.channels[coord.channel].can_accept(req.kind)
    }

    /// Routes `req` to its channel.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] if the channel queue is at capacity.
    pub fn enqueue(&mut self, req: MemRequest) -> Result<(), QueueFull> {
        let coord = self.mapping.decode(req.line);
        self.channels[coord.channel].enqueue(req, coord)
    }

    /// Advances every channel to `now`, appending completions.
    pub fn advance(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        for ch in &mut self.channels {
            ch.advance(now, out);
        }
    }

    /// `true` when every channel is idle.
    pub fn is_idle(&self) -> bool {
        self.channels.iter().all(|c| c.is_idle())
    }

    /// Per-channel statistics.
    pub fn channel_stats(&self) -> Vec<&ChannelStats> {
        self.channels.iter().map(|c| c.stats()).collect()
    }

    /// Total reads + writes served.
    pub fn total_accesses(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.stats().reads + c.stats().writes)
            .sum()
    }

    /// Mean read latency over all channels (0 if no reads).
    pub fn mean_read_latency(&self) -> f64 {
        let (sum, n) = self.channels.iter().fold((0.0, 0u64), |(s, n), c| {
            let st = &c.stats().read_latency;
            (s + st.mean() * st.count() as f64, n + st.count())
        });
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Exports per-channel telemetry under `{prefix}.ch{i}` plus
    /// device-level aggregates under `{prefix}` into `reg`.
    pub fn export_telemetry(&self, reg: &mut ramp_sim::telemetry::StatRegistry, prefix: &str) {
        for (i, ch) in self.channels.iter().enumerate() {
            ch.stats().export_telemetry(reg, &format!("{prefix}.ch{i}"));
        }
        let (hits, misses) = self.channels.iter().fold((0u64, 0u64), |(h, m), c| {
            (h + c.stats().row_hits, m + c.stats().row_misses)
        });
        reg.counter_add(prefix, "accesses", self.total_accesses());
        reg.ratio_add(prefix, "row_hit_ratio", hits, hits + misses);
        reg.gauge_set(prefix, "mean_read_latency", self.mean_read_latency());
    }

    /// Serializes every channel's dynamic state into `w` (timing,
    /// organization and address mapping are static configuration).
    pub fn save_state(&self, w: &mut ramp_sim::codec::ByteWriter) {
        w.u32(self.channels.len() as u32);
        for ch in &self.channels {
            ch.save_state(w);
        }
    }

    /// Restores the state captured by [`MemorySystem::save_state`] into a
    /// memory of identical configuration.
    pub fn restore_state(
        &mut self,
        r: &mut ramp_sim::codec::ByteReader,
    ) -> Result<(), ramp_sim::codec::CodecError> {
        let n = r.seq_len(1)?;
        if n != self.channels.len() {
            return Err(ramp_sim::codec::CodecError::Malformed(
                "channel count mismatch",
            ));
        }
        let mapping = self.mapping;
        for ch in &mut self.channels {
            ch.restore_state(r, |req| mapping.decode(req.line))?;
        }
        Ok(())
    }

    /// Row-buffer hit ratio over all column commands.
    pub fn row_hit_ratio(&self) -> f64 {
        let (h, m) = self.channels.iter().fold((0u64, 0u64), |(h, m), c| {
            (h + c.stats().row_hits, m + c.stats().row_misses)
        });
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramp_sim::units::{AccessKind, LineAddr};

    fn req(id: u64, line: u64, kind: AccessKind, at: u64) -> MemRequest {
        MemRequest {
            id,
            line: LineAddr(line),
            kind,
            core: 0,
            arrive: Cycle(at),
        }
    }

    #[test]
    fn requests_spread_across_channels() {
        let mut mem = MemorySystem::hbm();
        for i in 0..64 {
            mem.enqueue(req(i, i, AccessKind::Read, 0)).unwrap();
        }
        let mut done = Vec::new();
        mem.advance(Cycle(5_000), &mut done);
        assert_eq!(done.len(), 64);
        // All 8 channels served something.
        for st in mem.channel_stats() {
            assert!(st.reads > 0);
        }
    }

    #[test]
    fn hbm_outruns_ddr_on_streams() {
        let run = |mut mem: MemorySystem| {
            let mut issued = 0u64;
            let mut done = Vec::new();
            let mut t = 0u64;
            while t < 200_000 {
                t += 100;
                loop {
                    let r = req(issued, issued, AccessKind::Read, t);
                    if issued < 1_000_000 && mem.can_accept(&r) {
                        mem.enqueue(r).unwrap();
                        issued += 1;
                    } else {
                        break;
                    }
                }
                mem.advance(Cycle(t), &mut done);
            }
            done.len() as f64
        };
        let ddr = run(MemorySystem::ddr3());
        let hbm = run(MemorySystem::hbm());
        let ratio = hbm / ddr;
        assert!(
            (3.0..9.0).contains(&ratio),
            "HBM:DDR stream throughput ratio {ratio} outside 4x-8x ballpark"
        );
    }

    #[test]
    fn idle_after_drain() {
        let mut mem = MemorySystem::ddr3();
        mem.enqueue(req(0, 0, AccessKind::Write, 0)).unwrap();
        assert!(!mem.is_idle());
        let mut done = Vec::new();
        mem.advance(Cycle(1_000_000), &mut done);
        assert!(mem.is_idle());
        assert_eq!(mem.total_accesses(), 1);
    }

    #[test]
    fn sequential_stream_gets_row_hits() {
        let mut mem = MemorySystem::ddr3();
        let mut done = Vec::new();
        let mut t = 0;
        for i in 0..512u64 {
            t += 30;
            while !mem.can_accept(&req(i, i, AccessKind::Read, t)) {
                t += 30;
                mem.advance(Cycle(t), &mut done);
            }
            mem.enqueue(req(i, i, AccessKind::Read, t)).unwrap();
            mem.advance(Cycle(t), &mut done);
        }
        mem.advance(Cycle(t + 100_000), &mut done);
        assert!(
            mem.row_hit_ratio() > 0.8,
            "stream should be row-hit dominated, got {}",
            mem.row_hit_ratio()
        );
    }
}
