//! A per-channel DRAM controller: FR-FCFS scheduling, open-page row-buffer
//! policy, posted writes with drain watermarks, and refresh.
//!
//! The controller uses a *reservation* timing model: when a request is
//! selected, its full command sequence (PRE/ACT/RD-or-WR plus data burst)
//! is placed on the bank and bus timelines atomically. Bank-level
//! parallelism emerges because each decision picks the request with the
//! best (row-hit class, earliest-issue, oldest) score across all banks.

use std::collections::VecDeque;

use ramp_sim::codec::{ByteReader, ByteWriter, CodecError};
use ramp_sim::stats::OnlineStats;
use ramp_sim::telemetry::{BinHistogram, StatRegistry};
use ramp_sim::units::{AccessKind, Cycle};

use crate::mapping::DramCoord;
use crate::request::{Completion, MemRequest, QueueFull};
use crate::timing::TimingParams;

/// Capacity of the read queue (per channel).
pub const READ_QUEUE_CAP: usize = 32;
/// Capacity of the write queue (per channel).
pub const WRITE_QUEUE_CAP: usize = 64;
/// Write-drain high watermark: entering drain mode.
const DRAIN_HI: usize = 48;
/// Write-drain low watermark: leaving drain mode.
const DRAIN_LO: usize = 16;
/// Maximum consecutive row hits served from one bank before aging wins
/// (starvation bound).
const ROW_HIT_STREAK_CAP: u32 = 16;

/// Sentinel for a closed bank (real rows are tiny by comparison).
const NO_ROW: u64 = u64::MAX;

/// Per-bank timing state, struct-of-arrays. The scheduler's inner loops
/// (row-hit classification in `pick`, refresh catch-up) each touch one
/// field across many banks, so parallel arrays keep those scans dense
/// instead of striding over padded per-bank structs.
#[derive(Debug)]
struct BankArrays {
    /// Open row per bank; [`NO_ROW`] when the bank is precharged.
    open_row: Vec<u64>,
    next_act: Vec<Cycle>,
    next_pre: Vec<Cycle>,
    next_rdwr: Vec<Cycle>,
    hit_streak: Vec<u32>,
}

impl BankArrays {
    fn new(n: usize) -> Self {
        BankArrays {
            open_row: vec![NO_ROW; n],
            next_act: vec![Cycle::ZERO; n],
            next_pre: vec![Cycle::ZERO; n],
            next_rdwr: vec![Cycle::ZERO; n],
            hit_streak: vec![0; n],
        }
    }

    fn len(&self) -> usize {
        self.open_row.len()
    }
}

/// Aggregate statistics of one channel.
#[derive(Clone, Debug)]
pub struct ChannelStats {
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Column commands that hit an open row.
    pub row_hits: u64,
    /// Column commands that required ACT (and possibly PRE).
    pub row_misses: u64,
    /// Row misses that also had to close another open row first
    /// (row-buffer conflicts; a subset of `row_misses`).
    pub row_conflicts: u64,
    /// ACT commands issued (equals `row_misses` in the reservation model).
    pub activates: u64,
    /// PRE commands issued, both demand precharges (conflicts) and
    /// refresh-induced row closes.
    pub precharges: u64,
    /// Times the controller entered write-drain mode.
    pub drain_events: u64,
    /// Refresh operations performed.
    pub refreshes: u64,
    /// Cycles the data bus was transferring.
    pub busy_cycles: u64,
    /// Read latency distribution (arrival to last data beat).
    pub read_latency: OnlineStats,
    /// Read-queue depth observed at each enqueue (after insertion).
    pub read_q_occupancy: BinHistogram,
    /// Write-queue depth observed at each enqueue (after insertion).
    pub write_q_occupancy: BinHistogram,
}

impl Default for ChannelStats {
    fn default() -> Self {
        ChannelStats {
            reads: 0,
            writes: 0,
            row_hits: 0,
            row_misses: 0,
            row_conflicts: 0,
            activates: 0,
            precharges: 0,
            drain_events: 0,
            refreshes: 0,
            busy_cycles: 0,
            read_latency: OnlineStats::default(),
            read_q_occupancy: BinHistogram::new(
                0.0,
                (READ_QUEUE_CAP + 1) as f64,
                READ_QUEUE_CAP + 1,
            ),
            write_q_occupancy: BinHistogram::new(
                0.0,
                (WRITE_QUEUE_CAP + 1) as f64,
                WRITE_QUEUE_CAP + 1,
            ),
        }
    }
}

impl ChannelStats {
    /// Exports every counter and histogram into `scope` of `reg`.
    pub fn export_telemetry(&self, reg: &mut StatRegistry, scope: &str) {
        reg.counter_add(scope, "reads", self.reads);
        reg.counter_add(scope, "writes", self.writes);
        reg.counter_add(scope, "row_hits", self.row_hits);
        reg.counter_add(scope, "row_misses", self.row_misses);
        reg.counter_add(scope, "row_conflicts", self.row_conflicts);
        reg.counter_add(scope, "activates", self.activates);
        reg.counter_add(scope, "precharges", self.precharges);
        reg.counter_add(scope, "drain_events", self.drain_events);
        reg.counter_add(scope, "refreshes", self.refreshes);
        reg.counter_add(scope, "busy_cycles", self.busy_cycles);
        reg.ratio_add(
            scope,
            "row_hit_ratio",
            self.row_hits,
            self.row_hits + self.row_misses,
        );
        if self.read_latency.count() > 0 {
            reg.gauge_set(scope, "mean_read_latency", self.read_latency.mean());
        }
        reg.observe_hist(scope, "read_q_occupancy", &self.read_q_occupancy);
        reg.observe_hist(scope, "write_q_occupancy", &self.write_q_occupancy);
    }
}

/// A scheduled command plan for one request (reservation model).
#[derive(Clone, Copy, Debug)]
struct Plan {
    /// `Some(act_at)` for a row miss (the ACT command time); `None` for a
    /// row hit — `commit` branches on this.
    act_at: Option<Cycle>,
    /// When the first command of the sequence (PRE/ACT/RD/WR) needs the
    /// command bus; a plan is only committed once this is due.
    first_cmd: Cycle,
    issue: Cycle,
    finish: Cycle,
}

/// One channel's controller.
#[derive(Debug)]
pub struct ChannelController {
    timing: TimingParams,
    banks: BankArrays,
    read_q: VecDeque<MemRequest>,
    write_q: VecDeque<MemRequest>,
    /// Pre-decoded coordinates parallel to the queues.
    read_coords: VecDeque<DramCoord>,
    write_coords: VecDeque<DramCoord>,
    bus_free: Cycle,
    next_col_cmd: Cycle,
    next_read_ok: Cycle,
    next_act_any: Cycle,
    act_history: VecDeque<Cycle>,
    next_refresh: Cycle,
    decision_time: Cycle,
    draining: bool,
    /// Earliest time the decision loop could act again: the minimum of the
    /// next pending arrival and the blocked winner's first command, set
    /// when the loop exhausts issuable work. Until `now` reaches it (and
    /// as long as no refresh comes due and nothing new is enqueued, both
    /// of which reset the gate), `advance` can skip the decision loop
    /// entirely — a pick in that window provably returns `None` with no
    /// state change. Not serialized: `Cycle::ZERO` (always re-decide) is
    /// always a safe value, so restore just resets it.
    wake: Cycle,
    /// Served requests whose data burst has not finished yet; delivered by
    /// `advance` once `now` reaches their finish time.
    in_flight: ramp_sim::EventQueue<Completion>,
    stats: ChannelStats,
}

impl ChannelController {
    /// Creates a controller for `banks` banks with the given timing.
    pub fn new(timing: TimingParams, banks: usize) -> Self {
        timing.validate();
        assert!(banks > 0);
        ChannelController {
            timing,
            banks: BankArrays::new(banks),
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            read_coords: VecDeque::new(),
            write_coords: VecDeque::new(),
            bus_free: Cycle::ZERO,
            next_col_cmd: Cycle::ZERO,
            next_read_ok: Cycle::ZERO,
            next_act_any: Cycle::ZERO,
            act_history: VecDeque::with_capacity(4),
            next_refresh: Cycle(timing.t_refi),
            decision_time: Cycle::ZERO,
            draining: false,
            wake: Cycle::ZERO,
            in_flight: ramp_sim::EventQueue::new(),
            stats: ChannelStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Whether a request of `kind` can be accepted right now.
    pub fn can_accept(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.read_q.len() < READ_QUEUE_CAP,
            AccessKind::Write => self.write_q.len() < WRITE_QUEUE_CAP,
        }
    }

    /// `true` when no requests are pending or in flight.
    pub fn is_idle(&self) -> bool {
        self.read_q.is_empty() && self.write_q.is_empty() && self.in_flight.is_empty()
    }

    /// Enqueues a request decoded to `coord`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the corresponding queue is at capacity;
    /// the caller must stall and retry (bandwidth backpressure).
    pub fn enqueue(&mut self, req: MemRequest, coord: DramCoord) -> Result<(), QueueFull> {
        match req.kind {
            AccessKind::Read => {
                if self.read_q.len() >= READ_QUEUE_CAP {
                    return Err(QueueFull);
                }
                self.read_q.push_back(req);
                self.read_coords.push_back(coord);
                self.wake = Cycle::ZERO;
                self.stats
                    .read_q_occupancy
                    .observe(self.read_q.len() as f64);
            }
            AccessKind::Write => {
                if self.write_q.len() >= WRITE_QUEUE_CAP {
                    return Err(QueueFull);
                }
                self.write_q.push_back(req);
                self.write_coords.push_back(coord);
                self.wake = Cycle::ZERO;
                self.stats
                    .write_q_occupancy
                    .observe(self.write_q.len() as f64);
            }
        }
        Ok(())
    }

    /// Applies every refresh due at or before `t` in one batch.
    ///
    /// Byte-identical to looping a single-refresh step: of `k` due
    /// refreshes only the last one's recovery window survives the
    /// per-bank `max`, every refresh after the first sees all rows
    /// already closed (so precharges count once per initially-open row),
    /// and streaks zero idempotently. Only the refresh *count* needs the
    /// full `k`.
    fn catch_up_refresh(&mut self, t: Cycle) {
        if t < self.next_refresh {
            return;
        }
        let k = (t - self.next_refresh).0 / self.timing.t_refi + 1;
        let last_start = self.next_refresh + Cycle((k - 1) * self.timing.t_refi);
        let end = last_start + self.timing.t_rfc;
        for b in 0..self.banks.len() {
            if self.banks.open_row[b] != NO_ROW {
                self.stats.precharges += 1;
                self.banks.open_row[b] = NO_ROW;
            }
            self.banks.next_act[b] = self.banks.next_act[b].max(end);
            self.banks.next_rdwr[b] = self.banks.next_rdwr[b].max(end);
            self.banks.next_pre[b] = self.banks.next_pre[b].max(end);
            self.banks.hit_streak[b] = 0;
        }
        self.next_refresh = last_start + Cycle(self.timing.t_refi);
        self.stats.refreshes += k;
    }

    /// Computes the command plan for serving `req` at or after `t` without
    /// mutating state.
    fn plan(&self, coord: DramCoord, kind: AccessKind, t: Cycle) -> Plan {
        let tp = &self.timing;
        let b = coord.bank;
        let row_hit = self.banks.open_row[b] == coord.row;
        let (issue_base, act_at, first_cmd) = if row_hit {
            let issue = t.max(self.banks.next_rdwr[b]);
            (issue, None, issue)
        } else {
            let (pre_done, first_cmd) = if self.banks.open_row[b] != NO_ROW {
                let pre_at = t.max(self.banks.next_pre[b]);
                (pre_at + tp.t_rp, pre_at)
            } else {
                (t, t)
            };
            let mut act_at = pre_done.max(self.banks.next_act[b]).max(self.next_act_any);
            // tFAW: at most 4 ACTs in any tFAW window.
            if self.act_history.len() == 4 {
                let oldest = self.act_history[0];
                act_at = act_at.max(oldest + tp.t_faw);
            }
            (act_at + tp.t_rcd, Some(act_at), first_cmd.min(act_at))
        };
        let cas_delay = if kind.is_write() { tp.t_cwl } else { tp.t_cl };
        let mut issue = issue_base.max(self.next_col_cmd);
        if !kind.is_write() {
            issue = issue.max(self.next_read_ok);
        }
        // Align the data burst with bus availability.
        issue = issue.max(self.bus_free.saturating_sub(Cycle(cas_delay)));
        let data_start = issue + cas_delay;
        let finish = data_start + tp.t_bl;
        Plan {
            act_at,
            first_cmd,
            issue,
            finish,
        }
    }

    /// Commits `plan`, updating bank, rank and bus state.
    fn commit(&mut self, coord: DramCoord, kind: AccessKind, plan: Plan) {
        let tp = self.timing;
        let b = coord.bank;
        if let Some(act_at) = plan.act_at {
            if self.act_history.len() == 4 {
                self.act_history.pop_front();
            }
            self.act_history.push_back(act_at);
            self.next_act_any = self.next_act_any.max(act_at + tp.t_rrd);
            self.stats.activates += 1;
            if self.banks.open_row[b] != NO_ROW {
                self.stats.precharges += 1;
                self.stats.row_conflicts += 1;
            }
            self.banks.open_row[b] = coord.row;
            self.banks.next_act[b] = act_at + tp.t_rc;
            self.banks.next_pre[b] = act_at + tp.t_ras;
            self.banks.hit_streak[b] = 0;
            self.stats.row_misses += 1;
        } else {
            self.banks.hit_streak[b] += 1;
            self.stats.row_hits += 1;
        }
        let issue = plan.issue;
        self.next_col_cmd = self.next_col_cmd.max(issue + tp.t_ccd);
        self.banks.next_rdwr[b] = self.banks.next_rdwr[b].max(issue + tp.t_ccd);
        if kind.is_write() {
            let data_end = issue + tp.t_cwl + tp.t_bl;
            self.banks.next_pre[b] = self.banks.next_pre[b].max(data_end + tp.t_wr);
            self.next_read_ok = self.next_read_ok.max(data_end + tp.t_wtr);
        } else {
            self.banks.next_pre[b] = self.banks.next_pre[b].max(issue + tp.t_rtp);
        }
        self.bus_free = plan.finish;
        self.stats.busy_cycles += tp.t_bl;
    }

    /// Chooses the next request (queue flag, index, plan): FR-FCFS with a
    /// starvation cap, writes only in drain mode (or when reads are absent).
    ///
    /// `blocked` reports the first command time of a winner that was found
    /// but is not yet due (`u64::MAX` otherwise) so `advance` can compute
    /// the wake gate.
    fn pick(&mut self, now: Cycle, blocked: &mut Cycle) -> Option<(bool, usize, Plan)> {
        *blocked = Cycle(u64::MAX);
        // Update drain mode.
        if self.write_q.len() >= DRAIN_HI {
            if !self.draining {
                self.stats.drain_events += 1;
            }
            self.draining = true;
        } else if self.write_q.len() <= DRAIN_LO {
            self.draining = false;
        }
        let serve_writes = self.draining
            || (self.read_q.iter().all(|r| r.arrive > self.decision_time)
                && !self.write_q.is_empty());

        let (queue, coords, kind) = if serve_writes && !self.write_q.is_empty() {
            (&self.write_q, &self.write_coords, AccessKind::Write)
        } else if !self.read_q.is_empty() {
            (&self.read_q, &self.read_coords, AccessKind::Read)
        } else {
            return None;
        };

        let t = self.decision_time;
        // Row hits first; once a bank's streak reaches the cap its
        // further hits rank *below* misses, so a pending conflict is
        // served (the ACT resets the streak) and cannot starve.
        //
        // Ranking key is (class, issue, index). One pass computes the
        // issue cycle directly from the bank arrays — the channel-wide
        // terms of `plan` (column command, read turnaround, bus
        // alignment, tFAW bound) do not depend on the candidate, so
        // they are hoisted out of the loop and the per-candidate cost
        // is a handful of loads and maxes. `plan` then runs once, for
        // the winner only; a debug assertion checks the shortcut
        // against it.
        let tp = &self.timing;
        let cas_delay = if kind.is_write() { tp.t_cwl } else { tp.t_cl };
        let mut common = self
            .next_col_cmd
            .max(self.bus_free.saturating_sub(Cycle(cas_delay)));
        if !kind.is_write() {
            common = common.max(self.next_read_ok);
        }
        let faw_bound = if self.act_history.len() == 4 {
            self.act_history[0] + tp.t_faw
        } else {
            Cycle::ZERO
        };
        let mut best_class = u8::MAX;
        let mut best_issue = Cycle::ZERO;
        let mut best_idx = 0usize;
        for (i, (req, coord)) in queue.iter().zip(coords.iter()).enumerate() {
            if req.arrive > t {
                continue;
            }
            let b = coord.bank;
            let open = self.banks.open_row[b];
            let row_hit = open == coord.row;
            let class = match (row_hit, self.banks.hit_streak[b] >= ROW_HIT_STREAK_CAP) {
                (true, false) => 0,
                (false, _) => 1,
                (true, true) => 2,
            };
            if class > best_class {
                continue;
            }
            let issue = if row_hit {
                t.max(self.banks.next_rdwr[b]).max(common)
            } else {
                let pre_done = if open != NO_ROW {
                    t.max(self.banks.next_pre[b]) + tp.t_rp
                } else {
                    t
                };
                let act_at = pre_done
                    .max(self.banks.next_act[b])
                    .max(self.next_act_any)
                    .max(faw_bound);
                (act_at + tp.t_rcd).max(common)
            };
            // Strict `<` keeps the oldest of equal-(class, issue)
            // candidates, matching the tuple order.
            if class < best_class || issue < best_issue {
                best_class = class;
                best_issue = issue;
                best_idx = i;
            }
        }
        if best_class == u8::MAX {
            return None;
        }
        let idx = best_idx;
        let plan = self.plan(coords[idx], kind, t);
        debug_assert_eq!(plan.issue, best_issue);
        // Only commit a plan whose first command is due; later plans wait
        // for the caller to advance time (event-driven commitment).
        if plan.first_cmd > now {
            *blocked = plan.first_cmd;
            return None;
        }
        Some((kind.is_write(), idx, plan))
    }

    /// Earliest pending arrival strictly after `t`.
    fn next_arrival_after(&self, t: Cycle) -> Option<Cycle> {
        self.read_q
            .iter()
            .chain(self.write_q.iter())
            .map(|r| r.arrive)
            .filter(|&a| a > t)
            .min()
    }

    /// Advances the controller to `now`, appending completions to `out`.
    pub fn advance(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        // Idle fast path: with both queues empty the decision loop can
        // only exit drain mode, catch up refreshes and advance time —
        // do exactly that without entering it. (`pick` with an empty
        // write queue always clears `draining`: 0 <= DRAIN_LO.)
        if self.read_q.is_empty() && self.write_q.is_empty() {
            self.draining = false;
            self.decision_time = self.decision_time.max(now);
            self.catch_up_refresh(self.decision_time);
            while let Some((_, c)) = self.in_flight.pop_due(now) {
                out.push(c);
            }
            return;
        }
        // Wake fast path: before the gate, the decision loop is provably a
        // no-op — no pending request has arrived (`wake` bounds the next
        // arrival), the previously blocked winner's plan is unchanged
        // (`wake` bounds its first command, and a plan whose first command
        // exceeds `t` never depends on `t`), and the bank state is frozen
        // because no refresh has come due (`decision_time`, updated below
        // exactly as the loop's give-up branch would, stays short of
        // `next_refresh`). Only the loop's side effects remain: advancing
        // the decision clock and delivering finished bursts.
        if now < self.wake && self.decision_time.max(now) < self.next_refresh {
            self.decision_time = self.decision_time.max(now);
            while let Some((_, c)) = self.in_flight.pop_due(now) {
                out.push(c);
            }
            return;
        }
        let mut blocked = Cycle(u64::MAX);
        loop {
            self.catch_up_refresh(self.decision_time);
            match self.pick(now, &mut blocked) {
                Some((is_write, idx, plan)) => {
                    let (req, coord) = if is_write {
                        (
                            self.write_q.remove(idx).expect("idx valid"),
                            self.write_coords.remove(idx).expect("idx valid"),
                        )
                    } else {
                        (
                            self.read_q.remove(idx).expect("idx valid"),
                            self.read_coords.remove(idx).expect("idx valid"),
                        )
                    };
                    self.commit(coord, req.kind, plan);
                    let latency = (plan.finish - req.arrive).0;
                    if req.kind.is_write() {
                        self.stats.writes += 1;
                    } else {
                        self.stats.reads += 1;
                        self.stats.read_latency.push(latency as f64);
                    }
                    self.in_flight.schedule(
                        plan.finish,
                        Completion {
                            id: req.id,
                            kind: req.kind,
                            finish: plan.finish,
                            latency,
                            core: req.core,
                        },
                    );
                    self.decision_time = self.decision_time.max(plan.first_cmd);
                }
                None => {
                    // Nothing issuable at decision_time; hop to the next
                    // arrival, or give up until the caller advances time.
                    match self.next_arrival_after(self.decision_time) {
                        Some(a) if a <= now => {
                            self.decision_time = a;
                        }
                        next => {
                            self.decision_time = self.decision_time.max(now);
                            self.catch_up_refresh(self.decision_time);
                            self.wake = next.unwrap_or(Cycle(u64::MAX)).min(blocked);
                            break;
                        }
                    }
                }
            }
        }
        while let Some((_, c)) = self.in_flight.pop_due(now) {
            out.push(c);
        }
    }

    /// Serializes the full controller state into `w` (timing parameters are
    /// static and rebuilt from the config on restore).
    pub fn save_state(&self, w: &mut ByteWriter) {
        w.u32(self.banks.len() as u32);
        for b in 0..self.banks.len() {
            match self.banks.open_row[b] {
                NO_ROW => w.u8(0),
                row => {
                    w.u8(1);
                    w.u64(row);
                }
            }
            w.u64(self.banks.next_act[b].0);
            w.u64(self.banks.next_pre[b].0);
            w.u64(self.banks.next_rdwr[b].0);
            w.u32(self.banks.hit_streak[b]);
        }
        write_request_queue(w, &self.read_q);
        write_request_queue(w, &self.write_q);
        w.u64(self.bus_free.0);
        w.u64(self.next_col_cmd.0);
        w.u64(self.next_read_ok.0);
        w.u64(self.next_act_any.0);
        w.u32(self.act_history.len() as u32);
        for &c in &self.act_history {
            w.u64(c.0);
        }
        w.u64(self.next_refresh.0);
        w.u64(self.decision_time.0);
        w.u8(u8::from(self.draining));
        let in_flight = self.in_flight.snapshot();
        w.u32(in_flight.len() as u32);
        for (at, c) in in_flight {
            w.u64(at.0);
            w.u64(c.id);
            w.u8(u8::from(c.kind.is_write()));
            w.u64(c.finish.0);
            w.u64(c.latency);
            w.u64(c.core as u64);
        }
        let st = &self.stats;
        w.u64(st.reads);
        w.u64(st.writes);
        w.u64(st.row_hits);
        w.u64(st.row_misses);
        w.u64(st.row_conflicts);
        w.u64(st.activates);
        w.u64(st.precharges);
        w.u64(st.drain_events);
        w.u64(st.refreshes);
        w.u64(st.busy_cycles);
        let (n, mean, m2, min, max) = st.read_latency.raw_parts();
        w.u64(n);
        w.f64(mean);
        w.f64(m2);
        w.f64(min);
        w.f64(max);
        st.read_q_occupancy.save_state(w);
        st.write_q_occupancy.save_state(w);
    }

    /// Restores the state captured by [`ChannelController::save_state`] into
    /// a controller of identical timing and bank count. Queue coordinates
    /// are re-decoded through `decode` (the address mapping is static).
    pub fn restore_state(
        &mut self,
        r: &mut ByteReader,
        decode: impl Fn(&MemRequest) -> DramCoord,
    ) -> Result<(), CodecError> {
        let n_banks = r.seq_len(29)?;
        if n_banks != self.banks.len() {
            return Err(CodecError::Malformed("bank count mismatch"));
        }
        for b in 0..self.banks.len() {
            self.banks.open_row[b] = match r.u8()? {
                0 => NO_ROW,
                1 => r.u64()?,
                _ => return Err(CodecError::Malformed("bad open-row tag")),
            };
            self.banks.next_act[b] = Cycle(r.u64()?);
            self.banks.next_pre[b] = Cycle(r.u64()?);
            self.banks.next_rdwr[b] = Cycle(r.u64()?);
            self.banks.hit_streak[b] = r.u32()?;
        }
        self.read_q = read_request_queue(r, READ_QUEUE_CAP)?;
        self.read_coords = self.read_q.iter().map(&decode).collect();
        self.write_q = read_request_queue(r, WRITE_QUEUE_CAP)?;
        self.write_coords = self.write_q.iter().map(&decode).collect();
        self.bus_free = Cycle(r.u64()?);
        self.next_col_cmd = Cycle(r.u64()?);
        self.next_read_ok = Cycle(r.u64()?);
        self.next_act_any = Cycle(r.u64()?);
        let n_acts = r.seq_len(8)?;
        if n_acts > 4 {
            return Err(CodecError::Malformed("tFAW history too long"));
        }
        self.act_history.clear();
        for _ in 0..n_acts {
            self.act_history.push_back(Cycle(r.u64()?));
        }
        self.next_refresh = Cycle(r.u64()?);
        self.decision_time = Cycle(r.u64()?);
        self.draining = r.u8()? != 0;
        // Not serialized; "decide immediately" is always safe.
        self.wake = Cycle::ZERO;
        let n_in_flight = r.seq_len(41)?;
        let mut in_flight = Vec::with_capacity(n_in_flight);
        for _ in 0..n_in_flight {
            let at = Cycle(r.u64()?);
            let c = Completion {
                id: r.u64()?,
                kind: read_kind(r)?,
                finish: Cycle(r.u64()?),
                latency: r.u64()?,
                core: r.u64()? as usize,
            };
            in_flight.push((at, c));
        }
        self.in_flight = ramp_sim::EventQueue::rebuild(in_flight);
        let st = &mut self.stats;
        st.reads = r.u64()?;
        st.writes = r.u64()?;
        st.row_hits = r.u64()?;
        st.row_misses = r.u64()?;
        st.row_conflicts = r.u64()?;
        st.activates = r.u64()?;
        st.precharges = r.u64()?;
        st.drain_events = r.u64()?;
        st.refreshes = r.u64()?;
        st.busy_cycles = r.u64()?;
        let (n, mean, m2, min, max) = (r.u64()?, r.f64()?, r.f64()?, r.f64()?, r.f64()?);
        st.read_latency = OnlineStats::from_raw_parts(n, mean, m2, min, max);
        st.read_q_occupancy = BinHistogram::read_state(r)?;
        st.write_q_occupancy = BinHistogram::read_state(r)?;
        Ok(())
    }
}

fn write_request_queue(w: &mut ByteWriter, q: &VecDeque<MemRequest>) {
    w.u32(q.len() as u32);
    for req in q {
        w.u64(req.id);
        w.u64(req.line.0);
        w.u8(u8::from(req.kind.is_write()));
        w.u64(req.core as u64);
        w.u64(req.arrive.0);
    }
}

fn read_request_queue(r: &mut ByteReader, cap: usize) -> Result<VecDeque<MemRequest>, CodecError> {
    let n = r.seq_len(33)?;
    if n > cap {
        return Err(CodecError::Malformed("request queue over capacity"));
    }
    let mut q = VecDeque::with_capacity(n);
    for _ in 0..n {
        q.push_back(MemRequest {
            id: r.u64()?,
            line: ramp_sim::units::LineAddr(r.u64()?),
            kind: read_kind(r)?,
            core: r.u64()? as usize,
            arrive: Cycle(r.u64()?),
        });
    }
    Ok(q)
}

fn read_kind(r: &mut ByteReader) -> Result<AccessKind, CodecError> {
    match r.u8()? {
        0 => Ok(AccessKind::Read),
        1 => Ok(AccessKind::Write),
        _ => Err(CodecError::Malformed("bad access-kind tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::AddressMapping;
    use crate::timing::Organization;
    use ramp_sim::units::LineAddr;

    fn ddr_controller() -> (ChannelController, AddressMapping) {
        (
            ChannelController::new(TimingParams::ddr3_1600(), 8),
            AddressMapping::new(Organization::ddr3()),
        )
    }

    fn req(id: u64, line: u64, kind: AccessKind, at: u64) -> MemRequest {
        MemRequest {
            id,
            line: LineAddr(line),
            kind,
            core: 0,
            arrive: Cycle(at),
        }
    }

    fn drain_all(c: &mut ChannelController) -> Vec<Completion> {
        let mut out = Vec::new();
        let mut t = 0u64;
        while !c.is_idle() && t < 10_000_000 {
            t += 1000;
            c.advance(Cycle(t), &mut out);
        }
        out
    }

    #[test]
    fn single_read_latency_is_row_miss() {
        let (mut c, m) = ddr_controller();
        let r = req(1, 0, AccessKind::Read, 0);
        c.enqueue(r, m.decode(r.line)).unwrap();
        let done = drain_all(&mut c);
        assert_eq!(done.len(), 1);
        let tp = TimingParams::ddr3_1600();
        assert_eq!(done[0].latency, tp.t_rcd + tp.t_cl + tp.t_bl);
    }

    #[test]
    fn row_hit_is_faster_than_row_conflict() {
        let (mut c, m) = ddr_controller();
        // Two reads in the same row (consecutive columns of channel 0).
        let a = req(1, 0, AccessKind::Read, 0);
        let b = req(2, 2, AccessKind::Read, 0); // same bank/row, next column
        c.enqueue(a, m.decode(a.line)).unwrap();
        c.enqueue(b, m.decode(b.line)).unwrap();
        let done = drain_all(&mut c);
        assert_eq!(c.stats().row_hits, 1);
        assert_eq!(c.stats().row_misses, 1);
        let hit_latency = done[1].latency - done[0].latency.min(done[1].latency);
        // The second read rides the open row: far cheaper than a full miss.
        assert!(hit_latency < TimingParams::ddr3_1600().row_miss_read_latency());
    }

    #[test]
    fn frfcfs_prefers_open_row() {
        let (mut c, m) = ddr_controller();
        let org = Organization::ddr3();
        // a opens row 0 of bank 0; b conflicts (different row, same bank);
        // h hits the open row and should be served before b despite age.
        let lines_per_bank_stripe = org.lines_per_row * org.channels as u64;
        let a = req(1, 0, AccessKind::Read, 0);
        let conflict_line = lines_per_bank_stripe * org.banks as u64; // row 1, bank 0
        let b = req(2, conflict_line, AccessKind::Read, 0);
        let h = req(3, 2, AccessKind::Read, 0);
        for r in [a, b, h] {
            c.enqueue(r, m.decode(r.line)).unwrap();
        }
        let done = drain_all(&mut c);
        let order: Vec<u64> = done.iter().map(|d| d.id).collect();
        assert_eq!(order, vec![1, 3, 2], "row hit must bypass older conflict");
    }

    #[test]
    fn writes_are_drained_and_counted() {
        let (mut c, m) = ddr_controller();
        for i in 0..60 {
            let r = req(i, i * 2, AccessKind::Write, 0);
            c.enqueue(r, m.decode(r.line)).unwrap();
        }
        let done = drain_all(&mut c);
        assert_eq!(done.len(), 60);
        assert_eq!(c.stats().writes, 60);
    }

    #[test]
    fn queue_capacity_enforced() {
        let (mut c, m) = ddr_controller();
        for i in 0..READ_QUEUE_CAP as u64 {
            let r = req(i, i, AccessKind::Read, 0);
            c.enqueue(r, m.decode(r.line)).unwrap();
        }
        let r = req(99, 99, AccessKind::Read, 0);
        assert!(!c.can_accept(AccessKind::Read));
        assert_eq!(c.enqueue(r, m.decode(r.line)), Err(QueueFull));
        assert!(c.can_accept(AccessKind::Write));
    }

    #[test]
    fn completions_monotone_per_bus() {
        let (mut c, m) = ddr_controller();
        for i in 0..20 {
            let r = req(i, i * 64, AccessKind::Read, i * 3);
            c.enqueue(r, m.decode(r.line)).unwrap();
        }
        let done = drain_all(&mut c);
        assert_eq!(done.len(), 20);
        // Data bursts never overlap: finishes are separated by >= tBL.
        let mut finishes: Vec<u64> = done.iter().map(|d| d.finish.0).collect();
        finishes.sort_unstable();
        for w in finishes.windows(2) {
            assert!(w[1] >= w[0] + TimingParams::ddr3_1600().t_bl);
        }
    }

    #[test]
    fn refresh_happens() {
        let (mut c, _) = ddr_controller();
        let mut out = Vec::new();
        c.advance(Cycle(200_000), &mut out);
        assert!(c.stats().refreshes >= 7, "expected periodic refreshes");
    }

    #[test]
    fn hit_streak_cap_bounds_starvation() {
        let (mut c, m) = ddr_controller();
        let org = Organization::ddr3();
        let lines_per_bank_stripe = org.lines_per_row * org.channels as u64;
        let conflict_line = lines_per_bank_stripe * org.banks as u64; // row 1, bank 0
                                                                      // A long stream of row-0 hits in bank 0, then one conflicting
                                                                      // row-1 read. FR-FCFS would serve it dead last; the streak cap
                                                                      // must squeeze it in after at most ROW_HIT_STREAK_CAP hits.
        for i in 0..28u64 {
            let r = req(i, i * 2, AccessKind::Read, 0);
            c.enqueue(r, m.decode(r.line)).unwrap();
        }
        let b = req(1000, conflict_line, AccessKind::Read, 0);
        c.enqueue(b, m.decode(b.line)).unwrap();
        let done = drain_all(&mut c);
        let pos = done.iter().position(|d| d.id == 1000).unwrap();
        // Position: 1 opening miss + up to CAP hits, then the conflict.
        assert!(
            pos <= ROW_HIT_STREAK_CAP as usize + 1,
            "conflict starved: served at position {pos} of {}",
            done.len()
        );
    }

    #[test]
    fn reads_bypass_writes_below_drain_watermark() {
        let (mut c, m) = ddr_controller();
        // Fewer writes than DRAIN_HI: posted writes must not delay reads.
        for i in 0..20u64 {
            let w = req(i, i * 2, AccessKind::Write, 0);
            c.enqueue(w, m.decode(w.line)).unwrap();
        }
        for i in 0..4u64 {
            let r = req(100 + i, 1000 + i * 2, AccessKind::Read, 0);
            c.enqueue(r, m.decode(r.line)).unwrap();
        }
        let done = drain_all(&mut c);
        let first_ids: Vec<u64> = done.iter().take(4).map(|d| d.id).collect();
        assert!(
            first_ids.iter().all(|&id| id >= 100),
            "reads must complete before any posted write: {first_ids:?}"
        );
        assert_eq!(done.len(), 24);
    }

    #[test]
    fn write_drain_engages_at_high_watermark_and_exits_at_low() {
        let (mut c, m) = ddr_controller();
        // Enough writes to trip DRAIN_HI, plus pending reads.
        for i in 0..DRAIN_HI as u64 {
            let w = req(i, i * 2, AccessKind::Write, 0);
            c.enqueue(w, m.decode(w.line)).unwrap();
        }
        for i in 0..4u64 {
            let r = req(100 + i, 1000 + i * 2, AccessKind::Read, 0);
            c.enqueue(r, m.decode(r.line)).unwrap();
        }
        let done = drain_all(&mut c);
        assert_eq!(done.len(), DRAIN_HI + 4);
        let first_read_pos = done
            .iter()
            .position(|d| d.kind == AccessKind::Read)
            .expect("reads complete");
        let writes_before_read = done[..first_read_pos]
            .iter()
            .filter(|d| d.kind == AccessKind::Write)
            .count();
        // Drain mode holds reads off until the queue falls to DRAIN_LO...
        assert!(
            writes_before_read >= DRAIN_HI - DRAIN_LO,
            "drain released reads early: only {writes_before_read} writes first"
        );
        // ...but exits there instead of emptying the write queue.
        assert!(
            writes_before_read < DRAIN_HI,
            "drain ran past the low watermark: {writes_before_read} writes first"
        );
    }

    #[test]
    fn refresh_closes_open_rows() {
        let (mut c, m) = ddr_controller();
        let tp = TimingParams::ddr3_1600();
        // Open a row well before the first refresh boundary.
        let a = req(1, 0, AccessKind::Read, 0);
        c.enqueue(a, m.decode(a.line)).unwrap();
        let mut out = Vec::new();
        c.advance(Cycle(tp.t_refi / 2), &mut out);
        assert_eq!(c.stats().row_misses, 1);
        // Same row again, but only after a refresh has intervened: the
        // refresh precharges every bank, so this must be a miss too.
        let b = req(2, 2, AccessKind::Read, tp.t_refi + 1);
        c.enqueue(b, m.decode(b.line)).unwrap();
        c.advance(Cycle(2 * tp.t_refi), &mut out);
        assert_eq!(out.len(), 2);
        assert!(c.stats().refreshes >= 1);
        assert_eq!(c.stats().row_misses, 2, "refresh must close the open row");
        assert_eq!(c.stats().row_hits, 0);
    }

    #[test]
    fn command_counters_are_consistent() {
        let (mut c, m) = ddr_controller();
        let org = Organization::ddr3();
        let lines_per_bank_stripe = org.lines_per_row * org.channels as u64;
        let conflict_line = lines_per_bank_stripe * org.banks as u64; // row 1, bank 0
        let a = req(1, 0, AccessKind::Read, 0);
        let h = req(2, 2, AccessKind::Read, 0); // hit on row 0
        let b = req(3, conflict_line, AccessKind::Read, 0); // conflict
        for r in [a, h, b] {
            c.enqueue(r, m.decode(r.line)).unwrap();
        }
        drain_all(&mut c);
        let st = c.stats();
        // Every row miss issues exactly one ACT; the conflicting read is
        // the only one that had to close an open row first.
        assert_eq!(st.activates, st.row_misses);
        assert_eq!(st.row_misses, 2);
        assert_eq!(st.row_conflicts, 1);
        assert!(st.precharges >= 1);
        assert!(st.row_conflicts <= st.row_misses);
        // Each enqueue recorded one occupancy sample.
        assert_eq!(st.read_q_occupancy.total(), 3);
        assert_eq!(st.write_q_occupancy.total(), 0);
    }

    #[test]
    fn drain_events_counted_once_per_transition() {
        let (mut c, m) = ddr_controller();
        for i in 0..DRAIN_HI as u64 {
            let w = req(i, i * 2, AccessKind::Write, 0);
            c.enqueue(w, m.decode(w.line)).unwrap();
        }
        drain_all(&mut c);
        assert_eq!(c.stats().drain_events, 1, "one hi-watermark crossing");
    }

    #[test]
    fn stats_export_covers_all_counters() {
        let (mut c, m) = ddr_controller();
        for i in 0..4u64 {
            let r = req(i, i * 2, AccessKind::Read, 0);
            c.enqueue(r, m.decode(r.line)).unwrap();
        }
        drain_all(&mut c);
        let mut reg = StatRegistry::new();
        c.stats().export_telemetry(&mut reg, "dram.test.ch0");
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("dram.test.ch0", "reads").unwrap().as_counter(),
            Some(4)
        );
        let occ = snap
            .get("dram.test.ch0", "read_q_occupancy")
            .unwrap()
            .as_histogram()
            .unwrap();
        assert_eq!(occ.total(), 4);
        assert!(snap.get("dram.test.ch0", "row_hit_ratio").is_some());
    }

    #[test]
    fn bandwidth_saturation_orders_hbm_above_ddr() {
        // Stream reads through one DDR channel vs one HBM channel: the HBM
        // channel must sustain clearly higher throughput.
        let serve = |tp: TimingParams, org: Organization| {
            let mut c = ChannelController::new(tp, org.banks);
            let m = AddressMapping::new(org);
            let mut out = Vec::new();
            let mut issued = 0u64;
            let mut t = 0u64;
            while t < 100_000 {
                t += 50;
                while c.can_accept(AccessKind::Read) && issued < 100_000 {
                    let r = req(issued, issued * org.channels as u64, AccessKind::Read, t);
                    let coord = m.decode(r.line);
                    // All mapped to channel 0 by construction.
                    assert_eq!(coord.channel, 0);
                    c.enqueue(r, coord).unwrap();
                    issued += 1;
                }
                c.advance(Cycle(t), &mut out);
            }
            out.len() as f64
        };
        let ddr = serve(TimingParams::ddr3_1600(), Organization::ddr3());
        let hbm = serve(TimingParams::hbm_1000(), Organization::hbm());
        // Per-channel the HBM advantage is the shorter burst (tCCD); the
        // big aggregate win comes from 8 channels vs 2 (memory.rs test).
        assert!(
            hbm > ddr * 1.1,
            "per-channel HBM throughput ({hbm}) should beat DDR ({ddr})"
        );
    }
}
