//! A pool of GBU devices advanced on one simulated clock with
//! shared-DRAM bandwidth contention.
//!
//! Each device slot executes one frame at a time in the paper's
//! asynchronous `GBU_render_image` / `GBU_check_status` programming
//! model. The run itself ([`gbu_core::Gbu::run`]) is computed once per
//! distinct (view, scope) by the engine's [`DeviceMemo`]; the slot holds
//! the device for the run's occupancy. The pool owns the *wall* clock;
//! every busy device makes progress at a rate `≤ 1` device-cycle per
//! wall-cycle. When the sum of the active frames' feature-fetch
//! bandwidths exceeds the GBUs' share of LPDDR bandwidth (the paper's
//! Limitation 2 — the GBU shares DRAM with the GPU), every active device
//! is slowed by the same factor, exactly like fair-share memory
//! throttling. Rates only change at submit/completion boundaries, so
//! advancing event-to-event is exact, not a discretisation.

use crate::memo::{DeviceMemo, RunRecord, RunScope};
use crate::scheduler::FrameTicket;
use crate::session::PreparedView;
use gbu_gpu::GpuConfig;
use gbu_hw::GbuConfig;
use std::sync::Arc;

/// A frame completed by the pool, tagged with its ticket and wall-clock
/// completion time.
#[derive(Debug)]
pub struct PoolCompletion {
    /// The admitted request this frame fulfilled.
    pub ticket: FrameTicket,
    /// Index of the device that rendered it.
    pub device: usize,
    /// Wall cycle at which it completed.
    pub completed_at: u64,
    /// The run's counters, and its image when the memo retains images.
    pub run: RunRecord,
}

/// One device run to start on an idle device: a whole frame or one
/// shard of it, with an optional host-preprocessing charge.
#[derive(Debug, Clone, Copy)]
pub struct DeviceJob<'a> {
    /// The frame's prepared view.
    pub view: &'a Arc<PreparedView>,
    /// Which part of the frame the device renders.
    pub scope: RunScope<'a>,
    /// The admitted request the run serves.
    pub ticket: FrameTicket,
    /// Host Step-❶/❷ device-cycles the run occupies the device for
    /// before GBU progress starts (0: no charge).
    pub prep_cycles: u64,
}

#[derive(Debug)]
struct ActiveFrame {
    ticket: FrameTicket,
    /// The run being executed.
    run: RunRecord,
    /// GBU device-cycles of the run still to execute (after `prep`).
    remaining: u64,
    /// Feature-fetch bandwidth demand in bytes per *device* cycle.
    demand: f64,
    /// Fractional device-cycle accumulator (contention rates are not
    /// integer, the device clock is).
    residue: f64,
    /// Wall cycle the frame was submitted at (start of the busy segment
    /// telemetry records on completion).
    started: u64,
    /// Host-preprocessing device-cycles still to burn before the GBU
    /// makes progress — the Step-❶/❷ charge of
    /// [`DeviceJob::prep_cycles`]. The slot is occupied (and busy, and
    /// subject to DRAM contention) while the host GPU produces the
    /// frame's artifacts; 0 without a charge.
    prep: u64,
}

/// N GBU devices on one simulated clock with a shared DRAM budget.
#[derive(Debug)]
pub struct DevicePool {
    /// One slot per device: the run it executes, `None` when idle.
    active: Vec<Option<ActiveFrame>>,
    clock: u64,
    /// DRAM bytes per wall cycle available to the pool (the GBUs' share
    /// of the edge SoC's LPDDR bandwidth).
    bytes_per_cycle: f64,
    busy_device_cycles: u64,
    /// Device-cycles lost to DRAM fair-share arbitration so far: busy
    /// wall time each device spent *not* progressing because the
    /// contention rate was below 1.
    dram_stall_cycles: f64,
    recorder: gbu_telemetry::Recorder,
    /// Cluster lane this pool serves as, for span labels (`None` when
    /// the pool is a standalone backend).
    lane: Option<u32>,
    /// Restart generation of this pool's lane: 0 for the first lifetime,
    /// bumped by the cluster on every fleet restore so `device_busy`
    /// spans distinguish pre- and post-restart work.
    lane_generation: u32,
    /// Registry handle acquired once at attach (gauge updates on the
    /// advance path are then an atomic store).
    stall_gauge: gbu_telemetry::Gauge,
}

impl DevicePool {
    /// Creates a pool of `devices` GBUs. The pool's DRAM budget is
    /// `dram_share` of the host GPU's LPDDR bandwidth (the co-simulation
    /// charges the GPU's preprocessing streams the rest; `gbu_core::system`
    /// uses 0.5 for one device).
    pub fn new(devices: usize, gbu: &GbuConfig, gpu: &GpuConfig, dram_share: f64) -> Self {
        assert!(devices > 0, "a pool needs at least one device");
        assert!(dram_share > 0.0 && dram_share <= 1.0, "dram_share in (0, 1]");
        let bytes_per_cycle = gpu.dram_bytes_per_s() * dram_share / (gbu.clock_ghz * 1e9);
        Self {
            active: (0..devices).map(|_| None).collect(),
            clock: 0,
            bytes_per_cycle,
            busy_device_cycles: 0,
            dram_stall_cycles: 0.0,
            recorder: gbu_telemetry::Recorder::disabled(),
            lane: None,
            lane_generation: 0,
            stall_gauge: gbu_telemetry::Gauge::default(),
        }
    }

    /// Sets the lane restart generation stamped onto future
    /// `device_busy` spans (cluster lanes only; standalone pools stay
    /// at generation 0 and omit the label).
    pub fn set_lane_generation(&mut self, generation: u32) {
        self.lane_generation = generation;
    }

    /// Attaches a telemetry recorder: every frame completion records a
    /// `device_busy` span `[submit, completion]`, and DRAM-arbitration
    /// stalls accumulate into a `serve.dram_stall_cycles` gauge (lane-
    /// suffixed when this pool is one cluster lane, so lanes don't
    /// clobber each other).
    pub fn attach_recorder(&mut self, recorder: gbu_telemetry::Recorder, lane: Option<u32>) {
        self.stall_gauge = match lane {
            Some(l) => recorder.gauge(&format!("serve.lane{l}.dram_stall_cycles")),
            None => recorder.gauge("serve.dram_stall_cycles"),
        };
        self.recorder = recorder;
        self.lane = lane;
    }

    /// Device-cycles lost to DRAM fair-share arbitration so far
    /// (busy wall time at a contention rate below 1).
    pub fn dram_stall_cycles(&self) -> f64 {
        self.dram_stall_cycles
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// `true` when the pool has no devices (never; pools are non-empty).
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Current wall cycle.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Index of an idle device, if any.
    pub fn idle_device(&self) -> Option<usize> {
        self.active.iter().position(Option::is_none)
    }

    /// Number of devices currently rendering.
    pub fn busy_count(&self) -> usize {
        self.active.iter().filter(|a| a.is_some()).count()
    }

    /// Mean device utilization so far: busy device-cycles over available
    /// device-cycles.
    pub fn utilization(&self) -> f64 {
        if self.clock == 0 {
            return 0.0;
        }
        self.busy_device_cycles as f64 / (self.clock as f64 * self.len() as f64)
    }

    /// Starts `job` on device `device` (must be idle), taking its run
    /// from `memo`. The frame occupies the device for
    /// `job.prep_cycles` device-cycles of host preprocessing, then for
    /// the run's occupancy; its feature traffic streams over that whole
    /// window (the host writes the frame's artifacts while it holds the
    /// slot).
    ///
    /// # Panics
    ///
    /// Panics if the device still has a frame in flight — callers only
    /// dispatch to [`DevicePool::idle_device`] slots.
    pub fn submit(&mut self, device: usize, job: DeviceJob<'_>, memo: &mut DeviceMemo) {
        assert!(self.active[device].is_none(), "submit requires an idle device");
        let run = memo.run(job.view, job.scope).clone();
        let prep = job.prep_cycles;
        let demand = run.dram_bytes as f64 / (run.occupancy + prep).max(1) as f64;
        self.active[device] = Some(ActiveFrame {
            ticket: job.ticket,
            remaining: run.occupancy,
            run,
            demand,
            residue: 0.0,
            started: self.clock,
            prep,
        });
    }

    /// Device-cycles of work still executing on each device (zero for
    /// idle ones), written into `out` (cleared first) in device order —
    /// the per-device backlog the in-flight-aware admission estimate
    /// seeds its earliest-free schedule with. Optimistic (device cycles,
    /// not contention-stretched wall cycles), so a rejection remains a
    /// proof of unmeetability.
    pub fn in_flight_backlog_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(
            self.active.iter().map(|slot| slot.as_ref().map_or(0, |a| a.prep + a.remaining)),
        );
    }

    /// The ticket currently rendering on `device`, if any.
    pub fn active_ticket(&self, device: usize) -> Option<&FrameTicket> {
        self.active[device].as_ref().map(|a| &a.ticket)
    }

    /// Full device occupancy (`max(D&B, Tile PE)` cycles) of the frame
    /// in flight on `device`, fixed at submission — `None` when idle.
    /// The cluster backend records this per shard as the
    /// measured-service feedback behind
    /// `gbu_render::shard::ShardStrategy::Measured`.
    pub fn in_flight_occupancy(&self, device: usize) -> Option<u64> {
        self.active[device].as_ref().map(|a| a.run.occupancy)
    }

    /// Cancels the frame in flight on `device` (the device's
    /// `cancel_in_flight` hook), freeing the slot immediately. Returns the
    /// cancelled ticket, or `None` when the device was idle (no-op-safe).
    ///
    /// Device cycles already spent on the cancelled frame stay counted as
    /// busy time — cancellation reclaims the future, not the past.
    pub fn cancel(&mut self, device: usize) -> Option<FrameTicket> {
        self.active[device].take().map(|a| a.ticket)
    }

    /// Progress rate (device-cycles per wall-cycle) of every busy device
    /// under the current contention: 1 when aggregate demand fits the
    /// DRAM budget, uniformly scaled down otherwise.
    fn rate(&self) -> f64 {
        let total: f64 = self.active.iter().flatten().map(|a| a.demand).sum();
        if total <= self.bytes_per_cycle {
            1.0
        } else {
            self.bytes_per_cycle / total
        }
    }

    /// Wall cycles until the earliest in-flight frame completes at the
    /// current rates, or `None` when every device is idle.
    pub fn next_completion_dt(&self) -> Option<u64> {
        let rate = self.rate();
        self.active
            .iter()
            .flatten()
            .map(|a| {
                let remaining = (a.prep + a.remaining) as f64 - a.residue;
                (remaining / rate).ceil().max(1.0) as u64
            })
            .min()
    }

    /// Advances the wall clock by `wall_dt` cycles, progressing every busy
    /// device at the shared contention rate, and collects any frames that
    /// complete, in device order. The wall clock is strictly monotone:
    /// `wall_dt == 0` is rejected.
    pub fn advance(&mut self, wall_dt: u64) -> Vec<PoolCompletion> {
        assert!(wall_dt > 0, "the simulated clock must move forward");
        let rate = self.rate();
        self.clock += wall_dt;
        let clock = self.clock;

        let mut done = Vec::new();
        let mut total_busy = 0u64;
        for (device, slot) in self.active.iter_mut().enumerate() {
            let Some(a) = slot.as_mut() else { continue };
            // Busy credit stops when the frame finishes, even if the
            // caller overshoots the completion event.
            let remaining = (a.prep + a.remaining) as f64 - a.residue;
            let needed_wall = (remaining / rate).ceil().max(0.0) as u64;
            total_busy += wall_dt.min(needed_wall);
            let progress = wall_dt as f64 * rate + a.residue;
            let whole = progress.floor();
            a.residue = progress - whole;
            // Host-prep cycles burn first; only the surplus progresses
            // the GBU.
            let prep_burn = (whole as u64).min(a.prep);
            a.prep -= prep_burn;
            a.remaining = a.remaining.saturating_sub(whole as u64 - prep_burn);
            if a.remaining > 0 {
                continue;
            }
            let a = slot.take().expect("slot checked busy above");
            if self.recorder.is_enabled() {
                let labels = gbu_telemetry::Labels {
                    lane: self.lane,
                    lane_generation: self.lane.map(|_| self.lane_generation),
                    device: Some(device as u32),
                    session: Some(a.ticket.session.index() as u32),
                    frame: Some(a.ticket.id.index()),
                    ..gbu_telemetry::Labels::default()
                };
                self.recorder.span(
                    "device_busy",
                    gbu_telemetry::Domain::Cycles,
                    a.started,
                    clock,
                    None,
                    labels,
                );
            }
            done.push(PoolCompletion { ticket: a.ticket, device, completed_at: clock, run: a.run });
        }
        self.busy_device_cycles += total_busy;
        // Fair-share arbitration below rate 1 means every busy wall
        // cycle progressed the device by only `rate` device-cycles.
        if rate < 1.0 {
            self.dram_stall_cycles += total_busy as f64 * (1.0 - rate);
            self.stall_gauge.set(self.dram_stall_cycles as u64);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExecMode;
    use crate::session::{Session, SessionContent, SessionSpec};
    use crate::QosTarget;

    fn prepared() -> Session {
        Session::prepare(
            SessionSpec {
                name: "t".into(),
                content: SessionContent::Synthetic { seed: 3, gaussians: 80 },
                qos: QosTarget::VR_72,
                frames: 4,
                phase: 0.0,
                exec: ExecMode::Unsharded,
            },
            &GbuConfig::paper(),
        )
    }

    fn memo() -> DeviceMemo {
        DeviceMemo::new(&GbuConfig::paper(), false, &gbu_telemetry::Recorder::disabled())
    }

    /// Frame `view` of `session`, unscoped, with a `prep` charge.
    fn job(session: &Session, view: u32, ticket: FrameTicket, prep: u64) -> DeviceJob<'_> {
        DeviceJob {
            view: session.view_handle(view),
            scope: RunScope::Frame,
            ticket,
            prep_cycles: prep,
        }
    }

    fn ticket(n: u32) -> FrameTicket {
        FrameTicket {
            id: crate::FrameId::from_index(u64::from(n)),
            session: crate::SessionId::from_index(0),
            frame: n,
            arrival: 0,
            deadline: u64::MAX,
        }
    }

    #[test]
    fn single_frame_completes_at_base_duration() {
        let session = prepared();
        let mut memo = memo();
        let mut pool = DevicePool::new(1, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        pool.submit(0, job(&session, 0, ticket(0), 0), &mut memo);
        let dt = pool.next_completion_dt().expect("one frame in flight");
        let done = pool.advance(dt);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].completed_at, pool.clock());
        assert!(pool.idle_device().is_some());
    }

    #[test]
    fn clock_is_monotone_and_utilization_bounded() {
        let session = prepared();
        let mut memo = memo();
        let mut pool = DevicePool::new(2, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        pool.submit(0, job(&session, 0, ticket(0), 0), &mut memo);
        pool.submit(1, job(&session, 1, ticket(1), 0), &mut memo);
        let mut last = pool.clock();
        let mut completions = 0;
        while pool.busy_count() > 0 {
            let dt = pool.next_completion_dt().unwrap();
            completions += pool.advance(dt).len();
            assert!(pool.clock() > last, "clock must advance");
            last = pool.clock();
        }
        assert_eq!(completions, 2);
        let u = pool.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn prep_cycles_extend_completion_exactly() {
        let session = prepared();
        let mut memo = memo();
        let mut plain = DevicePool::new(1, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        plain.submit(0, job(&session, 0, ticket(0), 0), &mut memo);
        let base_dt = plain.next_completion_dt().expect("one frame in flight");

        // The same frame with an up-front host-preprocessing charge
        // completes exactly `prep` wall cycles later (uncontended pool:
        // one wall cycle burns one device cycle).
        let prep = 12_345u64;
        let mut charged = DevicePool::new(1, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        charged.submit(0, job(&session, 0, ticket(0), prep), &mut memo);
        let charged_dt = charged.next_completion_dt().expect("one frame in flight");
        assert_eq!(charged_dt, base_dt + prep);

        // Advancing by only the prep burns the charge without touching
        // the GBU frame: the remaining time is the uncharged duration.
        let none = charged.advance(prep);
        assert!(none.is_empty());
        assert_eq!(charged.next_completion_dt().expect("still in flight"), base_dt);
        let done = charged.advance(base_dt);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn zero_prep_is_the_plain_submit_path() {
        // Without a charge the frame holds an uncontended device for
        // exactly the occupancy a direct `GBU_render_image` schedules.
        let session = prepared();
        let view = session.view(0);
        let mut gbu = gbu_core::Gbu::new(GbuConfig::paper());
        gbu.render_image(&view.splats, &view.bins, &view.camera, gbu_math::Vec3::ZERO).unwrap();
        let mut memo = memo();
        let mut pool = DevicePool::new(1, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        pool.submit(0, job(&session, 0, ticket(0), 0), &mut memo);
        assert_eq!(pool.next_completion_dt(), gbu.in_flight_remaining());
        assert_eq!(pool.in_flight_occupancy(0), gbu.in_flight_occupancy());
    }

    #[test]
    fn starved_bandwidth_slows_completion() {
        let session = prepared();
        let mut memo = memo();
        // A pool whose DRAM share is tiny: the same frame must take
        // longer in wall cycles than on an uncontended pool.
        let mut fat = DevicePool::new(1, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        fat.submit(0, job(&session, 0, ticket(0), 0), &mut memo);
        let fat_dt = fat.next_completion_dt().unwrap();

        let mut starved = DevicePool::new(1, &GbuConfig::paper(), &GpuConfig::orin_nx(), 1e-6);
        starved.submit(0, job(&session, 0, ticket(0), 0), &mut memo);
        let starved_dt = starved.next_completion_dt().unwrap();
        assert!(
            starved_dt > fat_dt,
            "bandwidth starvation must stretch the frame: {starved_dt} vs {fat_dt}"
        );
    }

    #[test]
    fn contention_couples_devices() {
        let session = prepared();
        let mut memo = memo();
        // Low-bandwidth pool: two concurrent frames must each take longer
        // than the same frame alone.
        let share = 1e-4;
        let mut solo = DevicePool::new(2, &GbuConfig::paper(), &GpuConfig::orin_nx(), share);
        solo.submit(0, job(&session, 0, ticket(0), 0), &mut memo);
        let solo_dt = solo.next_completion_dt().unwrap();

        let mut pair = DevicePool::new(2, &GbuConfig::paper(), &GpuConfig::orin_nx(), share);
        pair.submit(0, job(&session, 0, ticket(0), 0), &mut memo);
        pair.submit(1, job(&session, 0, ticket(1), 0), &mut memo);
        let pair_dt = pair.next_completion_dt().unwrap();
        assert!(
            pair_dt > solo_dt,
            "two frames sharing starved DRAM must both slow down: {pair_dt} vs {solo_dt}"
        );
    }

    #[test]
    fn overshoot_does_not_inflate_utilization() {
        let session = prepared();
        let mut memo = memo();
        let mut pool = DevicePool::new(1, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        pool.submit(0, job(&session, 0, ticket(0), 0), &mut memo);
        let needed = pool.next_completion_dt().unwrap();
        // Step 100x past the completion event: the device was busy for
        // only ~1% of the interval and utilization must say so.
        let done = pool.advance(needed * 100);
        assert_eq!(done.len(), 1);
        let u = pool.utilization();
        assert!(u <= 0.02, "overshoot must not count as busy time: {u}");
    }

    #[test]
    fn cancel_frees_the_device_and_returns_the_ticket() {
        let session = prepared();
        let mut memo = memo();
        let mut pool = DevicePool::new(1, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        // Idle device: no-op.
        assert!(pool.cancel(0).is_none());
        pool.submit(0, job(&session, 0, ticket(7), 0), &mut memo);
        assert_eq!(pool.active_ticket(0).unwrap().frame, 7);
        let dt = pool.next_completion_dt().unwrap();
        // Render half the frame, then cancel it.
        pool.advance((dt / 2).max(1));
        let cancelled = pool.cancel(0).expect("frame was in flight");
        assert_eq!(cancelled.frame, 7);
        assert!(pool.active_ticket(0).is_none());
        assert_eq!(pool.idle_device(), Some(0), "slot is free immediately");
        assert!(pool.next_completion_dt().is_none());
        // The spent cycles still count as busy time.
        assert!(pool.utilization() > 0.0);
        // The freed device accepts new work.
        pool.submit(0, job(&session, 1, ticket(8), 0), &mut memo);
        let done = pool.advance(pool.next_completion_dt().unwrap());
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].ticket.frame, 8);
    }

    #[test]
    #[should_panic(expected = "clock must move forward")]
    fn zero_advance_is_rejected() {
        let mut pool = DevicePool::new(1, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        pool.advance(0);
    }
}
