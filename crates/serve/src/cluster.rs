//! Multi-pool scene sharding: fan one frame's tile-row shards out to
//! several [`DevicePool`]s on a shared simulated clock and merge the
//! partial frame buffers when the last shard lands.
//!
//! One heavy scene can exceed what a single device pool sustains at
//! AR/VR deadlines. A [`ShardedPool`] treats a frame as N tile-range
//! shards (planned by `gbu_render::shard::ShardPlan`): shard `s` is
//! submitted to pool `s` through the tile-range-scoped device entry
//! point, so each shard charges only its range's D&B work and DRAM
//! feature traffic against *its own* pool's bandwidth budget — the
//! multi-GPU deployment where every shard lane is a separate edge SoC.
//! All pools advance in lockstep on one wall clock; the frame completes
//! only when every shard has landed, at which point the partial frame
//! buffers are reassembled into an image bit-identical to the unsharded
//! device render, and the per-shard service times are reported as an
//! imbalance figure (critical path over mean).

use crate::backend::{ExecBackend, ExecCompletion, ExecMode, FrameDone, Submission};
use crate::event::SessionId;
use crate::memo::{DeviceMemo, RunScope};
use crate::pool::{DeviceJob, DevicePool, PoolCompletion};
use crate::scheduler::FrameTicket;
use crate::session::PreparedView;
use gbu_gpu::GpuConfig;
use gbu_hw::GbuConfig;
use gbu_render::shard::{ShardFeedback, ShardPlan, ShardStrategy};
use gbu_render::FrameBuffer;
use std::sync::Arc;

/// A frame completed by the cluster: all shards landed and merged.
#[derive(Debug)]
pub struct ShardedCompletion {
    /// The request this frame fulfilled.
    pub ticket: FrameTicket,
    /// Wall cycle at which the *last* shard landed.
    pub completed_at: u64,
    /// The merged image — bit-identical to an unsharded device render.
    pub image: FrameBuffer,
    /// Wall-cycle service time of each shard (submit → land), indexed by
    /// shard. The maximum is the frame's critical path.
    pub shard_cycles: Vec<u64>,
    /// Summed off-chip feature traffic across shards. Each shard fetched
    /// only its tile range, so this tracks (and, where Gaussians straddle
    /// shard boundaries, slightly exceeds) the unsharded frame's traffic.
    pub dram_bytes: u64,
    /// Measured imbalance: max shard service time over mean (1.0 =
    /// perfectly balanced shards).
    pub imbalance: f64,
}

#[derive(Debug)]
struct PendingFrame {
    ticket: FrameTicket,
    plan: ShardPlan,
    width: u32,
    height: u32,
    submitted_at: u64,
    /// One slot per shard, filled as pools report completions.
    parts: Vec<Option<PoolCompletion>>,
}

/// N single-frame shard lanes, each its own [`DevicePool`], advanced in
/// lockstep on one simulated wall clock.
#[derive(Debug)]
pub struct ShardedPool {
    pools: Vec<DevicePool>,
    strategy: ShardStrategy,
    pending: Vec<PendingFrame>,
    /// Device runs of every lane, images retained for the merge.
    memo: DeviceMemo,
}

impl ShardedPool {
    /// Creates a cluster of `shards` pools with `devices_per_pool` GBUs
    /// each. Every pool owns its own DRAM budget (`dram_share` of one
    /// host GPU's LPDDR bandwidth) — shard lanes model separate edge
    /// SoCs, not co-tenants of one bus.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0` (and transitively when
    /// `devices_per_pool == 0`).
    pub fn new(
        shards: usize,
        devices_per_pool: usize,
        strategy: ShardStrategy,
        gbu: &GbuConfig,
        gpu: &GpuConfig,
        dram_share: f64,
    ) -> Self {
        assert!(shards > 0, "a cluster needs at least one shard lane");
        Self {
            pools: (0..shards)
                .map(|_| DevicePool::new(devices_per_pool, gbu, gpu, dram_share))
                .collect(),
            strategy,
            pending: Vec::new(),
            memo: DeviceMemo::new(gbu, true, &gbu_telemetry::Recorder::disabled()),
        }
    }

    /// Number of shard lanes.
    pub fn shard_count(&self) -> usize {
        self.pools.len()
    }

    /// The shard strategy frames are split with.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Current wall cycle (all lanes advance in lockstep).
    pub fn clock(&self) -> u64 {
        self.pools[0].clock()
    }

    /// Number of frames with at least one shard still in flight.
    pub fn pending_frames(&self) -> usize {
        self.pending.len()
    }

    /// `true` when every shard lane has an idle device for a new frame.
    pub fn can_accept(&self) -> bool {
        self.pools.iter().all(|p| p.idle_device().is_some())
    }

    /// Mean device utilization across all lanes so far.
    pub fn utilization(&self) -> f64 {
        self.pools.iter().map(DevicePool::utilization).sum::<f64>() / self.pools.len() as f64
    }

    /// Splits `view` into tile-row shards and fans them out, one shard
    /// per lane, all stamped with `ticket`. The frame will complete only
    /// when every shard lands.
    ///
    /// Returns the plan's predicted imbalance (max planned shard cost
    /// over mean), which the serving layer can report before the frame
    /// even runs.
    ///
    /// # Panics
    ///
    /// Panics when some lane has no idle device (check
    /// [`ShardedPool::can_accept`] first) or when a frame with the same
    /// ticket id is already pending.
    pub fn submit(&mut self, view: &Arc<PreparedView>, ticket: FrameTicket) -> f64 {
        assert!(
            self.pending.iter().all(|p| p.ticket.id != ticket.id),
            "ticket {:?} already has shards in flight",
            ticket.id
        );
        let plan = ShardPlan::new(self.strategy, &view.bins, self.pools.len());
        let submitted_at = self.clock();
        for (s, pool) in self.pools.iter_mut().enumerate() {
            let device = pool.idle_device().expect("submit requires an idle device per lane");
            let scope = RunScope::Shard { plan: &plan, shard: s };
            pool.submit(device, DeviceJob { view, scope, ticket, prep_cycles: 0 }, &mut self.memo);
        }
        let predicted = plan.planned_imbalance();
        self.pending.push(PendingFrame {
            ticket,
            plan,
            width: view.camera.width,
            height: view.camera.height,
            submitted_at,
            parts: (0..self.pools.len()).map(|_| None).collect(),
        });
        predicted
    }

    /// Wall cycles until the next shard lands anywhere in the cluster,
    /// or `None` when everything is idle.
    pub fn next_completion_dt(&self) -> Option<u64> {
        self.pools.iter().filter_map(DevicePool::next_completion_dt).min()
    }

    /// Advances every lane by `wall_dt` cycles in lockstep, collecting
    /// the frames whose *last* shard landed during the interval. Frames
    /// with shards still in flight stay pending.
    ///
    /// # Panics
    ///
    /// Panics when `wall_dt == 0` (the shared clock must move forward).
    pub fn advance(&mut self, wall_dt: u64) -> Vec<ShardedCompletion> {
        for (s, pool) in self.pools.iter_mut().enumerate() {
            for completion in pool.advance(wall_dt) {
                let pending = self
                    .pending
                    .iter_mut()
                    .find(|p| p.ticket.id == completion.ticket.id)
                    .expect("every shard completion belongs to a pending frame");
                debug_assert!(pending.parts[s].is_none(), "one completion per shard lane");
                pending.parts[s] = Some(completion);
            }
        }

        let mut done = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].parts.iter().all(Option::is_some) {
                done.push(Self::seal(self.pending.swap_remove(i)));
            } else {
                i += 1;
            }
        }
        // swap_remove disorders the pending list; completions are sorted
        // back into landing order for deterministic event streams.
        done.sort_by_key(|c| (c.completed_at, c.ticket.id));
        done
    }

    /// Merges a fully-landed frame's shard partials into one completion.
    fn seal(pending: PendingFrame) -> ShardedCompletion {
        let PendingFrame { ticket, plan, width, height, submitted_at, parts } = pending;
        let parts: Vec<PoolCompletion> =
            parts.into_iter().map(|p| p.expect("all shards landed")).collect();
        let completed_at = parts.iter().map(|p| p.completed_at).max().expect("at least one shard");
        let shard_cycles: Vec<u64> = parts.iter().map(|p| p.completed_at - submitted_at).collect();
        let dram_bytes = parts.iter().map(|p| p.run.dram_bytes).sum();
        let imbalance = crate::backend::shard_imbalance(&shard_cycles).expect("at least one shard");
        let image = merge_part_images(&plan, width, height, &parts).expect("images are retained");
        ShardedCompletion { ticket, completed_at, image, shard_cycles, dram_bytes, imbalance }
    }
}

/// Reassembles a frame from its shard partials: every shard's device
/// image is full-size with background outside its rows; copy each
/// shard's row bands over shard 0's image. Bit-identical to the
/// unsharded device render (the per-row kernels are the same code).
/// `None` when the runs carry no images (the memo does not retain them).
fn merge_part_images(
    plan: &ShardPlan,
    width: u32,
    height: u32,
    parts: &[PoolCompletion],
) -> Option<FrameBuffer> {
    let mut image = FrameBuffer::clone(parts[0].run.image.as_deref()?);
    let w = width as usize;
    for (s, part) in parts.iter().enumerate().skip(1) {
        let src = part.run.image.as_deref()?;
        for &ty in &plan.shards[s].rows {
            let y0 = ty * plan.tile_size;
            let y1 = ((ty + 1) * plan.tile_size).min(height);
            let lo = y0 as usize * w;
            let hi = y1 as usize * w;
            image.pixels_mut()[lo..hi].copy_from_slice(&src.pixels()[lo..hi]);
        }
    }
    Some(image)
}

/// One sharded frame mid-flight on the cluster backend.
#[derive(Debug)]
struct PendingMixed {
    ticket: FrameTicket,
    plan: ShardPlan,
    width: u32,
    height: u32,
    submitted_at: u64,
    /// Lane each shard executes on (`lane_of_shard[s]`); a frame's
    /// shards occupy distinct lanes.
    lane_of_shard: Vec<usize>,
    /// Device occupancy (`max(D&B, Tile PE)` cycles) of each shard,
    /// read at submission — the contention-free measured service that
    /// feeds [`ShardStrategy::Measured`] replanning.
    occupancy_of_shard: Vec<u64>,
    /// One slot per shard, filled as lanes report completions.
    parts: Vec<Option<PoolCompletion>>,
}

/// The cluster-mode [`ExecBackend`]: N independent [`DevicePool`] lanes
/// on one lockstep wall clock, executing [`ExecMode::Unsharded`] frames
/// on a single lane and [`ExecMode::Sharded`] frames fanned over the
/// least-busy `shards` lanes — mixed freely on one clock.
///
/// Sharded frames report one [`ExecCompletion::Shard`] per landed shard
/// before the merged [`ExecCompletion::Frame`]; per-session
/// [`ShardFeedback`] (shard rows + measured occupancies) is retained so
/// [`ShardStrategy::Measured`] can rebalance each next frame's plan.
#[derive(Debug)]
pub struct ClusterBackend {
    lanes: Vec<DevicePool>,
    devices_per_lane: usize,
    pending: Vec<PendingMixed>,
    /// Last executed plan + measured shard occupancies, by session index.
    feedback: Vec<Option<ShardFeedback>>,
    /// Which lanes are up. A dead lane is masked, never removed: its
    /// pool keeps ticking (idle) so the lockstep clock and stable lane
    /// indices survive any kill/restore schedule.
    alive: Vec<bool>,
    /// Restart generation per lane: 0 for the first lifetime, bumped on
    /// every restore.
    generation: Vec<u32>,
    /// Preferred home lane per session index (the fleet controller's
    /// migration lever); advisory — a dead or full home falls back to
    /// least-busy placement.
    affinity: Vec<Option<usize>>,
}

impl ClusterBackend {
    /// Creates a cluster of `lanes` pools with `devices_per_lane` GBUs
    /// each; every lane owns its own DRAM budget (`dram_share` of one
    /// host GPU's LPDDR bandwidth) — lanes model separate edge SoCs.
    ///
    /// # Panics
    ///
    /// Panics when `lanes == 0` (and transitively when
    /// `devices_per_lane == 0`).
    pub fn new(
        lanes: usize,
        devices_per_lane: usize,
        gbu: &GbuConfig,
        gpu: &GpuConfig,
        dram_share: f64,
    ) -> Self {
        assert!(lanes > 0, "a cluster needs at least one lane");
        Self {
            lanes: (0..lanes)
                .map(|_| DevicePool::new(devices_per_lane, gbu, gpu, dram_share))
                .collect(),
            devices_per_lane,
            pending: Vec::new(),
            feedback: Vec::new(),
            alive: vec![true; lanes],
            generation: vec![0; lanes],
            affinity: Vec::new(),
        }
    }

    /// The measured feedback retained for `session`, if any frame of its
    /// has completed sharded yet.
    pub fn session_feedback(&self, session: SessionId) -> Option<&ShardFeedback> {
        self.feedback.get(session.index()).and_then(Option::as_ref)
    }

    /// Live lanes with an idle device, ordered by (busy devices, lane
    /// index): the deterministic placement order for new frames.
    fn placement_order(&self) -> Vec<usize> {
        let mut open: Vec<usize> = (0..self.lanes.len())
            .filter(|&l| self.alive[l] && self.lanes[l].idle_device().is_some())
            .collect();
        open.sort_by_key(|&l| (self.lanes[l].busy_count(), l));
        open
    }
}

impl ExecBackend for ClusterBackend {
    fn clock(&self) -> u64 {
        self.lanes[0].clock()
    }

    fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    fn device_count(&self) -> usize {
        self.lanes.len() * self.devices_per_lane
    }

    fn in_flight_frames(&self) -> usize {
        let shard_busy: usize =
            self.pending.iter().map(|p| p.parts.iter().filter(|part| part.is_none()).count()).sum();
        let busy: usize = self.lanes.iter().map(DevicePool::busy_count).sum();
        busy - shard_busy + self.pending.len()
    }

    fn utilization(&self) -> f64 {
        self.lanes.iter().map(DevicePool::utilization).sum::<f64>() / self.lanes.len() as f64
    }

    fn can_accept(&self, mode: ExecMode) -> bool {
        let open = self.open_lane_count();
        mode.lanes_needed() <= open && mode.lanes_needed() >= 1
    }

    fn submit(&mut self, job: Submission<'_>, memo: &mut DeviceMemo) -> usize {
        let Submission { view, ticket, mode, prep_cycles } = job;
        match mode {
            ExecMode::Unsharded => {
                let home = self
                    .affinity
                    .get(ticket.session.index())
                    .copied()
                    .flatten()
                    .filter(|&l| self.alive[l] && self.lanes[l].idle_device().is_some());
                let lane = home.unwrap_or_else(|| {
                    *self
                        .placement_order()
                        .first()
                        .expect("submit requires a lane with an idle device")
                });
                let device =
                    self.lanes[lane].idle_device().expect("placement order holds open lanes");
                let job = DeviceJob { view, scope: RunScope::Frame, ticket, prep_cycles };
                self.lanes[lane].submit(device, job, memo);
                lane * self.devices_per_lane + device
            }
            ExecMode::Sharded { shards, strategy } => {
                assert!(
                    self.pending.iter().all(|p| p.ticket.id != ticket.id),
                    "ticket {:?} already has shards in flight",
                    ticket.id
                );
                let order = self.placement_order();
                assert!(
                    shards >= 1 && shards <= order.len(),
                    "a {shards}-shard frame needs that many open lanes ({} open)",
                    order.len()
                );
                let lane_of_shard: Vec<usize> = order[..shards].to_vec();
                let feedback = match strategy {
                    ShardStrategy::Measured => self
                        .feedback
                        .get(ticket.session.index())
                        .and_then(Option::as_ref)
                        // A shard-count change invalidates the old plan's
                        // per-shard measurement mapping only partially
                        // (per-row costs still transfer); keep it.
                        .cloned(),
                    _ => None,
                };
                let plan =
                    ShardPlan::with_feedback(strategy, &view.bins, shards, feedback.as_ref());
                let submitted_at = self.clock();
                let mut occupancy_of_shard = Vec::with_capacity(shards);
                let mut first_device = 0;
                for (s, &lane) in lane_of_shard.iter().enumerate() {
                    let device =
                        self.lanes[lane].idle_device().expect("placement order holds open lanes");
                    // Every shard waits for the host's full Step-❶/❷
                    // pass — prep is not divisible across shards.
                    let scope = RunScope::Shard { plan: &plan, shard: s };
                    self.lanes[lane].submit(
                        device,
                        DeviceJob { view, scope, ticket, prep_cycles },
                        memo,
                    );
                    occupancy_of_shard.push(
                        self.lanes[lane]
                            .in_flight_occupancy(device)
                            .expect("shard was just submitted"),
                    );
                    if s == 0 {
                        first_device = lane * self.devices_per_lane + device;
                    }
                }
                self.pending.push(PendingMixed {
                    ticket,
                    plan,
                    width: view.camera.width,
                    height: view.camera.height,
                    submitted_at,
                    lane_of_shard,
                    occupancy_of_shard,
                    parts: (0..shards).map(|_| None).collect(),
                });
                first_device
            }
        }
    }

    fn cancel_session(&mut self, session: SessionId) -> Vec<FrameTicket> {
        let mut cancelled = Vec::new();
        // Sharded frames first: cancel every unlanded shard on its lane,
        // discard landed partials, retire the pending entry.
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].ticket.session != session {
                i += 1;
                continue;
            }
            let p = self.pending.remove(i);
            for (s, &lane) in p.lane_of_shard.iter().enumerate() {
                if p.parts[s].is_some() {
                    continue; // this shard already landed
                }
                let device = (0..self.lanes[lane].len())
                    .find(|&d| {
                        self.lanes[lane].active_ticket(d).is_some_and(|t| t.id == p.ticket.id)
                    })
                    .expect("unlanded shard is active on its lane");
                self.lanes[lane].cancel(device).expect("active ticket was just observed");
            }
            cancelled.push(p.ticket);
        }
        // Then plain unsharded frames of the session.
        for lane in &mut self.lanes {
            for device in 0..lane.len() {
                if lane.active_ticket(device).is_some_and(|t| t.session == session) {
                    cancelled.push(lane.cancel(device).expect("active ticket was just observed"));
                }
            }
        }
        cancelled
    }

    fn next_completion_dt(&self) -> Option<u64> {
        self.lanes.iter().filter_map(DevicePool::next_completion_dt).min()
    }

    fn advance(&mut self, wall_dt: u64) -> Vec<ExecCompletion> {
        let mut shard_events = Vec::new();
        let mut unsharded_done = Vec::new();
        for (lane_idx, lane) in self.lanes.iter_mut().enumerate() {
            for completion in lane.advance(wall_dt) {
                let pending = self.pending.iter_mut().find(|p| p.ticket.id == completion.ticket.id);
                match pending {
                    Some(p) => {
                        let shard = p
                            .lane_of_shard
                            .iter()
                            .position(|&l| l == lane_idx)
                            .expect("completion lane is one of the frame's shard lanes");
                        debug_assert!(p.parts[shard].is_none(), "one completion per shard");
                        shard_events.push(ExecCompletion::Shard {
                            ticket: p.ticket,
                            shard,
                            lane: lane_idx,
                            at: completion.completed_at,
                            service_cycles: completion.completed_at - p.submitted_at,
                        });
                        p.parts[shard] = Some(completion);
                    }
                    None => unsharded_done.push(FrameDone {
                        ticket: completion.ticket,
                        completed_at: completion.completed_at,
                        image: completion.run.image,
                        shard_cycles: Vec::new(),
                    }),
                }
            }
        }

        // Seal sharded frames whose last shard just landed (in
        // submission order — all same-advance completions share one
        // timestamp, so any deterministic order is exact).
        let mut sharded_done = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].parts.iter().any(Option::is_none) {
                i += 1;
                continue;
            }
            let p = self.pending.remove(i);
            let parts: Vec<PoolCompletion> =
                p.parts.into_iter().map(|part| part.expect("all shards landed")).collect();
            let completed_at =
                parts.iter().map(|c| c.completed_at).max().expect("at least one shard");
            let shard_cycles: Vec<u64> =
                parts.iter().map(|c| c.completed_at - p.submitted_at).collect();
            let image = merge_part_images(&p.plan, p.width, p.height, &parts).map(Arc::new);
            // Retain the measurement for the session's next Measured plan.
            let idx = p.ticket.session.index();
            if self.feedback.len() <= idx {
                self.feedback.resize_with(idx + 1, || None);
            }
            self.feedback[idx] = Some(ShardFeedback {
                rows: p.plan.shards.iter().map(|s| s.rows.clone()).collect(),
                measured_cycles: p.occupancy_of_shard,
            });
            sharded_done.push(FrameDone { ticket: p.ticket, completed_at, image, shard_cycles });
        }

        shard_events
            .into_iter()
            .chain(unsharded_done.into_iter().map(ExecCompletion::Frame))
            .chain(sharded_done.into_iter().map(ExecCompletion::Frame))
            .collect()
    }

    /// Live lanes only: a dead lane contributes no capacity, but leaving
    /// it out (rather than reporting it as infinitely backed up) keeps
    /// the admission estimate optimistic — a rejection stays a proof of
    /// unmeetability even if the lane is restored a cycle later.
    fn lane_backlogs_into(&self, out: &mut Vec<Vec<u64>>) {
        out.resize_with(self.live_lane_count(), Vec::new);
        let mut i = 0;
        for (lane, pool) in self.lanes.iter().enumerate() {
            if self.alive[lane] {
                pool.in_flight_backlog_into(&mut out[i]);
                i += 1;
            }
        }
    }

    fn lane_alive(&self, lane: usize) -> bool {
        self.alive[lane]
    }

    fn live_lane_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    fn open_lane_count(&self) -> usize {
        (0..self.lanes.len())
            .filter(|&l| self.alive[l] && self.lanes[l].idle_device().is_some())
            .count()
    }

    fn kill_lane(&mut self, lane: usize) -> Vec<FrameTicket> {
        if !self.alive[lane] {
            return Vec::new();
        }
        let mut cancelled = Vec::new();
        // Sharded frames with *any* shard on the dying lane lose the
        // whole frame: its partial framebuffer lives in the dead lane's
        // memory, so landed shards are as lost as in-flight ones. Cancel
        // every unlanded shard wherever it runs and retire the entry.
        let mut i = 0;
        while i < self.pending.len() {
            if !self.pending[i].lane_of_shard.contains(&lane) {
                i += 1;
                continue;
            }
            let p = self.pending.remove(i);
            for (s, &l) in p.lane_of_shard.iter().enumerate() {
                if p.parts[s].is_some() {
                    continue; // this shard already landed
                }
                let device = (0..self.lanes[l].len())
                    .find(|&d| self.lanes[l].active_ticket(d).is_some_and(|t| t.id == p.ticket.id))
                    .expect("unlanded shard is active on its lane");
                self.lanes[l].cancel(device).expect("active ticket was just observed");
            }
            cancelled.push(p.ticket);
        }
        // Then the unsharded frames executing on the lane itself.
        for device in 0..self.lanes[lane].len() {
            if self.lanes[lane].active_ticket(device).is_some() {
                cancelled.push(
                    self.lanes[lane].cancel(device).expect("active ticket was just observed"),
                );
            }
        }
        self.alive[lane] = false;
        cancelled
    }

    fn restore_lane(&mut self, lane: usize) {
        if self.alive[lane] {
            return;
        }
        self.alive[lane] = true;
        self.generation[lane] += 1;
        self.lanes[lane].set_lane_generation(self.generation[lane]);
    }

    fn lane_generation(&self, lane: usize) -> u32 {
        self.generation[lane]
    }

    fn set_lane_affinity(&mut self, session: SessionId, lane: Option<usize>) {
        let idx = session.index();
        if self.affinity.len() <= idx {
            if lane.is_none() {
                return;
            }
            self.affinity.resize(idx + 1, None);
        }
        self.affinity[idx] = lane;
    }

    fn set_telemetry(&mut self, recorder: &gbu_telemetry::Recorder) {
        for (lane, pool) in self.lanes.iter_mut().enumerate() {
            pool.attach_recorder(recorder.clone(), Some(lane as u32));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Session, SessionContent, SessionSpec};
    use crate::QosTarget;
    use gbu_core::Gbu;
    use gbu_math::Vec3;

    fn prepared() -> Session {
        Session::prepare(
            SessionSpec {
                name: "cluster".into(),
                content: SessionContent::Synthetic { seed: 11, gaussians: 160 },
                qos: QosTarget::VR_72,
                frames: 2,
                phase: 0.0,
                exec: ExecMode::Unsharded,
            },
            &GbuConfig::paper(),
        )
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

    fn drain(pool: &mut ShardedPool) -> Vec<ShardedCompletion> {
        let mut done = Vec::new();
        while let Some(dt) = pool.next_completion_dt() {
            done.extend(pool.advance(dt));
        }
        done
    }

    fn unsharded_baseline(session: &Session) -> (FrameBuffer, u64) {
        let view = session.view(0);
        let mut gbu = Gbu::new(GbuConfig::paper());
        gbu.render_image(&view.splats, &view.bins, &view.camera, Vec3::ZERO).unwrap();
        let occupancy = gbu.in_flight_remaining().expect("frame in flight");
        (gbu.wait().expect("frame in flight").image, occupancy)
    }

    #[test]
    fn sharded_frame_is_bit_identical_to_single_device() {
        let session = prepared();
        let (reference, _) = unsharded_baseline(&session);
        for strategy in ShardStrategy::all() {
            for shards in [1usize, 2, 4] {
                let mut cluster = ShardedPool::new(
                    shards,
                    1,
                    strategy,
                    &GbuConfig::paper(),
                    &GpuConfig::orin_nx(),
                    0.5,
                );
                assert!(cluster.can_accept());
                cluster.submit(session.view_handle(0), ticket(0));
                let mut done = drain(&mut cluster);
                assert_eq!(done.len(), 1, "{strategy:?}/{shards}");
                let c = done.remove(0);
                assert_eq!(
                    c.image.pixels(),
                    reference.pixels(),
                    "{strategy:?}/{shards}: merged image must be bit-identical"
                );
                assert_eq!(c.shard_cycles.len(), shards);
                assert!(c.imbalance >= 1.0 - 1e-12);
                assert!(c.dram_bytes > 0);
            }
        }
    }

    #[test]
    fn frame_completes_only_when_all_shards_land() {
        let session = prepared();
        let mut cluster = ShardedPool::new(
            4,
            1,
            ShardStrategy::ContiguousRows,
            &GbuConfig::paper(),
            &GpuConfig::orin_nx(),
            0.5,
        );
        cluster.submit(session.view_handle(0), ticket(0));
        assert_eq!(cluster.pending_frames(), 1);
        // Advance to the first shard landing: unless every shard happens
        // to land on the same cycle, the frame must still be pending.
        let first = cluster.next_completion_dt().expect("shards in flight");
        let done = cluster.advance(first);
        if !done.is_empty() {
            // Degenerate (all shards equal): still a valid completion.
            assert_eq!(done[0].shard_cycles.len(), 4);
            return;
        }
        assert_eq!(cluster.pending_frames(), 1, "frame gates on the last shard");
        let done = drain(&mut cluster);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].completed_at, cluster.clock());
        assert_eq!(cluster.pending_frames(), 0);
    }

    #[test]
    fn sharding_shortens_the_critical_path() {
        let session = prepared();
        let (_, unsharded_cycles) = unsharded_baseline(&session);
        let mut cluster = ShardedPool::new(
            4,
            1,
            ShardStrategy::CostBalanced,
            &GbuConfig::paper(),
            &GpuConfig::orin_nx(),
            0.5,
        );
        cluster.submit(session.view_handle(0), ticket(0));
        let done = drain(&mut cluster);
        assert!(
            done[0].completed_at < unsharded_cycles,
            "4 shard lanes must beat one device: {} vs {unsharded_cycles}",
            done[0].completed_at
        );
    }

    #[test]
    fn lanes_pipeline_independent_frames() {
        let session = prepared();
        let mut cluster = ShardedPool::new(
            2,
            2,
            ShardStrategy::InterleavedRows,
            &GbuConfig::paper(),
            &GpuConfig::orin_nx(),
            0.5,
        );
        // Two frames in flight at once: each lane has two devices.
        cluster.submit(session.view_handle(0), ticket(0));
        assert!(cluster.can_accept(), "second device per lane is idle");
        cluster.submit(session.view_handle(1), ticket(1));
        assert!(!cluster.can_accept());
        let done = drain(&mut cluster);
        assert_eq!(done.len(), 2);
        let mut ids: Vec<u64> = done.iter().map(|c| c.ticket.id.index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
        let u = cluster.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    #[should_panic(expected = "idle device per lane")]
    fn oversubmission_panics() {
        let session = prepared();
        let mut cluster = ShardedPool::new(
            2,
            1,
            ShardStrategy::ContiguousRows,
            &GbuConfig::paper(),
            &GpuConfig::orin_nx(),
            0.5,
        );
        cluster.submit(session.view_handle(0), ticket(0));
        cluster.submit(session.view_handle(1), ticket(1));
    }

    // ------------------------------------------------------------------
    // ClusterBackend (the ExecBackend implementation)
    // ------------------------------------------------------------------

    fn memo() -> DeviceMemo {
        DeviceMemo::new(&GbuConfig::paper(), true, &gbu_telemetry::Recorder::disabled())
    }

    /// Frame `view` of `session` on behalf of `ticket(n)`, no prep charge.
    fn job(session: &Session, view: u32, n: u32, mode: ExecMode) -> Submission<'_> {
        Submission { view: session.view_handle(view), ticket: ticket(n), mode, prep_cycles: 0 }
    }

    fn cluster_backend(lanes: usize, devices_per_lane: usize) -> ClusterBackend {
        ClusterBackend::new(
            lanes,
            devices_per_lane,
            &GbuConfig::paper(),
            &GpuConfig::orin_nx(),
            0.5,
        )
    }

    fn drain_backend(backend: &mut ClusterBackend) -> Vec<ExecCompletion> {
        let mut out = Vec::new();
        while let Some(dt) = ExecBackend::next_completion_dt(backend) {
            out.extend(backend.advance(dt));
        }
        out
    }

    #[test]
    fn backend_mixes_sharded_and_unsharded_frames() {
        let session = prepared();
        let (reference, _) = unsharded_baseline(&session);
        let mut memo = memo();
        let mut backend = cluster_backend(3, 1);
        assert_eq!(backend.lane_count(), 3);
        assert_eq!(backend.device_count(), 3);

        let sharded = ExecMode::Sharded { shards: 2, strategy: ShardStrategy::CostBalanced };
        assert!(backend.can_accept(sharded));
        backend.submit(job(&session, 0, 0, sharded), &mut memo);
        assert!(backend.can_accept(ExecMode::Unsharded), "one lane still open");
        assert!(!backend.can_accept(sharded), "only one open lane left");
        backend.submit(job(&session, 0, 1, ExecMode::Unsharded), &mut memo);
        assert!(!backend.can_accept(ExecMode::Unsharded));
        assert_eq!(backend.in_flight_frames(), 2);

        let completions = drain_backend(&mut backend);
        let shard_events: Vec<_> =
            completions.iter().filter(|c| matches!(c, ExecCompletion::Shard { .. })).collect();
        assert_eq!(shard_events.len(), 2, "one event per shard of the sharded frame");
        let frames: Vec<&FrameDone> = completions
            .iter()
            .filter_map(|c| match c {
                ExecCompletion::Frame(done) => Some(done),
                ExecCompletion::Shard { .. } => None,
            })
            .collect();
        assert_eq!(frames.len(), 2);
        for done in frames {
            assert_eq!(
                done.image.as_ref().expect("images are retained").pixels(),
                reference.pixels(),
                "both modes must produce the identical image"
            );
            match done.ticket.id.index() {
                0 => {
                    assert_eq!(done.shard_cycles.len(), 2);
                    assert!(done.imbalance().expect("sharded") >= 1.0 - 1e-12);
                }
                _ => assert!(done.shard_cycles.is_empty()),
            }
        }
        assert_eq!(backend.in_flight_frames(), 0);
    }

    #[test]
    fn shard_events_precede_their_frame_completion() {
        let session = prepared();
        let mut memo = memo();
        let mut backend = cluster_backend(4, 1);
        backend.submit(
            job(
                &session,
                0,
                0,
                ExecMode::Sharded { shards: 4, strategy: ShardStrategy::ContiguousRows },
            ),
            &mut memo,
        );
        let completions = drain_backend(&mut backend);
        let frame_pos = completions
            .iter()
            .position(|c| matches!(c, ExecCompletion::Frame(_)))
            .expect("frame completed");
        let shard_positions: Vec<usize> = completions
            .iter()
            .enumerate()
            .filter_map(|(i, c)| matches!(c, ExecCompletion::Shard { .. }).then_some(i))
            .collect();
        assert_eq!(shard_positions.len(), 4);
        assert!(shard_positions.iter().all(|&p| p < frame_pos), "shards land before the frame");
    }

    #[test]
    fn backend_cancel_session_reclaims_all_shards() {
        let session = prepared();
        let mut memo = memo();
        let mut backend = cluster_backend(2, 1);
        backend.submit(
            job(
                &session,
                0,
                0,
                ExecMode::Sharded { shards: 2, strategy: ShardStrategy::InterleavedRows },
            ),
            &mut memo,
        );
        assert_eq!(backend.in_flight_frames(), 1);
        let cancelled = backend.cancel_session(crate::SessionId::from_index(0));
        assert_eq!(cancelled.len(), 1, "one frame, however many shards");
        assert_eq!(backend.in_flight_frames(), 0);
        assert!(ExecBackend::next_completion_dt(&backend).is_none());
        assert!(backend
            .can_accept(ExecMode::Sharded { shards: 2, strategy: ShardStrategy::InterleavedRows }));
        // Other sessions' frames survive a cancel.
        backend.submit(job(&session, 0, 1, ExecMode::Unsharded), &mut memo);
        assert!(backend.cancel_session(crate::SessionId::from_index(9)).is_empty());
        assert_eq!(backend.in_flight_frames(), 1);
    }

    #[test]
    fn measured_feedback_is_retained_per_session() {
        let session = prepared();
        let mut memo = memo();
        let mut backend = cluster_backend(2, 1);
        let mode = ExecMode::Sharded { shards: 2, strategy: ShardStrategy::Measured };
        let sid = crate::SessionId::from_index(0);
        assert!(backend.session_feedback(sid).is_none(), "no history before the first frame");
        backend.submit(job(&session, 0, 0, mode), &mut memo);
        drain_backend(&mut backend);
        let fb = backend.session_feedback(sid).expect("feedback after first completion");
        assert_eq!(fb.rows.len(), 2);
        assert_eq!(fb.measured_cycles.len(), 2);
        assert!(fb.measured_cycles.iter().all(|&c| c > 0));
        // A second frame replans with the measurement and still merges
        // bit-identically.
        let (reference, _) = unsharded_baseline(&session);
        backend.submit(job(&session, 0, 1, mode), &mut memo);
        let completions = drain_backend(&mut backend);
        let done = completions
            .iter()
            .find_map(|c| match c {
                ExecCompletion::Frame(done) => Some(done),
                ExecCompletion::Shard { .. } => None,
            })
            .expect("frame completed");
        assert_eq!(done.image.as_ref().expect("images are retained").pixels(), reference.pixels());
    }

    #[test]
    fn kill_lane_reclaims_whole_sharded_frames() {
        let session = prepared();
        let mut memo = memo();
        let mut backend = cluster_backend(3, 1);
        let sharded = ExecMode::Sharded { shards: 2, strategy: ShardStrategy::ContiguousRows };
        backend.submit(job(&session, 0, 0, sharded), &mut memo);
        backend.submit(job(&session, 0, 1, ExecMode::Unsharded), &mut memo);
        assert_eq!(backend.in_flight_frames(), 2);

        // The sharded frame occupies lanes 0 and 1; killing lane 1 must
        // reclaim the whole frame (including its shard on lane 0) while
        // the unsharded frame on lane 2 survives.
        let cancelled = backend.kill_lane(1);
        assert_eq!(cancelled.len(), 1);
        assert_eq!(cancelled[0].id.index(), 0);
        assert_eq!(backend.in_flight_frames(), 1);
        assert!(!backend.lane_alive(1));
        assert_eq!(backend.live_lane_count(), 2);
        let mut backlogs = Vec::new();
        backend.lane_backlogs_into(&mut backlogs);
        assert_eq!(backlogs.len(), 2, "dead lanes leave the backlog view");
        assert!(!backend.can_accept(sharded), "one open live lane left");
        assert!(backend.can_accept(ExecMode::Unsharded));

        // Killing a dead lane is a no-op; restoring bumps its generation.
        assert!(backend.kill_lane(1).is_empty());
        assert_eq!(backend.lane_generation(1), 0);
        backend.restore_lane(1);
        assert!(backend.lane_alive(1));
        assert_eq!(backend.lane_generation(1), 1);
        assert!(backend.can_accept(sharded));

        // The survivor still completes after the churn.
        let frames = drain_backend(&mut backend)
            .into_iter()
            .filter(|c| matches!(c, ExecCompletion::Frame(_)))
            .count();
        assert_eq!(frames, 1);
    }

    #[test]
    fn dead_lanes_keep_the_lockstep_clock() {
        let session = prepared();
        let mut memo = memo();
        let mut backend = cluster_backend(2, 1);
        // Lane 0 is the clock source; kill it and run a frame on lane 1.
        backend.kill_lane(0);
        backend.submit(job(&session, 0, 0, ExecMode::Unsharded), &mut memo);
        let done = drain_backend(&mut backend);
        assert_eq!(done.len(), 1);
        let t = ExecBackend::clock(&backend);
        assert!(t > 0, "dead lane 0 still ticks the shared clock");
        // A restored lane rejoins at the shared clock, not at zero.
        backend.restore_lane(0);
        backend.submit(job(&session, 0, 1, ExecMode::Unsharded), &mut memo);
        let done = drain_backend(&mut backend);
        assert_eq!(done.len(), 1);
        let ExecCompletion::Frame(f) = &done[0] else { panic!("unsharded completion") };
        assert!(f.completed_at > t, "restored lane completes in the shared time domain");
    }

    #[test]
    fn affinity_steers_unsharded_placement() {
        let session = prepared();
        let mut memo = memo();
        let mut backend = cluster_backend(2, 1);
        let sid = crate::SessionId::from_index(0);
        // Least-busy placement would pick lane 0; affinity overrides.
        backend.set_lane_affinity(sid, Some(1));
        let device = backend.submit(job(&session, 0, 0, ExecMode::Unsharded), &mut memo);
        assert_eq!(device, 1, "home lane 1, device 0 of 1 per lane");
        drain_backend(&mut backend);
        // A dead home lane falls back to least-busy placement.
        backend.kill_lane(1);
        let device = backend.submit(job(&session, 0, 1, ExecMode::Unsharded), &mut memo);
        assert_eq!(device, 0);
        drain_backend(&mut backend);
        // Clearing the pin restores least-busy placement.
        backend.restore_lane(1);
        backend.set_lane_affinity(sid, None);
        let device = backend.submit(job(&session, 0, 2, ExecMode::Unsharded), &mut memo);
        assert_eq!(device, 0);
    }

    #[test]
    fn measured_feedback_survives_lane_churn() {
        let session = prepared();
        let mut memo = memo();
        let mut backend = cluster_backend(2, 1);
        let mode = ExecMode::Sharded { shards: 2, strategy: ShardStrategy::Measured };
        let sid = crate::SessionId::from_index(0);
        backend.submit(job(&session, 0, 0, mode), &mut memo);
        drain_backend(&mut backend);
        assert!(backend.session_feedback(sid).is_some());
        backend.kill_lane(0);
        backend.restore_lane(0);
        assert!(
            backend.session_feedback(sid).is_some(),
            "feedback is per-session state, not per-lane state"
        );
    }

    #[test]
    fn single_lane_backend_matches_device_pool() {
        // A 1-lane cluster driving unsharded frames is the single pool in
        // disguise: identical completion times and device placement.
        let session = prepared();
        let mut pool = DevicePool::new(2, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        let mut memo = memo();
        let mut backend = cluster_backend(1, 2);
        ExecBackend::submit(&mut pool, job(&session, 0, 0, ExecMode::Unsharded), &mut memo);
        ExecBackend::submit(&mut pool, job(&session, 1, 1, ExecMode::Unsharded), &mut memo);
        backend.submit(job(&session, 0, 0, ExecMode::Unsharded), &mut memo);
        backend.submit(job(&session, 1, 1, ExecMode::Unsharded), &mut memo);
        loop {
            let a = ExecBackend::next_completion_dt(&pool);
            let b = ExecBackend::next_completion_dt(&backend);
            assert_eq!(a, b, "lockstep completion schedule");
            let Some(dt) = a else { break };
            let pa = ExecBackend::advance(&mut pool, dt);
            let pb = backend.advance(dt);
            assert_eq!(pa.len(), pb.len());
            for (x, y) in pa.iter().zip(&pb) {
                let (ExecCompletion::Frame(x), ExecCompletion::Frame(y)) = (x, y) else {
                    panic!("unsharded backends emit only frame completions");
                };
                assert_eq!(x.ticket, y.ticket);
                assert_eq!(x.completed_at, y.completed_at);
            }
        }
    }
}
