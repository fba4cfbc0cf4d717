//! The execution-backend abstraction: one trait the [`crate::ServeEngine`]
//! drives, two implementations — a single [`DevicePool`] and the
//! multi-lane [`crate::cluster::ClusterBackend`].
//!
//! The paper's GBU is a plug-in behind a stable host interface: the GPU
//! does not care whether one blending unit or a sharded cluster of them
//! services a frame. [`ExecBackend`] is that interface on the serving
//! side. The engine schedules, admits and reports against the trait
//! alone; what actually renders a frame — one device in one pool, or N
//! tile-row shards fanned over N pool lanes — is fixed per engine by
//! [`BackendKind`] and per *session* by [`ExecMode`], so sharded and
//! unsharded sessions coexist on one simulated clock.
//!
//! Backends report progress as [`ExecCompletion`]s: sharded frames yield
//! one [`ExecCompletion::Shard`] per landed shard (which the engine
//! surfaces as [`crate::ServeEvent::ShardCompleted`]) before the final
//! [`ExecCompletion::Frame`]; unsharded frames yield only the latter —
//! which keeps the unsharded event stream byte-identical to the
//! pre-trait engine (pinned by `tests/api_equivalence.rs`).

use crate::event::SessionId;
use crate::memo::{DeviceMemo, RunScope};
use crate::pool::{DeviceJob, DevicePool};
use crate::scheduler::FrameTicket;
use crate::session::PreparedView;
use gbu_render::shard::ShardStrategy;
use gbu_render::FrameBuffer;
use std::sync::Arc;

/// How one session's frames execute on the backend.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ExecMode {
    /// The whole frame renders on one device (the classic path).
    #[default]
    Unsharded,
    /// The frame is split into `shards` tile-row shards
    /// (`gbu_render::shard::ShardPlan`) fanned over that many cluster
    /// lanes; the frame completes when its last shard lands. Requires a
    /// [`BackendKind::Cluster`] backend with at least `shards` lanes.
    Sharded {
        /// Number of tile-row shards (= lanes the frame occupies).
        shards: usize,
        /// How the tile rows are split.
        strategy: ShardStrategy,
    },
}

impl ExecMode {
    /// Number of lanes a frame in this mode occupies at once.
    pub fn lanes_needed(self) -> usize {
        match self {
            ExecMode::Unsharded => 1,
            ExecMode::Sharded { shards, .. } => shards,
        }
    }

    /// Optimistic service-time lower bound for this mode, derived from
    /// the unsharded bound: blending cycles partition exactly over
    /// shards and D&B work can only duplicate across them, so the
    /// critical-path shard costs at least `unsharded / shards` cycles.
    /// Staying a provable lower bound keeps deadline-aware rejection a
    /// proof of unmeetability.
    pub fn min_service(self, unsharded_min_service: u64) -> u64 {
        match self {
            ExecMode::Unsharded => unsharded_min_service,
            ExecMode::Sharded { shards, .. } => {
                (unsharded_min_service / shards.max(1) as u64).max(1)
            }
        }
    }
}

/// Which [`ExecBackend`] a [`crate::ServeEngine`] is built over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// One [`DevicePool`] of [`crate::ServeConfig::devices`] GBUs —
    /// the pre-cluster engine, byte-identical behaviour.
    Single,
    /// A [`crate::cluster::ClusterBackend`]: `lanes` independent
    /// [`DevicePool`]s of `devices_per_lane` GBUs each on one lockstep
    /// clock, accepting both [`ExecMode::Unsharded`] frames (placed on
    /// the least-busy lane) and [`ExecMode::Sharded`] frames (fanned
    /// over the least-busy `shards` lanes).
    Cluster {
        /// Number of shard lanes.
        lanes: usize,
        /// GBU devices per lane.
        devices_per_lane: usize,
    },
}

/// A frame fully executed by a backend.
#[derive(Debug)]
pub struct FrameDone {
    /// The request this frame fulfilled.
    pub ticket: FrameTicket,
    /// Wall cycle at which it completed (sharded: when the *last* shard
    /// landed).
    pub completed_at: u64,
    /// The rendered image, when the [`DeviceMemo`] retains images
    /// (`None` otherwise). For sharded frames the merged partials —
    /// bit-identical to the unsharded render (pinned upstream).
    pub image: Option<Arc<FrameBuffer>>,
    /// Wall-cycle service time of each shard (submit → land), indexed by
    /// shard; empty for unsharded frames.
    pub shard_cycles: Vec<u64>,
}

impl FrameDone {
    /// Measured shard imbalance: max shard service over mean (`None`
    /// for unsharded frames, `1.0` floor otherwise).
    pub fn imbalance(&self) -> Option<f64> {
        shard_imbalance(&self.shard_cycles)
    }
}

/// Measured imbalance of a set of per-shard service cycles: max over
/// mean (1.0 = perfectly balanced; 1.0 for an all-zero measurement,
/// `None` for an empty one). The single definition behind
/// [`FrameDone::imbalance`], the metrics' per-frame shard records and
/// the hand-driven `ShardedPool`'s completion figure.
pub fn shard_imbalance(shard_cycles: &[u64]) -> Option<f64> {
    let max = *shard_cycles.iter().max()?;
    let mean = shard_cycles.iter().sum::<u64>() as f64 / shard_cycles.len() as f64;
    Some(if mean > 0.0 { max as f64 / mean } else { 1.0 })
}

/// One frame to dispatch through [`ExecBackend::submit`].
#[derive(Debug, Clone, Copy)]
pub struct Submission<'a> {
    /// The frame's prepared view.
    pub view: &'a Arc<PreparedView>,
    /// The admitted request the frame serves.
    pub ticket: FrameTicket,
    /// How the frame executes.
    pub mode: ExecMode,
    /// Host Step-❶/❷ device-cycles charged up front on every device the
    /// frame occupies (0: no charge) — how the engine models host-GPU
    /// preprocessing when [`crate::engine::PrepConfig`] is enabled, and
    /// the lever the cross-session reuse discount pulls by passing 0 for
    /// shared epochs.
    pub prep_cycles: u64,
}

/// One unit of backend progress returned by [`ExecBackend::advance`].
#[derive(Debug)]
pub enum ExecCompletion {
    /// One shard of a sharded frame landed; the frame itself is still
    /// pending until its last shard does. Never emitted for unsharded
    /// frames.
    Shard {
        /// The frame the shard belongs to.
        ticket: FrameTicket,
        /// Shard index within the frame's plan.
        shard: usize,
        /// Lane the shard executed on.
        lane: usize,
        /// Wall cycle the shard landed at.
        at: u64,
        /// Wall cycles from frame submission to this shard landing.
        service_cycles: u64,
    },
    /// A frame finished (sharded: all shards landed and merged).
    Frame(FrameDone),
}

/// The execution layer the serving engine drives.
///
/// One simulated wall clock, strictly monotone, advanced only by
/// [`ExecBackend::advance`]; rates change only at submit/completion
/// boundaries, so advancing event-to-event
/// ([`ExecBackend::next_completion_dt`]) is exact.
pub trait ExecBackend: std::fmt::Debug {
    /// Current wall cycle.
    fn clock(&self) -> u64;

    /// Number of lanes (1 for a single pool).
    fn lane_count(&self) -> usize;

    /// Total GBU devices across all lanes.
    fn device_count(&self) -> usize;

    /// Number of frames currently executing (a sharded frame counts once
    /// however many shards are still in flight).
    fn in_flight_frames(&self) -> usize;

    /// Mean device utilization so far across all lanes.
    fn utilization(&self) -> f64;

    /// Capacity probe: can a frame in `mode` be dispatched right now?
    /// (`Unsharded`: some lane has an idle device; `Sharded { shards }`:
    /// at least `shards` lanes each have one.)
    fn can_accept(&self, mode: ExecMode) -> bool;

    /// Dispatches `job`, taking its device runs from `memo` (shared by
    /// every lane). Returns the global device index the frame started on
    /// (sharded: the device running shard 0) for the `Started` event.
    ///
    /// # Panics
    ///
    /// May panic when called without a passing [`ExecBackend::can_accept`]
    /// probe, or with a mode the backend does not support.
    fn submit(&mut self, job: Submission<'_>, memo: &mut DeviceMemo) -> usize;

    /// Cancels every in-flight frame belonging to `session` (all shards
    /// of sharded frames), freeing their devices immediately. Returns the
    /// cancelled tickets, one entry per frame.
    fn cancel_session(&mut self, session: SessionId) -> Vec<FrameTicket>;

    /// Wall cycles until the next completion (shard or frame) anywhere,
    /// or `None` when idle.
    fn next_completion_dt(&self) -> Option<u64>;

    /// Advances the wall clock by `wall_dt` cycles and returns what
    /// landed, shard completions strictly before the frame completions
    /// they belong to.
    ///
    /// # Panics
    ///
    /// Panics when `wall_dt == 0` (the clock must move forward).
    fn advance(&mut self, wall_dt: u64) -> Vec<ExecCompletion>;

    /// Per-lane, per-device optimistic backlog, written into `out`
    /// (cleared first): device-cycles of work still executing on each
    /// device (zero when idle), grouped by *live* lane — what lane-aware
    /// admission seeds its earliest-free schedule with. Taking a caller
    /// scratch buffer keeps the per-admission probe allocation-free once
    /// the buffer warms up.
    fn lane_backlogs_into(&self, out: &mut Vec<Vec<u64>>);

    /// Whether `lane` is currently up. A single pool's only lane is
    /// always up; cluster lanes go down under a fleet plan's fault
    /// injection or the autoscaler's scale-down.
    fn lane_alive(&self, _lane: usize) -> bool {
        true
    }

    /// Number of lanes currently up.
    fn live_lane_count(&self) -> usize {
        self.lane_count()
    }

    /// Number of live lanes with at least one idle device — the
    /// dispatch headroom lane reservation budgets against.
    fn open_lane_count(&self) -> usize {
        usize::from(self.can_accept(ExecMode::Unsharded))
    }

    /// Takes `lane` down: cancels every in-flight frame with work on it
    /// (all shards of a sharded frame, wherever they run) and refuses it
    /// new work until [`ExecBackend::restore_lane`]. Returns the
    /// cancelled tickets, one entry per frame. Default no-op for
    /// backends without lane lifecycle.
    fn kill_lane(&mut self, _lane: usize) -> Vec<FrameTicket> {
        Vec::new()
    }

    /// Brings `lane` back up, starting a new
    /// [`ExecBackend::lane_generation`] lifetime. Default no-op.
    fn restore_lane(&mut self, _lane: usize) {}

    /// Restart generation of `lane`: 0 for its first lifetime, bumped on
    /// every restore.
    fn lane_generation(&self, _lane: usize) -> u32 {
        0
    }

    /// Pins `session`'s future unsharded frames to prefer `lane` (or
    /// clears the pin with `None`) — the fleet controller's migration
    /// lever. Advisory: a dead or full home lane falls back to least-busy
    /// placement. Default no-op.
    fn set_lane_affinity(&mut self, _session: SessionId, _lane: Option<usize>) {}

    /// Attaches a telemetry recorder: the backend records per-lane
    /// `device_busy` spans and DRAM-arbitration stall gauges into it.
    /// Default is a no-op so hand-rolled test backends need not care.
    fn set_telemetry(&mut self, _recorder: &gbu_telemetry::Recorder) {}
}

impl ExecBackend for DevicePool {
    fn clock(&self) -> u64 {
        DevicePool::clock(self)
    }

    fn lane_count(&self) -> usize {
        1
    }

    fn device_count(&self) -> usize {
        self.len()
    }

    fn in_flight_frames(&self) -> usize {
        self.busy_count()
    }

    fn utilization(&self) -> f64 {
        DevicePool::utilization(self)
    }

    fn can_accept(&self, mode: ExecMode) -> bool {
        match mode {
            ExecMode::Unsharded => self.idle_device().is_some(),
            ExecMode::Sharded { .. } => false,
        }
    }

    fn submit(&mut self, job: Submission<'_>, memo: &mut DeviceMemo) -> usize {
        assert_eq!(job.mode, ExecMode::Unsharded, "a single pool cannot execute sharded frames");
        let device = self.idle_device().expect("submit requires an idle device");
        let Submission { view, ticket, prep_cycles, .. } = job;
        let job = DeviceJob { view, scope: RunScope::Frame, ticket, prep_cycles };
        DevicePool::submit(self, device, job, memo);
        device
    }

    fn cancel_session(&mut self, session: SessionId) -> Vec<FrameTicket> {
        let mut cancelled = Vec::new();
        for device in 0..self.len() {
            if self.active_ticket(device).is_some_and(|t| t.session == session) {
                let ticket = self.cancel(device).expect("active ticket was just observed");
                cancelled.push(ticket);
            }
        }
        cancelled
    }

    fn next_completion_dt(&self) -> Option<u64> {
        DevicePool::next_completion_dt(self)
    }

    fn advance(&mut self, wall_dt: u64) -> Vec<ExecCompletion> {
        DevicePool::advance(self, wall_dt)
            .into_iter()
            .map(|c| {
                ExecCompletion::Frame(FrameDone {
                    ticket: c.ticket,
                    completed_at: c.completed_at,
                    image: c.run.image,
                    shard_cycles: Vec::new(),
                })
            })
            .collect()
    }

    fn lane_backlogs_into(&self, out: &mut Vec<Vec<u64>>) {
        out.resize_with(1, Vec::new);
        self.in_flight_backlog_into(&mut out[0]);
    }

    fn set_telemetry(&mut self, recorder: &gbu_telemetry::Recorder) {
        self.attach_recorder(recorder.clone(), None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FrameId;

    #[test]
    fn exec_mode_accessors() {
        assert_eq!(ExecMode::default(), ExecMode::Unsharded);
        assert_eq!(ExecMode::Unsharded.lanes_needed(), 1);
        let sharded = ExecMode::Sharded { shards: 4, strategy: ShardStrategy::CostBalanced };
        assert_eq!(sharded.lanes_needed(), 4);
        assert_eq!(ExecMode::Unsharded.min_service(1000), 1000);
        assert_eq!(sharded.min_service(1000), 250);
        assert_eq!(sharded.min_service(2), 1, "bound never collapses to zero");
    }

    #[test]
    fn frame_done_imbalance() {
        let done = |shard_cycles: Vec<u64>| FrameDone {
            ticket: FrameTicket {
                id: FrameId::from_index(0),
                session: SessionId::from_index(0),
                frame: 0,
                arrival: 0,
                deadline: u64::MAX,
            },
            completed_at: 0,
            image: None,
            shard_cycles,
        };
        assert_eq!(done(vec![]).imbalance(), None);
        assert_eq!(done(vec![100, 100]).imbalance(), Some(1.0));
        let i = done(vec![300, 100]).imbalance().expect("sharded");
        assert!((i - 1.5).abs() < 1e-12);
    }
}
