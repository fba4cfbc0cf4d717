//! The per-engine device-run memo.
//!
//! A GBU run is a pure function of (splats, bins, camera, hardware
//! configuration, cache policy, scope) — [`gbu_core::Gbu::run`] takes
//! `&self` — so the same prepared view always costs the same Tile-PE and
//! D&B cycles and fetches the same DRAM bytes. Serving replays a handful
//! of prepared views over and over (every session cycles its orbit, and
//! sessions resolved through one [`crate::SceneStore`] share views), so
//! the engine computes each distinct run once and every later dispatch
//! of it replays the recorded counters.
//!
//! The configuration and policy are fixed per engine, so a run is keyed
//! on the view's identity ([`ViewId`], which holds the view alive) and
//! its [`RunScope`]: the whole frame, or one shard's tile rows run
//! through the scoped device entry point. The memo keeps counters only —
//! occupancy and DRAM bytes — plus the image when the engine retains
//! images ([`crate::ServeConfig::retain_images`]); without retention a
//! miss computes a pixel-free run ([`Gbu::run_counters`]), so no pixels
//! are shaded, stored or handed on.

use crate::session::PreparedView;
use gbu_core::device::DeviceRun;
use gbu_core::Gbu;
use gbu_hw::GbuConfig;
use gbu_math::Vec3;
use gbu_render::shard::ShardPlan;
use gbu_render::FrameBuffer;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Identity of a prepared view, for keying per-view caches.
///
/// Holds the view's `Arc` and compares by pointer: two content-identical
/// views prepared separately are distinct keys, and because the key keeps
/// its view alive, a view allocated later can never reuse a live key's
/// address.
#[derive(Debug, Clone)]
pub struct ViewId(Arc<PreparedView>);

impl ViewId {
    /// The identity of `view`.
    pub fn of(view: &Arc<PreparedView>) -> Self {
        Self(Arc::clone(view))
    }
}

impl PartialEq for ViewId {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for ViewId {}

impl Hash for ViewId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Arc::as_ptr(&self.0).hash(state);
    }
}

/// Which part of a frame one device run covers.
#[derive(Debug, Clone, Copy)]
pub enum RunScope<'a> {
    /// The whole frame, through `GBU_render_image`.
    Frame,
    /// Shard `shard` of `plan`: the plan's tile rows for that shard, run
    /// through the scoped entry point ([`gbu_core::Gbu::render_scoped`]).
    Shard {
        /// The frame's shard plan.
        plan: &'a ShardPlan,
        /// Shard index within the plan.
        shard: usize,
    },
}

impl RunScope<'_> {
    /// The shard's tile rows (`None` for a whole-frame run).
    fn rows(&self) -> Option<&[u32]> {
        match self {
            RunScope::Frame => None,
            RunScope::Shard { plan, shard } => Some(&plan.shards[*shard].rows),
        }
    }
}

/// What the memo keeps of one device run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Full device occupancy: `max(D&B, Tile PE)` cycles.
    pub occupancy: u64,
    /// Off-chip feature traffic of the run (bytes).
    pub dram_bytes: u64,
    /// The rendered image (shards: full-size, background outside the
    /// shard's rows) — only when the memo retains images.
    pub image: Option<Arc<FrameBuffer>>,
}

impl RunRecord {
    /// The record of `run`, keeping what `image` makes of its image.
    fn of<I>(run: DeviceRun<I>, image: impl FnOnce(I) -> Option<FrameBuffer>) -> Self {
        Self {
            occupancy: run.occupancy,
            dram_bytes: run.run.dram_bytes,
            image: image(run.run.image).map(Arc::new),
        }
    }
}

/// The runs of one view: one entry per scope, keyed by the shard's tile
/// rows (`None`: the unscoped whole-frame run).
type ScopedRuns = Vec<(Option<Box<[u32]>>, RunRecord)>;

/// Device runs computed once per engine, shared by every lane of its
/// backend and by the engine's quality probes.
#[derive(Debug)]
pub struct DeviceMemo {
    /// Reference device: the engine's configuration and policy.
    device: Gbu,
    retain_images: bool,
    runs: HashMap<ViewId, ScopedRuns>,
    hits: gbu_telemetry::Counter,
    misses: gbu_telemetry::Counter,
}

impl DeviceMemo {
    /// An empty memo over devices of configuration `gbu`. With
    /// `retain_images` it keeps every run's image; hits and misses count
    /// into `serve.device_memo.hits` / `.misses` of `recorder` (no-ops
    /// when it is disabled).
    pub fn new(gbu: &GbuConfig, retain_images: bool, recorder: &gbu_telemetry::Recorder) -> Self {
        Self {
            device: Gbu::new(gbu.clone()),
            retain_images,
            runs: HashMap::new(),
            hits: recorder.counter("serve.device_memo.hits"),
            misses: recorder.counter("serve.device_memo.misses"),
        }
    }

    /// The run of `view` over `scope`, computed on first use.
    pub fn run(&mut self, view: &Arc<PreparedView>, scope: RunScope<'_>) -> &RunRecord {
        let Self { device, retain_images, runs, hits, misses } = self;
        let rows = scope.rows();
        let entries = runs.entry(ViewId::of(view)).or_default();
        if let Some(i) = entries.iter().position(|(r, _)| r.as_deref() == rows) {
            hits.add(1);
            return &entries[i].1;
        }
        misses.add(1);
        let shard_bins = match scope {
            RunScope::Frame => None,
            RunScope::Shard { plan, shard } => Some(plan.shard_bins(&view.bins, shard)),
        };
        let (splats, camera) = (&view.splats, &view.camera);
        let record = match (shard_bins, *retain_images) {
            (None, true) => RunRecord::of(device.run(splats, &view.bins, camera, Vec3::ZERO), Some),
            (Some(bins), true) => {
                RunRecord::of(device.run_scoped(splats, &bins, camera, Vec3::ZERO), Some)
            }
            // Without retention the run shades no pixel at all.
            (None, false) => {
                RunRecord::of(device.run_counters(splats, &view.bins, camera), |()| None)
            }
            (Some(bins), false) => {
                RunRecord::of(device.run_scoped_counters(splats, &bins, camera), |()| None)
            }
        };
        entries.push((rows.map(Box::from), record));
        &entries.last().expect("just pushed").1
    }

    /// Whether any run of `view` is memoised.
    pub fn holds(&self, view: &Arc<PreparedView>) -> bool {
        self.runs.contains_key(&ViewId::of(view))
    }

    /// Forgets every run of `view`.
    pub fn forget(&mut self, view: &Arc<PreparedView>) {
        self.runs.remove(&ViewId::of(view));
    }

    /// Device occupancy of the whole-frame run of `view`.
    pub fn occupancy(&mut self, view: &Arc<PreparedView>) -> u64 {
        self.run(view, RunScope::Frame).occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExecMode;
    use crate::session::{Session, SessionContent, SessionSpec};
    use crate::QosTarget;
    use gbu_render::shard::ShardStrategy;

    fn session() -> Session {
        Session::prepare(
            SessionSpec {
                name: "memo".into(),
                content: SessionContent::Synthetic { seed: 5, gaussians: 120 },
                qos: QosTarget::VR_72,
                frames: 1,
                phase: 0.0,
                exec: ExecMode::Unsharded,
            },
            &GbuConfig::paper(),
        )
    }

    #[test]
    fn view_ids_compare_by_identity_not_content() {
        let (a, b) = (session(), session());
        let (va, vb) = (a.view_handle(0), b.view_handle(0));
        assert_eq!(va.splats.len(), vb.splats.len(), "identical content");
        assert_ne!(ViewId::of(va), ViewId::of(vb));
        assert_eq!(ViewId::of(va), ViewId::of(va));
    }

    #[test]
    fn memo_matches_a_fresh_device_and_stores_images_only_when_asked() {
        let s = session();
        let view = s.view_handle(0);
        let plan = ShardPlan::new(ShardStrategy::ContiguousRows, &view.bins, 2);
        let off = gbu_telemetry::Recorder::disabled();
        let mut counters = DeviceMemo::new(&GbuConfig::paper(), false, &off);
        let mut images = DeviceMemo::new(&GbuConfig::paper(), true, &off);
        for scope in [RunScope::Frame, RunScope::Shard { plan: &plan, shard: 1 }] {
            let mut gbu = Gbu::new(GbuConfig::paper());
            match scope {
                RunScope::Frame => {
                    gbu.render_image(&view.splats, &view.bins, &view.camera, Vec3::ZERO)
                }
                RunScope::Shard { plan, shard } => gbu.render_scoped(
                    &view.splats,
                    &plan.shard_bins(&view.bins, shard),
                    &view.camera,
                    Vec3::ZERO,
                ),
            }
            .unwrap();
            let occupancy = gbu.in_flight_occupancy().unwrap();
            let frame = gbu.wait().unwrap();
            for memo in [&mut counters, &mut images] {
                let first = memo.run(view, scope).clone();
                let again = memo.run(view, scope).clone();
                assert_eq!((first.occupancy, first.dram_bytes), (occupancy, frame.run.dram_bytes));
                assert_eq!((again.occupancy, again.dram_bytes), (occupancy, frame.run.dram_bytes));
            }
            assert!(counters.run(view, scope).image.is_none(), "no pixels without retention");
            let image = images.run(view, scope).image.clone().expect("retained");
            assert_eq!(*image, frame.image);
        }
    }
}
