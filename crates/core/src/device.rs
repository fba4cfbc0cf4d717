//! The GBU device object — the paper's programming model (Sec. V-F).
//!
//! Listing 1 exposes two calls: `GBU_render_image`, which kicks off
//! asynchronous rendering of one frame, and `GBU_check_status`, which
//! polls (or blocks on) completion. The GBU does not synchronise with any
//! CUDA stream; the host uses `check_status` to build the GBU-GPU frame
//! pipeline. This module reproduces those semantics over the cycle-level
//! simulator: `render_image` returns immediately with the frame enqueued,
//! a simulated clock advances via [`Gbu::advance`], and `check_status`
//! polls or blocks exactly like the C++ interface.

use gbu_hw::cache::Policy;
use gbu_hw::{dnb, GbuConfig, GbuRunResult, TileEngine};
use gbu_math::Vec3;
use gbu_render::binning::TileBins;
use gbu_render::{FrameBuffer, Splat2D};
use gbu_scene::Camera;

/// Execution status returned by [`Gbu::check_status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GbuStatus {
    /// No frame in flight.
    Idle,
    /// A frame is being rendered.
    InExecution,
}

/// Errors returned by the device interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// `render_image` was called while a frame was still in flight —
    /// the hardware has a single frame context.
    Busy,
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Busy => write!(f, "a frame is already in execution"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// A completed frame: the image plus the run's hardware statistics.
#[derive(Debug, Clone)]
pub struct CompletedFrame {
    /// The rendered image.
    pub image: FrameBuffer,
    /// Hardware counters of the run. Its image has moved to
    /// [`CompletedFrame::image`]; `run.image` is left empty.
    pub run: GbuRunResult,
}

/// One frame's device run, computed off the device clock by
/// [`Gbu::run`] / [`Gbu::run_scoped`]: a pure function of the inputs,
/// the hardware configuration and the cache policy, so a host may
/// compute it once and start it on any number of devices
/// ([`Gbu::start`]). `DeviceRun<()>` is a pixel-free run
/// ([`Gbu::run_counters`] / [`Gbu::run_scoped_counters`]): the same
/// occupancy and counters, no image.
#[derive(Debug, Clone)]
pub struct DeviceRun<I = FrameBuffer> {
    /// Full device occupancy of the frame: `max(D&B, Tile PE)` cycles
    /// (the chunk-level pipeline of Fig. 13 overlaps the two).
    pub occupancy: u64,
    /// The run's image and hardware counters.
    pub run: GbuRunResult<I>,
}

#[derive(Debug)]
struct InFlight {
    result: CompletedFrame,
    completion_cycle: u64,
    /// Full device occupancy of the frame (`max(D&B, Tile PE)` cycles),
    /// fixed at submission.
    occupancy: u64,
}

/// The GBU device.
///
/// # Example
///
/// ```
/// use gbu_core::Gbu;
/// use gbu_hw::GbuConfig;
/// use gbu_math::Vec3;
/// use gbu_render::{binning, preprocess};
/// use gbu_scene::{Camera, Gaussian3D, GaussianScene};
///
/// let mut gbu = Gbu::new(GbuConfig::paper());
/// let cam = Camera::orbit(64, 64, 1.0, Vec3::ZERO, 3.0, 0.0, 0.0);
/// let scene: GaussianScene =
///     std::iter::once(Gaussian3D::isotropic(Vec3::ZERO, 0.2, Vec3::ONE, 0.9)).collect();
/// let (splats, _) = preprocess::project_scene(&scene, &cam);
/// let (bins, _) = binning::bin_splats(&splats, &cam, 16);
///
/// gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
/// // Blocking wait, like GBU_check_status(true).
/// let frame = gbu.wait().expect("frame in flight");
/// assert_eq!(frame.image.width(), 64);
/// ```
#[derive(Debug)]
pub struct Gbu {
    engine: TileEngine,
    policy: Policy,
    clock: u64,
    in_flight: Option<InFlight>,
}

impl Gbu {
    /// Creates a device with the given hardware configuration.
    pub fn new(config: GbuConfig) -> Self {
        Self {
            engine: TileEngine::new(config),
            policy: Policy::ReuseDistance,
            clock: 0,
            in_flight: None,
        }
    }

    /// Overrides the reuse-cache replacement policy (for ablations).
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// The hardware configuration.
    pub fn config(&self) -> &GbuConfig {
        &self.engine.config
    }

    /// Current simulated cycle.
    pub fn cycle(&self) -> u64 {
        self.clock
    }

    /// `GBU_render_image`: starts rendering one frame from preprocessed,
    /// depth-sorted inputs (the outputs of Rendering Steps ❶/❷) —
    /// [`Gbu::run`] followed by [`Gbu::start`].
    ///
    /// Returns immediately; completion is observed through
    /// [`Gbu::check_status`] / [`Gbu::wait`].
    ///
    /// # Errors
    ///
    /// [`DeviceError::Busy`] when a frame is already in execution.
    pub fn render_image(
        &mut self,
        splats: &[Splat2D],
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
    ) -> Result<(), DeviceError> {
        self.ensure_idle()?;
        self.start(self.run(splats, bins, camera, background))
    }

    /// [`Gbu::render_image`] for one shard of a multi-device frame:
    /// `bins` has been restricted to the shard's tile rows
    /// (`gbu_render::shard::ShardPlan::shard_bins`), so the device
    /// executes — and charges DRAM feature traffic and D&B cycles for —
    /// only that tile range (`gbu_hw::dnb::run_scoped`). Rows outside the
    /// shard render as background; the cluster host merges the partial
    /// frame buffers. [`Gbu::run_scoped`] followed by [`Gbu::start`].
    ///
    /// # Errors
    ///
    /// [`DeviceError::Busy`] when a frame is already in execution.
    pub fn render_scoped(
        &mut self,
        splats: &[Splat2D],
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
    ) -> Result<(), DeviceError> {
        self.ensure_idle()?;
        self.start(self.run_scoped(splats, bins, camera, background))
    }

    /// The pure half of [`Gbu::render_image`]: runs the D&B unit and the
    /// Tile PE over one frame without touching the clock or the frame
    /// context. The same inputs always give the same run.
    pub fn run(
        &self,
        splats: &[Splat2D],
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
    ) -> DeviceRun {
        self.compute(splats, bins, false, |d| {
            self.engine.render(splats, d, bins, camera, background, self.policy)
        })
    }

    /// The pure half of [`Gbu::render_scoped`].
    pub fn run_scoped(
        &self,
        splats: &[Splat2D],
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
    ) -> DeviceRun {
        self.compute(splats, bins, true, |d| {
            self.engine.render(splats, d, bins, camera, background, self.policy)
        })
    }

    /// [`Gbu::run`] for a host that discards the image: the same
    /// occupancy and counters, computed without shading a pixel.
    pub fn run_counters(
        &self,
        splats: &[Splat2D],
        bins: &TileBins,
        camera: &Camera,
    ) -> DeviceRun<()> {
        self.compute(splats, bins, false, |d| {
            self.engine.render_counters(splats, d, bins, camera, self.policy)
        })
    }

    /// [`Gbu::run_scoped`] for a host that discards the image.
    pub fn run_scoped_counters(
        &self,
        splats: &[Splat2D],
        bins: &TileBins,
        camera: &Camera,
    ) -> DeviceRun<()> {
        self.compute(splats, bins, true, |d| {
            self.engine.render_counters(splats, d, bins, camera, self.policy)
        })
    }

    /// Starts an already-computed run: the frame occupies the device for
    /// `run.occupancy` cycles from the current clock.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Busy`] when a frame is already in execution.
    pub fn start(&mut self, run: DeviceRun) -> Result<(), DeviceError> {
        self.ensure_idle()?;
        let DeviceRun { occupancy, mut run } = run;
        self.in_flight = Some(InFlight {
            result: CompletedFrame { image: std::mem::take(&mut run.image), run },
            completion_cycle: self.clock + occupancy,
            occupancy,
        });
        Ok(())
    }

    fn ensure_idle(&self) -> Result<(), DeviceError> {
        match self.in_flight {
            Some(_) => Err(DeviceError::Busy),
            None => Ok(()),
        }
    }

    /// Runs the D&B unit (whole frame, or `scoped` to the tile rows
    /// `bins` holds), then `tile_pe` over its output.
    fn compute<I>(
        &self,
        splats: &[Splat2D],
        bins: &TileBins,
        scoped: bool,
        tile_pe: impl FnOnce(&dnb::DnbResult) -> GbuRunResult<I>,
    ) -> DeviceRun<I> {
        let d = if scoped {
            dnb::run_scoped(splats, bins, &self.engine.config)
        } else {
            dnb::run(splats, bins, &self.engine.config)
        };
        let run = tile_pe(&d);
        // Chunk-level pipeline (Fig. 13 bottom): D&B overlaps the Tile PE,
        // so the frame occupies max(D&B, Tile PE) cycles.
        DeviceRun { occupancy: d.cycles.max(run.compute_cycles), run }
    }

    /// Advances the simulated clock (models GPU-side work happening while
    /// the GBU renders).
    pub fn advance(&mut self, cycles: u64) {
        self.clock += cycles;
    }

    /// Device cycles left until the in-flight frame completes (`None` when
    /// idle, `Some(0)` when finished but not yet collected).
    ///
    /// Multi-device hosts (`gbu_serve::DevicePool`) use this to find the
    /// next completion event without collecting the frame.
    pub fn in_flight_remaining(&self) -> Option<u64> {
        self.in_flight.as_ref().map(|f| f.completion_cycle.saturating_sub(self.clock))
    }

    /// Off-chip feature traffic (bytes) of the in-flight frame — the
    /// device's share of DRAM bandwidth while it renders. `None` when idle.
    pub fn in_flight_dram_bytes(&self) -> Option<u64> {
        self.in_flight.as_ref().map(|f| f.result.run.dram_bytes)
    }

    /// Full device occupancy (`max(D&B, Tile PE)` cycles) of the
    /// in-flight frame, independent of how far it has progressed —
    /// `None` when idle. Execution backends use this to record what a
    /// frame (or one shard of it) actually costs in device cycles, e.g.
    /// as the measured-service feedback behind
    /// `gbu_render::shard::ShardStrategy::Measured`.
    pub fn in_flight_occupancy(&self) -> Option<u64> {
        self.in_flight.as_ref().map(|f| f.occupancy)
    }

    /// Aborts the in-flight frame, if any, discarding its result and
    /// freeing the frame context immediately — the preemption hook a
    /// serving host uses to cancel work whose deadline already passed or
    /// whose client detached. Returns whether a frame was cancelled.
    ///
    /// Safe to call on an idle device (a no-op returning `false`), and
    /// safe to call on a frame that has finished but was not yet
    /// collected (the result is discarded). The clock is not moved.
    pub fn cancel_in_flight(&mut self) -> bool {
        self.in_flight.take().is_some()
    }

    /// `GBU_check_status(blocking = false)`: polls the execution status.
    pub fn check_status(&mut self) -> GbuStatus {
        match &self.in_flight {
            Some(f) if self.clock < f.completion_cycle => GbuStatus::InExecution,
            Some(_) => GbuStatus::Idle, // finished; frame ready to collect
            None => GbuStatus::Idle,
        }
    }

    /// Collects the completed frame if the in-flight frame has finished.
    pub fn try_collect(&mut self) -> Option<CompletedFrame> {
        match &self.in_flight {
            Some(f) if self.clock >= f.completion_cycle => {
                let f = self.in_flight.take().expect("checked above");
                Some(f.result)
            }
            _ => None,
        }
    }

    /// `GBU_check_status(blocking = true)`: blocks (advances the clock to
    /// the completion cycle) and returns the frame, or `None` when no
    /// frame is in flight.
    pub fn wait(&mut self) -> Option<CompletedFrame> {
        let completion = self.in_flight.as_ref()?.completion_cycle;
        self.clock = self.clock.max(completion);
        self.try_collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbu_render::{binning, preprocess};
    use gbu_scene::{Gaussian3D, GaussianScene};

    fn inputs() -> (Vec<Splat2D>, TileBins, Camera) {
        let cam = Camera::orbit(64, 64, 1.0, Vec3::ZERO, 3.0, 0.0, 0.0);
        let scene: GaussianScene = (0..20)
            .map(|i| {
                let a = i as f32 * 0.5;
                Gaussian3D::isotropic(
                    Vec3::new(a.cos() * 0.5, a.sin() * 0.4, 0.0),
                    0.06,
                    Vec3::splat(0.7),
                    0.8,
                )
            })
            .collect();
        let (splats, _) = preprocess::project_scene(&scene, &cam);
        let (bins, _) = binning::bin_splats(&splats, &cam, 16);
        (splats, bins, cam)
    }

    #[test]
    fn render_is_asynchronous() {
        let (splats, bins, cam) = inputs();
        let mut gbu = Gbu::new(GbuConfig::paper());
        gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
        assert_eq!(gbu.check_status(), GbuStatus::InExecution);
        assert!(gbu.try_collect().is_none(), "not finished yet");
        let frame = gbu.wait().expect("frame in flight");
        assert!(frame.run.compute_cycles > 0);
        assert_eq!(gbu.check_status(), GbuStatus::Idle);
    }

    #[test]
    fn double_submit_is_rejected() {
        let (splats, bins, cam) = inputs();
        let mut gbu = Gbu::new(GbuConfig::paper());
        gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
        let err = gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap_err();
        assert_eq!(err, DeviceError::Busy);
        gbu.wait();
        // After completion a new frame is accepted.
        gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
    }

    #[test]
    fn polling_observes_completion_after_advance() {
        let (splats, bins, cam) = inputs();
        let mut gbu = Gbu::new(GbuConfig::paper());
        gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
        // Advance far beyond any plausible frame duration.
        gbu.advance(u64::MAX / 2);
        assert_eq!(gbu.check_status(), GbuStatus::Idle);
        assert!(gbu.try_collect().is_some());
    }

    #[test]
    fn in_flight_accessors_track_progress() {
        let (splats, bins, cam) = inputs();
        let mut gbu = Gbu::new(GbuConfig::paper());
        assert_eq!(gbu.in_flight_remaining(), None);
        assert_eq!(gbu.in_flight_dram_bytes(), None);
        gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
        let total = gbu.in_flight_remaining().expect("frame in flight");
        assert!(total > 0);
        assert_eq!(gbu.in_flight_occupancy(), Some(total));
        let bytes = gbu.in_flight_dram_bytes().expect("frame in flight");
        assert!(bytes > 0);
        gbu.advance(total / 2);
        assert_eq!(gbu.in_flight_remaining(), Some(total - total / 2));
        assert_eq!(gbu.in_flight_occupancy(), Some(total), "occupancy is fixed at submit");
        gbu.advance(total); // overshoot saturates at zero
        assert_eq!(gbu.in_flight_remaining(), Some(0));
        assert!(gbu.try_collect().is_some());
        assert_eq!(gbu.in_flight_remaining(), None);
    }

    #[test]
    fn cancel_in_flight_is_noop_safe() {
        let (splats, bins, cam) = inputs();
        let mut gbu = Gbu::new(GbuConfig::paper());
        // Idle device: cancelling is a no-op.
        assert!(!gbu.cancel_in_flight());
        assert_eq!(gbu.check_status(), GbuStatus::Idle);
        // In-flight frame: cancelled, context freed, clock untouched.
        gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
        let clock = gbu.cycle();
        assert!(gbu.cancel_in_flight());
        assert_eq!(gbu.cycle(), clock);
        assert_eq!(gbu.check_status(), GbuStatus::Idle);
        assert!(gbu.try_collect().is_none(), "cancelled result is discarded");
        // The freed context accepts a new frame immediately.
        gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
        assert!(gbu.wait().is_some());
    }

    #[test]
    fn wait_on_idle_device_is_none() {
        let mut gbu = Gbu::new(GbuConfig::paper());
        assert!(gbu.wait().is_none());
        assert_eq!(gbu.check_status(), GbuStatus::Idle);
    }

    /// The counters a run is compared by (`GbuRunResult` has no
    /// `PartialEq`; the image is compared separately).
    fn counters<I>(r: &GbuRunResult<I>) -> [u64; 10] {
        [
            r.compute_cycles,
            r.rowgen_cycles,
            r.pe_busy_cycles,
            r.cache.hits,
            r.cache.accesses,
            r.dram_bytes,
            r.instances,
            r.spans,
            r.fragments,
            r.tiles,
        ]
    }

    #[test]
    fn pure_run_then_start_matches_render_image_and_render_scoped() {
        let (splats, bins, cam) = inputs();
        let plan = gbu_render::shard::ShardPlan::new(
            gbu_render::shard::ShardStrategy::ContiguousRows,
            &bins,
            2,
        );
        let shard_bins = plan.shard_bins(&bins, 1);
        for (scoped, bins) in [(false, &bins), (true, &shard_bins)] {
            let mut direct = Gbu::new(GbuConfig::paper());
            let mut composed = Gbu::new(GbuConfig::paper());
            let run = if scoped {
                direct.render_scoped(&splats, bins, &cam, Vec3::ZERO).unwrap();
                composed.run_scoped(&splats, bins, &cam, Vec3::ZERO)
            } else {
                direct.render_image(&splats, bins, &cam, Vec3::ZERO).unwrap();
                composed.run(&splats, bins, &cam, Vec3::ZERO)
            };
            // Computing a run leaves the device idle and its clock put.
            assert_eq!(composed.check_status(), GbuStatus::Idle);
            assert_eq!(composed.cycle(), 0);
            composed.start(run.clone()).unwrap();
            assert_eq!(composed.in_flight_occupancy(), Some(run.occupancy));
            assert_eq!(composed.in_flight_occupancy(), direct.in_flight_occupancy());
            assert_eq!(composed.in_flight_dram_bytes(), direct.in_flight_dram_bytes());
            assert_eq!(composed.start(run).unwrap_err(), DeviceError::Busy);
            let (a, b) = (direct.wait().unwrap(), composed.wait().unwrap());
            assert_eq!(direct.cycle(), composed.cycle(), "scoped={scoped}");
            assert_eq!(counters(&a.run), counters(&b.run), "scoped={scoped}");
            assert_eq!(a.image, b.image, "scoped={scoped}");
            // `start` moves the image into the frame instead of copying it.
            assert!(b.run.image.pixels().is_empty(), "scoped={scoped}");
        }
    }

    #[test]
    fn pixel_free_runs_match_image_runs() {
        let (splats, bins, cam) = inputs();
        let plan = gbu_render::shard::ShardPlan::new(
            gbu_render::shard::ShardStrategy::ContiguousRows,
            &bins,
            2,
        );
        let shard_bins = plan.shard_bins(&bins, 1);
        for fp16 in [true, false] {
            let gbu = Gbu::new(GbuConfig { fp16_datapath: fp16, ..GbuConfig::paper() });
            let frame =
                (gbu.run(&splats, &bins, &cam, Vec3::ZERO), gbu.run_counters(&splats, &bins, &cam));
            let shard = (
                gbu.run_scoped(&splats, &shard_bins, &cam, Vec3::ZERO),
                gbu.run_scoped_counters(&splats, &shard_bins, &cam),
            );
            for (scope, (image, free)) in [("frame", frame), ("shard", shard)] {
                assert_eq!(free.occupancy, image.occupancy, "{scope} fp16={fp16}");
                assert_eq!(free.run.cache, image.run.cache, "{scope} fp16={fp16}");
                assert_eq!(counters(&free.run), counters(&image.run), "{scope} fp16={fp16}");
            }
        }
    }

    #[test]
    fn completed_image_matches_direct_engine_run() {
        let (splats, bins, cam) = inputs();
        let cfg = GbuConfig::paper();
        let mut gbu = Gbu::new(cfg.clone());
        gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
        let frame = gbu.wait().unwrap();
        let d = gbu_hw::dnb::run(&splats, &bins, &cfg);
        let direct = TileEngine::new(cfg).render(
            &splats,
            &d,
            &bins,
            &cam,
            Vec3::ZERO,
            Policy::ReuseDistance,
        );
        assert_eq!(frame.image.max_abs_diff(&direct.image), 0.0);
    }
}
