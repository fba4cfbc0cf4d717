//! The Row-Centric Tile Engine (Sec. V-C, Fig. 10/11).
//!
//! Renders 16×16 tiles one by one. A **Row Generation Engine** walks the
//! tile's depth-ordered instance list; for each instance it evaluates all
//! 16 row tests in parallel (threshold computation + comparator array),
//! locates first fragments, and forwards row tasks to the owning **Row
//! PE**'s FIFO. Each of the 8 Row PEs owns 2 pixel rows and shades one
//! fragment per cycle, keeping accumulated pixel colors stationary in its
//! Row Pixel Buffer. Because rows progress *asynchronously*, the workload
//! imbalance that strands SIMT lanes on a GPU (Limitation 1) becomes
//! simple queue slack here — the paper's central hardware argument.
//!
//! The engine is simultaneously a *functional* model (it produces the
//! image, optionally through the FP-16 datapath of Sec. VI-B) and a
//! *timing* model (cycles per tile from the queue dynamics), driven by the
//! same row-span logic as the software IRSS implementation so the two
//! agree by construction.

use crate::cache::{CacheStats, GaussianReuseCache, Policy};
use crate::config::GbuConfig;
use crate::dnb::DnbResult;
use gbu_math::{Vec3, F16};
use gbu_par::ThreadPool;
use gbu_render::binning::TileBins;
use gbu_render::irss::RowOutcome;
use gbu_render::{alpha_from_q, FrameBuffer, Splat2D};
use gbu_scene::Camera;
use gbu_telemetry::Labels;

/// Transmittance cutoff, identical to the software rasteriser.
const T_SATURATED: f32 = 1e-4;

/// The Tile PE: configuration plus rendering entry points.
#[derive(Debug, Clone, Default)]
pub struct TileEngine {
    /// Hardware parameters.
    pub config: GbuConfig,
}

/// Result of rendering one frame on the GBU.
///
/// `I` is what the run keeps of its pixels: the [`FrameBuffer`] of an
/// image run ([`TileEngine::render`]), or `()` for a pixel-free run
/// ([`TileEngine::render_counters`]), whose counters are the image
/// run's exactly.
#[derive(Debug, Clone)]
pub struct GbuRunResult<I = FrameBuffer> {
    /// The rendered image (FP-16 datapath when configured).
    pub image: I,
    /// Total Tile-PE cycles for the frame (sum over tiles of the
    /// per-tile critical path, plus per-tile overhead).
    pub compute_cycles: u64,
    /// Cycles the Row Generation Engine was busy.
    pub rowgen_cycles: u64,
    /// Total busy cycles summed over all Row PEs.
    pub pe_busy_cycles: u64,
    /// Gaussian Reuse Cache statistics.
    pub cache: CacheStats,
    /// Off-chip bytes fetched for input features (misses × record size).
    pub dram_bytes: u64,
    /// (splat, tile) instances processed.
    pub instances: u64,
    /// Row tasks dispatched to Row PEs.
    pub spans: u64,
    /// Fragments shaded (threshold-unit evaluations).
    pub fragments: u64,
    /// Occupied tiles rendered.
    pub tiles: u64,
}

impl<I> GbuRunResult<I> {
    /// Mean row-unit utilization: busy cycles over available row-unit
    /// cycles (each Row PE runs its two rows on parallel lanes, so a tile
    /// has `row_pes × rows_per_pe` row units). Contrast with the 18.9%
    /// SIMT utilization of the GPU mapping — the asynchronous rows keep
    /// this high (Fig. 10).
    pub fn pe_utilization(&self, cfg: &GbuConfig) -> f64 {
        if self.compute_cycles == 0 {
            return 0.0;
        }
        self.pe_busy_cycles as f64 / (self.compute_cycles as f64 * f64::from(cfg.covered_rows()))
    }

    /// Frame time in seconds at the configured clock.
    pub fn seconds(&self, cfg: &GbuConfig) -> f64 {
        cfg.cycles_to_seconds(self.compute_cycles)
    }
}

/// What a run keeps of its pixels: the pixel rows the Row PEs flush
/// into (empty when the run keeps no image).
trait RunImage: Send {
    fn pixels(&mut self) -> &mut [Vec3];
}

impl RunImage for FrameBuffer {
    fn pixels(&mut self) -> &mut [Vec3] {
        self.pixels_mut()
    }
}

impl RunImage for () {
    fn pixels(&mut self) -> &mut [Vec3] {
        &mut []
    }
}

/// Per-pixel blending state, generic over the datapath precision.
/// (`Send` so per-worker pixel buffers can live on pool workers.)
trait PixelState: Clone + Send {
    fn fresh() -> Self;
    /// An instance's color as the datapath holds it, converted once per
    /// instance and passed to every [`PixelState::blend`] of it.
    fn instance_color(color: Vec3) -> Vec3 {
        color
    }
    fn transmittance(&self) -> f32;
    fn blend(&mut self, alpha: f32, color: Vec3);
    fn color(&self) -> Vec3;
}

/// FP32 state (used to validate against the software IRSS blender).
#[derive(Clone)]
struct StateF32 {
    color: Vec3,
    trans: f32,
}

impl PixelState for StateF32 {
    fn fresh() -> Self {
        Self { color: Vec3::ZERO, trans: 1.0 }
    }
    fn transmittance(&self) -> f32 {
        self.trans
    }
    fn blend(&mut self, alpha: f32, color: Vec3) {
        self.color += color * (alpha * self.trans);
        self.trans *= 1.0 - alpha;
    }
    fn color(&self) -> Vec3 {
        self.color
    }
}

/// FP16 state modelling the Row PE datapath (Sec. VI-B): every
/// intermediate — α, the running color and the transmittance — is rounded
/// to binary16 per operation, which is the source of Tab. IV's ≤0.1 PSNR
/// loss. The values are held in `f32`, each one an exact binary16
/// number, and every operation rounds through [`F16::round_f32`]: bit
/// for bit the arithmetic of [`F16`] (an `F16` product or sum is the
/// `f32` operation on the decoded values, rounded once).
#[derive(Clone)]
struct StateF16 {
    color: Vec3,
    trans: f32,
}

fn round3(v: Vec3) -> Vec3 {
    Vec3::new(F16::round_f32(v.x), F16::round_f32(v.y), F16::round_f32(v.z))
}

impl PixelState for StateF16 {
    fn fresh() -> Self {
        Self { color: Vec3::ZERO, trans: 1.0 }
    }
    fn instance_color(color: Vec3) -> Vec3 {
        round3(color)
    }
    fn transmittance(&self) -> f32 {
        self.trans
    }
    fn blend(&mut self, alpha: f32, color: Vec3) {
        let a = F16::round_f32(alpha);
        let w = F16::round_f32(a * self.trans);
        // The FMA units: `color * w + acc` with a single rounding.
        self.color = round3(color * w + self.color);
        self.trans = F16::round_f32(self.trans * F16::round_f32(1.0 - a));
    }
    fn color(&self) -> Vec3 {
        self.color
    }
}

/// No pixel state: a run that keeps no image. Cycles, fragments, the
/// cache and DRAM traffic never read pixel state (a saturated pixel is
/// still marched and counted, only its blend is skipped), so this run
/// counts exactly what an image run counts.
#[derive(Clone)]
struct NoPixels;

impl PixelState for NoPixels {
    fn fresh() -> Self {
        NoPixels
    }
    fn transmittance(&self) -> f32 {
        1.0
    }
    fn blend(&mut self, _alpha: f32, _color: Vec3) {}
    fn color(&self) -> Vec3 {
        Vec3::ZERO
    }
}

impl TileEngine {
    /// Creates a tile engine with the given configuration.
    pub fn new(config: GbuConfig) -> Self {
        Self { config }
    }

    /// Renders a frame: functional image plus cycle/cache/DRAM accounting.
    ///
    /// `policy` selects the reuse-cache replacement policy (the paper's
    /// reuse-distance policy by default); the cache capacity comes from
    /// the configuration (`cache_kib = 0` disables caching, the "0 KB"
    /// point of Fig. 17 and the "+GBU Tile Engine"-only ablation row).
    pub fn render(
        &self,
        splats: &[Splat2D],
        dnb: &DnbResult,
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
        policy: Policy,
    ) -> GbuRunResult {
        self.render_pooled(gbu_par::global(), splats, dnb, bins, camera, background, policy)
    }

    /// [`TileEngine::render`] on an explicit thread pool.
    ///
    /// The run splits into two phases: the Gaussian Reuse Cache is one
    /// shared structure whose state threads through the whole frame, so
    /// its simulation walks the D&B access trace serially (one ordered
    /// index update per access, one victim lookup per miss); the
    /// per-tile shading and queue timing is independent per tile and is
    /// dispatched across the pool one tile row at a time. Results are
    /// merged in tile order, so cycle counts and the image are identical
    /// at every thread count.
    #[allow(clippy::too_many_arguments)]
    pub fn render_pooled(
        &self,
        pool: &ThreadPool,
        splats: &[Splat2D],
        dnb: &DnbResult,
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
        policy: Policy,
    ) -> GbuRunResult {
        let image = FrameBuffer::new(camera.width, camera.height, background);
        if self.config.fp16_datapath {
            self.render_with::<StateF16, _>(
                pool, splats, dnb, bins, camera, background, policy, image,
            )
        } else {
            self.render_with::<StateF32, _>(
                pool, splats, dnb, bins, camera, background, policy, image,
            )
        }
    }

    /// [`TileEngine::render`] without the image: the same counters —
    /// cycles, cache statistics, DRAM bytes, instances, spans, fragments
    /// and tiles — for hosts that discard the pixels, at the cost of
    /// marching the fragments but shading none.
    pub fn render_counters(
        &self,
        splats: &[Splat2D],
        dnb: &DnbResult,
        bins: &TileBins,
        camera: &Camera,
        policy: Policy,
    ) -> GbuRunResult<()> {
        let pool = gbu_par::global();
        self.render_with::<NoPixels, _>(pool, splats, dnb, bins, camera, Vec3::ZERO, policy, ())
    }

    #[allow(clippy::too_many_arguments)]
    fn render_with<S: PixelState, I: RunImage>(
        &self,
        pool: &ThreadPool,
        splats: &[Splat2D],
        dnb: &DnbResult,
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
        policy: Policy,
        mut image: I,
    ) -> GbuRunResult<I> {
        assert_eq!(dnb.transforms.len(), splats.len(), "D&B transforms mismatch splat list");
        let cfg = &self.config;
        assert_eq!(cfg.covered_rows(), 16, "Row PEs must cover the 16-row tile");
        let recorder = gbu_telemetry::global();

        // Phase 1 — the Gaussian Reuse Cache over the full access trace
        // (instance stream in tile order), exactly as the D&B engine
        // feeds it.
        let phase = recorder.wall_span("device.reuse_cache", Labels::default());
        let mut cache = GaussianReuseCache::new(cfg.cache_lines(), policy);
        let mut dram_bytes = 0;
        for (pos, &entry) in dnb.access_trace.iter().enumerate() {
            if !cache.access(entry, dnb.next_use[pos]) {
                dram_bytes += cfg.bytes_per_miss;
            }
        }
        drop(phase);

        // Phase 2 — per-tile shading and Row-PE queue timing, tile rows
        // in parallel. Each job owns its slice of image rows (none when
        // the run keeps no image); per-worker scratch holds the tile
        // pixel states and Row-PE free times.
        let _phase = recorder.wall_span("device.tile_shade", Labels::default());
        struct RowJob<'a> {
            ty: u32,
            pixels: &'a mut [Vec3],
            compute_cycles: u64,
            rowgen_cycles: u64,
            pe_busy_cycles: u64,
            instances: u64,
            spans: u64,
            fragments: u64,
            tiles: u64,
        }
        struct WorkerScratch<S> {
            state: Vec<S>,
            pe_free: Vec<u64>,
        }

        let tile_px = (bins.tile_size * bins.tile_size) as usize;
        let row_px = bins.tile_size as usize * camera.width as usize;
        let width = camera.width as usize;
        let mut rows = image.pixels().chunks_mut(row_px);
        let mut jobs: Vec<RowJob> = (0..bins.tiles_y)
            .map(|ty| RowJob {
                ty,
                pixels: rows.next().unwrap_or_default(),
                compute_cycles: 0,
                rowgen_cycles: 0,
                pe_busy_cycles: 0,
                instances: 0,
                spans: 0,
                fragments: 0,
                tiles: 0,
            })
            .collect();
        let workers = pool.threads().min(jobs.len()).max(1);
        let mut scratch: Vec<WorkerScratch<S>> = (0..workers)
            .map(|_| WorkerScratch {
                state: vec![S::fresh(); tile_px],
                pe_free: vec![0u64; cfg.covered_rows() as usize],
            })
            .collect();

        pool.for_each_mut_with(&mut scratch, &mut jobs, |ws, _, job| {
            for tx in 0..bins.tiles_x {
                let tile = (job.ty * bins.tiles_x + tx) as usize;
                let entries = bins.entries_of(tile);
                if entries.is_empty() {
                    continue;
                }
                debug_assert_eq!(
                    &dnb.access_trace[bins.offsets[tile]..bins.offsets[tile + 1]],
                    entries,
                    "trace desync"
                );
                job.tiles += 1;
                let (x0, y0, x1, y1) = bins.tile_pixel_rect(tile, camera.width, camera.height);
                let w = (x1 - x0) as usize;
                let state = &mut ws.state;
                for s in state.iter_mut().take(w * (y1 - y0) as usize) {
                    *s = S::fresh();
                }
                let mut rowgen_t = 0u64;
                let pe_free = &mut ws.pe_free;
                pe_free.fill(0);

                for &entry in entries {
                    job.instances += 1;
                    let isp = &dnb.transforms[entry as usize];
                    let color = S::instance_color(isp.color);
                    rowgen_t += cfg.rowgen_instance_cycles;

                    let mut nspans = 0u64;
                    for py in y0..y1 {
                        let outcome = isp.row_outcome(py, x0, x1);
                        let RowOutcome::Span(span) = outcome else { continue };
                        nspans += 1;
                        let row_idx = (py - y0) as usize;
                        let mut frags = 0u64;
                        isp.march(&span, x1, |px, q| {
                            frags += 1;
                            let idx = row_idx * w + (px - x0) as usize;
                            let st = &mut state[idx];
                            if st.transmittance() < T_SATURATED {
                                return;
                            }
                            st.blend(alpha_from_q(isp.opacity, q), color);
                        });
                        // The marching above counts interior fragments;
                        // the terminating out-of-threshold fragment also
                        // occupies a threshold-unit cycle.
                        let evaluated = frags + u64::from(span.first_x as u64 + frags < x1 as u64);
                        job.fragments += evaluated;
                        let task =
                            cfg.rowpe_setup_cycles + evaluated.div_ceil(cfg.rowpe_frags_per_cycle);
                        let start = rowgen_t.max(pe_free[row_idx]);
                        pe_free[row_idx] = start + task;
                        job.pe_busy_cycles += task;
                    }
                    job.spans += nspans;
                    rowgen_t += nspans.div_ceil(cfg.rowgen_spans_per_cycle);
                }

                let tile_cycles = rowgen_t.max(pe_free.iter().copied().max().unwrap_or(0))
                    + cfg.tile_overhead_cycles;
                job.compute_cycles += tile_cycles;
                job.rowgen_cycles += rowgen_t;

                // Flush the row pixel buffers to this tile row's slice of
                // the frame buffer (`pixels` starts at image row `y0`).
                if job.pixels.is_empty() {
                    continue;
                }
                for py in y0..y1 {
                    for px in x0..x1 {
                        let st = &state[(py - y0) as usize * w + (px - x0) as usize];
                        job.pixels[(py - y0) as usize * width + px as usize] =
                            st.color() + background * st.transmittance();
                    }
                }
            }
        });

        let total = |count: fn(&RowJob) -> u64| jobs.iter().map(count).sum();
        let compute_cycles = total(|j| j.compute_cycles);
        let rowgen_cycles = total(|j| j.rowgen_cycles);
        let pe_busy_cycles = total(|j| j.pe_busy_cycles);
        let instances = total(|j| j.instances);
        let spans = total(|j| j.spans);
        let fragments = total(|j| j.fragments);
        let tiles = total(|j| j.tiles);
        drop(jobs);
        GbuRunResult {
            image,
            compute_cycles,
            rowgen_cycles,
            pe_busy_cycles,
            cache: cache.stats(),
            dram_bytes,
            instances,
            spans,
            fragments,
            tiles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnb;
    use gbu_render::binning::bin_splats;
    use gbu_render::metrics::psnr;
    use gbu_render::preprocess::project_scene;
    use gbu_render::{render_irss, RenderConfig};
    use gbu_scene::{Camera, Gaussian3D, GaussianScene};

    fn test_scene(n: usize) -> (GaussianScene, Camera) {
        let cam = Camera::orbit(96, 64, 1.0, Vec3::ZERO, 3.0, 0.5, 0.2);
        let scene: GaussianScene = (0..n)
            .map(|i| {
                let a = i as f32 * 0.47;
                Gaussian3D::isotropic(
                    Vec3::new(a.cos() * 0.7, (a * 1.3).sin() * 0.4, a.sin() * 0.6),
                    0.04 + 0.015 * ((i % 7) as f32),
                    Vec3::new(
                        0.2 + 0.6 * ((i % 5) as f32) / 5.0,
                        0.9 - 0.6 * ((i % 3) as f32) / 3.0,
                        0.5,
                    ),
                    0.25 + 0.6 * ((i % 4) as f32) / 4.0,
                )
            })
            .collect();
        (scene, cam)
    }

    fn run_engine(cfg: GbuConfig, n: usize) -> (GbuRunResult, GbuConfig, FrameBuffer) {
        let (scene, cam) = test_scene(n);
        let (splats, _) = project_scene(&scene, &cam);
        let (bins, _) = bin_splats(&splats, &cam, 16);
        let d = dnb::run(&splats, &bins, &cfg);
        let engine = TileEngine::new(cfg.clone());
        let r = engine.render(&splats, &d, &bins, &cam, Vec3::ZERO, Policy::ReuseDistance);
        let sw = render_irss(&scene, &cam, &RenderConfig::default());
        (r, cfg, sw.image)
    }

    /// The counters a run is compared by, in a fixed order.
    fn counters<I>(r: &GbuRunResult<I>) -> [u64; 11] {
        [
            r.compute_cycles,
            r.rowgen_cycles,
            r.pe_busy_cycles,
            r.cache.accesses,
            r.cache.hits,
            r.cache.misses,
            r.dram_bytes,
            r.instances,
            r.spans,
            r.fragments,
            r.tiles,
        ]
    }

    /// FNV-1a over the bit patterns of every pixel channel.
    fn image_hash(image: &FrameBuffer) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for p in image.pixels() {
            for c in [p.x, p.y, p.z] {
                for b in c.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    /// The golden scene: 300 overlapping splats on a 128×96 frame, dense
    /// enough to saturate pixels and, with a 1 KiB cache, to evict.
    fn golden_inputs() -> (Vec<Splat2D>, TileBins, Camera) {
        let (scene, _) = test_scene(300);
        let cam = Camera::orbit(128, 96, 1.0, Vec3::ZERO, 3.0, 0.5, 0.2);
        let (splats, _) = project_scene(&scene, &cam);
        let (bins, _) = bin_splats(&splats, &cam, 16);
        (splats, bins, cam)
    }

    /// Pins the FP16 (and one FP32) image bit for bit and every counter
    /// on a fixed scene, across the three cache policies. The values were
    /// produced by the `F16`-encoded datapath with the linear-scan cache
    /// victim, so any change to the datapath's rounding or to the
    /// cache's choices shows here.
    #[test]
    fn golden_image_and_counters() {
        let small = GbuConfig { cache_kib: 1, ..GbuConfig::paper() };
        let cases = [
            (GbuConfig::paper(), Policy::ReuseDistance, 0xf276_0aed_3dbd_a3a6, [45_000, 933, 300]),
            (small.clone(), Policy::ReuseDistance, 0xf276_0aed_3dbd_a3a6, [123_900, 407, 826]),
            (small.clone(), Policy::Lru, 0xf276_0aed_3dbd_a3a6, [169_050, 106, 1127]),
            (
                GbuConfig { fp16_datapath: false, ..small },
                Policy::Fifo,
                0x3100_d476_6115_f696,
                [162_750, 148, 1085],
            ),
        ];
        let (splats, bins, cam) = golden_inputs();
        for (cfg, policy, hash, [dram, hits, misses]) in cases {
            let d = dnb::run(&splats, &bins, &cfg);
            let r = TileEngine::new(cfg).render(
                &splats,
                &d,
                &bins,
                &cam,
                Vec3::new(0.1, 0.2, 0.3),
                policy,
            );
            assert_eq!(image_hash(&r.image), hash, "image bits under {policy:?}");
            let want = [8467, 2346, 84_559, 1233, hits, misses, dram, 1233, 9155, 75_404, 19];
            assert_eq!(counters(&r), want, "counters under {policy:?}");
        }
    }

    /// A pixel-free run counts exactly what the image run counts, for
    /// both datapaths and every policy.
    #[test]
    fn pixel_free_run_counts_what_the_image_run_counts() {
        let (splats, bins, cam) = golden_inputs();
        for fp16 in [true, false] {
            for policy in [Policy::ReuseDistance, Policy::Lru, Policy::Fifo] {
                let cfg = GbuConfig { fp16_datapath: fp16, cache_kib: 1, ..GbuConfig::paper() };
                let d = dnb::run(&splats, &bins, &cfg);
                let engine = TileEngine::new(cfg);
                let image = engine.render(&splats, &d, &bins, &cam, Vec3::ZERO, policy);
                let free = engine.render_counters(&splats, &d, &bins, &cam, policy);
                assert_eq!(counters(&free), counters(&image), "fp16={fp16} {policy:?}");
            }
        }
    }

    #[test]
    fn fp32_engine_matches_software_irss() {
        let cfg = GbuConfig { fp16_datapath: false, ..GbuConfig::paper() };
        let (r, _, sw_image) = run_engine(cfg, 60);
        let diff = r.image.max_abs_diff(&sw_image);
        assert!(diff < 1e-5, "hardware FP32 path must equal software IRSS, diff {diff}");
    }

    #[test]
    fn fp16_engine_is_close_but_not_identical() {
        let (r, _, sw_image) = run_engine(GbuConfig::paper(), 60);
        let p = psnr(&sw_image, &r.image);
        // Tab. IV: FP-16 costs < 0.1 dB at paper scale; on a small frame
        // anything above ~40 dB is the same visual quality.
        assert!(p > 40.0, "FP16 PSNR vs FP32 reference: {p}");
        assert!(p.is_finite(), "FP16 must differ from FP32 at some pixel");
    }

    #[test]
    fn cycle_accounting_is_consistent() {
        let (r, cfg, _) = run_engine(GbuConfig::paper(), 60);
        assert!(r.compute_cycles > 0);
        assert!(r.rowgen_cycles <= r.compute_cycles);
        assert!(r.pe_busy_cycles > 0);
        let util = r.pe_utilization(&cfg);
        assert!(util > 0.0 && util <= 1.0, "PE utilization {util}");
        assert!(r.fragments >= r.spans, "every span shades at least one fragment");
        assert!(r.instances > 0 && r.tiles > 0);
    }

    #[test]
    fn cache_hits_reduce_dram_traffic() {
        let (r, cfg, _) = run_engine(GbuConfig::paper(), 80);
        assert_eq!(r.dram_bytes, r.cache.misses * cfg.bytes_per_miss);
        assert_eq!(r.cache.accesses, r.instances);
        // Splats spanning multiple tiles are re-accessed: hits must occur.
        assert!(r.cache.hits > 0, "expected feature reuse across tiles");
    }

    #[test]
    fn no_cache_means_every_access_misses() {
        let cfg = GbuConfig { cache_kib: 0, ..GbuConfig::paper() };
        let (scene, cam) = test_scene(40);
        let (splats, _) = project_scene(&scene, &cam);
        let (bins, _) = bin_splats(&splats, &cam, 16);
        let d = dnb::run(&splats, &bins, &cfg);
        let r = TileEngine::new(cfg.clone()).render(
            &splats,
            &d,
            &bins,
            &cam,
            Vec3::ZERO,
            Policy::ReuseDistance,
        );
        assert_eq!(r.cache.hits, 0);
        assert_eq!(r.dram_bytes, r.instances * cfg.bytes_per_miss);
    }

    #[test]
    fn more_row_pes_do_not_slow_down() {
        let base = GbuConfig::paper();
        let wide = GbuConfig { row_pes: 16, rows_per_pe: 1, ..GbuConfig::paper() };
        let (r_base, _, _) = run_engine(base, 60);
        let (r_wide, _, _) = run_engine(wide, 60);
        assert!(
            r_wide.compute_cycles <= r_base.compute_cycles,
            "16 single-row PEs ({}) must not be slower than 8 double-row PEs ({})",
            r_wide.compute_cycles,
            r_base.compute_cycles
        );
    }

    #[test]
    fn empty_scene_renders_background() {
        let cfg = GbuConfig::paper();
        let cam = Camera::orbit(64, 64, 1.0, Vec3::ZERO, 3.0, 0.0, 0.0);
        let splats: Vec<Splat2D> = vec![];
        let (bins, _) = bin_splats(&splats, &cam, 16);
        let d = dnb::run(&splats, &bins, &cfg);
        let bg = Vec3::new(0.1, 0.2, 0.3);
        let r = TileEngine::new(cfg).render(&splats, &d, &bins, &cam, bg, Policy::ReuseDistance);
        assert_eq!(r.compute_cycles, 0);
        assert_eq!(r.image.get(5, 5), bg);
    }

    #[test]
    fn engine_is_bit_identical_across_thread_counts() {
        let cfg = GbuConfig::paper();
        let (scene, cam) = test_scene(70);
        let (splats, _) = gbu_render::preprocess::project_scene(&scene, &cam);
        let (bins, _) = bin_splats(&splats, &cam, 16);
        let d = dnb::run(&splats, &bins, &cfg);
        let engine = TileEngine::new(cfg);
        let run = |threads: usize| {
            let pool = gbu_par::ThreadPool::new(threads);
            engine.render_pooled(&pool, &splats, &d, &bins, &cam, Vec3::ZERO, Policy::ReuseDistance)
        };
        let reference = run(1);
        for threads in [2, 4, 8] {
            let r = run(threads);
            assert_eq!(r.image.pixels(), reference.image.pixels(), "image @ {threads} threads");
            assert_eq!(r.compute_cycles, reference.compute_cycles, "cycles @ {threads} threads");
            assert_eq!(r.rowgen_cycles, reference.rowgen_cycles);
            assert_eq!(r.pe_busy_cycles, reference.pe_busy_cycles);
            assert_eq!(r.cache, reference.cache, "cache stats @ {threads} threads");
            assert_eq!(r.dram_bytes, reference.dram_bytes);
            assert_eq!(
                (r.instances, r.spans, r.fragments, r.tiles),
                (reference.instances, reference.spans, reference.fragments, reference.tiles)
            );
        }
    }

    #[test]
    fn reuse_distance_policy_beats_fifo_on_real_frames() {
        let cfg = GbuConfig { cache_kib: 1, ..GbuConfig::paper() };
        let (scene, cam) = test_scene(120);
        let (splats, _) = project_scene(&scene, &cam);
        let (bins, _) = bin_splats(&splats, &cam, 16);
        let d = dnb::run(&splats, &bins, &cfg);
        let engine = TileEngine::new(cfg);
        let rd = engine.render(&splats, &d, &bins, &cam, Vec3::ZERO, Policy::ReuseDistance);
        let fifo = engine.render(&splats, &d, &bins, &cam, Vec3::ZERO, Policy::Fifo);
        assert!(
            rd.cache.hits >= fifo.cache.hits,
            "reuse-distance ({}) must not lose to FIFO ({})",
            rd.cache.hits,
            fifo.cache.hits
        );
    }
}
