//! Parallel Fragment Shading — the reference blending dataflow.
//!
//! Mirrors the 3DGS CUDA rasteriser (Sec. II-B "Practical
//! Implementation"): each 16×16 tile walks its depth-sorted instance list;
//! for every instance, *all* pixels of the tile evaluate Eq. 7 in lockstep
//! (11 FLOPs per fragment), discard fragments beyond the truncation
//! threshold, and α-blend the rest front-to-back. A pixel stops once its
//! transmittance drops below `1e-4`; the tile stops once every pixel has
//! stopped.
//!
//! This dataflow's per-fragment redundancy (most lockstep evaluations land
//! outside the truncated ellipse) is the paper's Challenge 2 and the
//! motivation for IRSS.
//!
//! **Counted versus computed.** [`BlendStats`] models the lockstep
//! dataflow: every instance charges one Eq. 7 evaluation
//! (`fragments_evaluated`, `q_flops`) per still-unsaturated pixel of its
//! tile. The host does not pay for that redundancy. Per instance it
//! solves, for each row of the tile, the span of pixels the truncated
//! ellipse can reach — a superset of the pixels whose f32 `q` clears the
//! threshold, proven in `CandidateSpans` — and runs the per-pixel body
//! (`q_at` → threshold test → `alpha_from_q` → blend) there only. Every
//! pixel outside the span would have failed the threshold test, so
//! images and every statistic are exactly those of the full lockstep
//! loop (pinned by `tests/pfs_equivalence.rs`).

use crate::binning::TileBins;
use crate::preprocess::pixel_center;
use crate::scratch::{BlendScratch, TileScratch};
use crate::splat::{alpha_from_q, Splat2D};
use crate::stats::{self, BlendStats, FLOPS_BLEND, FLOPS_Q_FULL};
use crate::{FrameBuffer, RenderConfig};
use gbu_math::Vec3;
use gbu_par::ThreadPool;
use gbu_scene::Camera;
use std::ops::Range;

/// Transmittance below which a pixel is considered saturated (the
/// reference's `T < 0.0001` early exit).
pub const T_SATURATED: f32 = 1e-4;

/// Blends all tiles with the PFS dataflow on the global thread pool
/// (`GBU_THREADS` / available parallelism).
pub fn blend(
    splats: &[Splat2D],
    bins: &TileBins,
    camera: &Camera,
    config: &RenderConfig,
) -> (FrameBuffer, BlendStats) {
    blend_pooled(gbu_par::global(), splats, bins, camera, config)
}

/// [`blend`] on an explicit pool (freshly allocated outputs).
pub fn blend_pooled(
    pool: &ThreadPool,
    splats: &[Splat2D],
    bins: &TileBins,
    camera: &Camera,
    config: &RenderConfig,
) -> (FrameBuffer, BlendStats) {
    let mut image = FrameBuffer::new(camera.width, camera.height, config.background);
    let mut stats = BlendStats::default();
    let mut scratch = BlendScratch::new();
    blend_into(pool, splats, bins, camera, config, &mut scratch, &mut image, &mut stats);
    (image, stats)
}

/// The allocation-free PFS entry point: blends into a caller-owned frame
/// buffer, stats record and scratch, all of which are reset here and
/// reused across frames. Tiles are independent blending work, so tile
/// rows are dispatched across the pool and merged in tile order — the
/// output is bit-identical to a serial run at any thread count (pinned
/// by `tests/parallel_equivalence.rs`).
///
/// # Panics
///
/// Panics if `image` does not match the camera's dimensions.
#[allow(clippy::too_many_arguments)] // the reuse surface *is* the point
pub fn blend_into(
    pool: &ThreadPool,
    splats: &[Splat2D],
    bins: &TileBins,
    camera: &Camera,
    config: &RenderConfig,
    scratch: &mut BlendScratch,
    image: &mut FrameBuffer,
    stats: &mut BlendStats,
) {
    assert_eq!(
        (image.width(), image.height()),
        (camera.width, camera.height),
        "framebuffer/camera size mismatch"
    );
    image.fill(config.background);
    stats.reset();
    stats.tile_instances.extend((0..bins.tile_count()).map(|t| bins.entries_of(t).len() as u32));

    struct RowJob<'a> {
        pixels: &'a mut [Vec3],
        stats: BlendStats,
        nanos: u64,
    }

    let row_px = bins.tile_size as usize * camera.width as usize;
    let mut jobs: Vec<RowJob> = image
        .pixels_mut()
        .chunks_mut(row_px)
        .map(|pixels| RowJob { pixels, stats: BlendStats::default(), nanos: 0 })
        .collect();
    let workers = pool.threads().min(jobs.len()).max(1);
    let recorder = gbu_telemetry::global();
    pool.for_each_mut_with(scratch.workers(workers), &mut jobs, |tile_scratch, ty, job| {
        // Per-tile-row spans only at high verbosity; otherwise the
        // telemetry cost on this hot path is one branch per row.
        let _row_span = recorder.detailed().then(|| {
            let labels =
                gbu_telemetry::Labels { row: Some(ty as u32), ..gbu_telemetry::Labels::default() };
            recorder.wall_span("blend_row", labels)
        });
        let t0 = std::time::Instant::now();
        blend_tile_row(
            splats,
            bins,
            camera,
            config,
            tile_scratch,
            ty as u32,
            job.pixels,
            &mut job.stats,
        );
        job.nanos = t0.elapsed().as_nanos() as u64;
    });

    scratch.record_job_nanos(jobs.iter().map(|j| j.nanos));
    for job in &jobs {
        stats::accumulate(stats, &job.stats);
    }
}

/// Blends every tile of tile row `ty` into `pixels` (the image rows this
/// tile row covers, full width) — the sequential per-tile dataflow,
/// untouched by the parallel dispatch so serial and parallel runs share
/// every floating-point operation. The scene-sharding path
/// (`crate::shard`) drives the same function per shard row, which is why
/// sharded output is bit-identical by construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn blend_tile_row(
    splats: &[Splat2D],
    bins: &TileBins,
    camera: &Camera,
    config: &RenderConfig,
    tile_scratch: &mut TileScratch,
    ty: u32,
    pixels: &mut [Vec3],
    stats: &mut BlendStats,
) {
    let width = camera.width as usize;
    for tx in 0..bins.tiles_x {
        let tile = (ty * bins.tiles_x + tx) as usize;
        let entries = bins.entries_of(tile);
        if entries.is_empty() {
            continue;
        }
        let (x0, y0, x1, y1) = bins.tile_pixel_rect(tile, camera.width, camera.height);
        let w = (x1 - x0) as usize;
        let h = (y1 - y0) as usize;
        let active_px = w * h;
        let (color, trans) = tile_scratch.tile(active_px);
        let mut alive = active_px;

        for (ei, &entry) in entries.iter().enumerate() {
            if alive == 0 {
                stats.instances_skipped_saturated += (entries.len() - ei) as u64;
                break;
            }
            stats.instances += 1;
            // The lockstep dataflow evaluates Eq. 7 on every pixel that has
            // not saturated yet. Transmittance only falls, so that is
            // exactly the `alive` count at the start of the instance.
            stats.fragments_evaluated += alive as u64;
            stats.q_flops += alive as u64 * FLOPS_Q_FULL;
            let s = &splats[entry as usize];
            let spans = CandidateSpans::new(s, (x0, y0, x1, y1));
            for py in spans.rows.clone() {
                let row = (py - y0) as usize * w;
                for px in spans.row(s, py) {
                    let idx = row + (px - x0) as usize;
                    if trans[idx] < T_SATURATED {
                        continue; // lane exited
                    }
                    let q = s.q_at(pixel_center(px, py));
                    if q > s.threshold {
                        continue;
                    }
                    stats.fragments_significant += 1;
                    let alpha = alpha_from_q(s.opacity, q);
                    stats.fragments_blended += 1;
                    stats.blend_flops += FLOPS_BLEND;
                    color[idx] += s.color * (alpha * trans[idx]);
                    trans[idx] *= 1.0 - alpha;
                    if trans[idx] < T_SATURATED {
                        alive -= 1;
                    }
                }
            }
        }

        // Composite over the background and write back. `pixels` starts
        // at image row `y0` (the tile row's first row), full width.
        for py in y0..y1 {
            for px in x0..x1 {
                let idx = (py - y0) as usize * w + (px - x0) as usize;
                pixels[(py - y0) as usize * width + px as usize] =
                    color[idx] + config.background * trans[idx];
            }
        }
    }
}

/// `γ₆ = 6u/(1 − 6u)` with `u = 2⁻²⁴`, rounded up: the relative error of
/// a product of six f32 roundings (see [`CandidateSpans`]).
const GAMMA: f64 = 3.6e-7;
/// Relative widening that covers the f64 roundings of the span solve: it
/// takes ~15 f64 operations, each off by at most `2⁻⁵³ ≈ 1.1e-16` of the
/// magnitudes involved, so `1e-12` leaves over two orders of headroom.
const WIDEN: f64 = 1e-12;

/// The pixels of one tile a splat can blend into: a range of rows and,
/// per row, a range of columns outside which `Splat2D::q_at`, *as
/// evaluated in f32*, exceeds `Th` — so the per-pixel body would discard
/// the fragment anyway.
///
/// **The bound.** In a row, the body computes `d̂y = fl(Py − µy)` and
/// `T3 = fl(fl(c·d̂y)·d̂y)`, the same for every pixel; [`Self::row`]
/// recomputes both bit for bit. With `u = 2⁻²⁴`, `dx = Px − µx` exact and
/// `d̂x = fl(Px − µx) = dx(1+δ)`, the body's
/// `q̂ = fl(fl(fl(fl(a·d̂x)·d̂x) + fl(fl(2b·d̂x)·d̂y)) + T3)` carries at
/// most six rounding factors `(1+εᵢ)`, `|εᵢ| ≤ u`, on the `a·dx²` term,
/// five on the `2b·d̂y·dx` term and one on `T3`, so
/// `|q̂ − (a·dx² + 2β·dx + T3)| ≤ γ₆·(a·dx² + 2|β·dx| + T3) + η`, where
/// `β = b·d̂y` and `η ≤ 2⁻¹⁴⁸·(|d̂x| + |d̂y| + 2)` collects underflow
/// (products may round to subnormals; sums there are exact). Hence,
/// with `A = (1−γ₆)·a` and `K = (1−γ₆)·T3 − Th − η`,
/// `q̂ − Th ≥ A·dx² + 2β·dx − 2γ₆|β·dx| + K = min over s = ±1 of
/// A·dx² + 2β(1 + s·γ₆)·dx + K`. A fragment is a candidate only if one of
/// the two quadratics is `≤ 0`; both have the discriminant
/// `≤ D = β²(1+γ₆)² − A·K` and roots within `(−β ± (γ₆|β| + √D))/A`. So
/// `D < 0` empties the row, and otherwise the span is those `dx`, widened
/// by [`WIDEN`] for the f64 arithmetic (`a`, `b`, `c`, `Th`, `µ`, `d̂y`,
/// `T3` are f32 and `b·d̂y` is exact in f64).
///
/// The row range: `T3 ≥ (1−γ₆)·c·d̂y² − η`, so `D ≤ −d̂y²·det′ + A·(Th+2η)`
/// with `det′ = A(1−γ₆)²c − b²(1+γ₆)²`. When `det′ > 0`, a row with
/// `d̂y² > A·(Th+2η)/det′` is empty, and `|d̂y| ≥ |Py − µy|·(1−u)`. When
/// `det′ ≤ 0` (near-singular or indefinite conics) every row of the tile
/// is a candidate row and only the per-row test applies.
///
/// The solve needs `a, c > 0`, a finite threshold of at least `1e-20`
/// (so `WIDEN·Th` dominates `η`), a mean within `2²⁰` px of the tile,
/// `(a + 2|b| + c)·dmax² ≤ 1e36` (so no term of `q̂` overflows and `q̂` is
/// never NaN) and pixel centres exact in f32 (coordinates below `2²²`).
/// Any other splat — non-finite, `a ≤ 0` or `c ≤ 0`, or extreme —
/// evaluates the full tile rectangle, which is the lockstep loop itself.
struct CandidateSpans {
    rows: Range<u32>,
    cols: Range<u32>,
    solve: Option<RowSolve>,
}

/// Per-instance constants of [`CandidateSpans::row`].
struct RowSolve {
    mean_x: f64,
    b: f64,
    /// `A = (1−γ₆)·a`.
    a_lo: f64,
    th: f64,
}

impl CandidateSpans {
    fn new(s: &Splat2D, (x0, y0, x1, y1): (u32, u32, u32, u32)) -> Self {
        let full = Self { rows: y0..y1, cols: x0..x1, solve: None };
        let (a, b, c) = (f64::from(s.conic.a), f64::from(s.conic.b), f64::from(s.conic.c));
        let (mx, my) = (f64::from(s.mean.x), f64::from(s.mean.y));
        let th = f64::from(s.threshold);
        let reach =
            |lo: u32, hi: u32, m: f64| (f64::from(lo) - m).abs().max((f64::from(hi) - m).abs());
        let dmax = reach(x0, x1, mx) + reach(y0, y1, my);
        let solvable = a > 0.0
            && c > 0.0
            && (1e-20..=f64::from(f32::MAX)).contains(&th)
            && dmax <= f64::from(1u32 << 20)
            && (a + 2.0 * b.abs() + c) * dmax * dmax <= 1e36
            && x1.max(y1) < 1 << 22;
        if !solvable {
            return full;
        }
        let a_lo = (1.0 - GAMMA) * a;
        let bb = b * b * (1.0 + GAMMA) * (1.0 + GAMMA);
        let det = a_lo * (1.0 - GAMMA) * (1.0 - GAMMA) * c - bb;
        let det = det - WIDEN * (a_lo * c + bb);
        let rows = if det > 0.0 {
            // `(1 + WIDEN)` covers `2η ≤ 2⁻¹²⁶ ≪ WIDEN·Th`; `(1 + 1e-7)`
            // covers `1/(1−u)` and the f64 roundings.
            let reach_y = (a_lo * th * (1.0 + WIDEN) / det).sqrt() * (1.0 + 1e-7);
            let pad = WIDEN * (my.abs() + reach_y + 1.0);
            // Row `py` has its centre at `py + 0.5`.
            let first = (my - 0.5 - reach_y - pad).ceil().max(f64::from(y0));
            let last = (my - 0.5 + reach_y + pad).floor().min(f64::from(y1) - 1.0);
            if first > last {
                y0..y0
            } else {
                first as u32..last as u32 + 1
            }
        } else {
            y0..y1
        };
        Self { rows, cols: x0..x1, solve: Some(RowSolve { mean_x: mx, b, a_lo, th }) }
    }

    /// The candidate columns of row `py`.
    #[inline]
    fn row(&self, s: &Splat2D, py: u32) -> Range<u32> {
        let Some(r) = &self.solve else { return self.cols.clone() };
        let (x0, x1) = (self.cols.start, self.cols.end);
        // The body's own f32 values for this row.
        let dy = pixel_center(x0, py).y - s.mean.y;
        let t3 = f64::from(s.conic.c * dy * dy);
        let beta = r.b * f64::from(dy);
        let k = (1.0 - GAMMA) * t3 - r.th;
        let bb = beta.abs() * (1.0 + GAMMA);
        let disc = bb * bb - r.a_lo * k;
        // Covers the f64 roundings of `disc` (including the cancellation
        // in `k`) and `η ≤ 2⁻¹²⁷ ≪ WIDEN·Th`.
        let err = WIDEN * (bb * bb + r.a_lo * (t3 + r.th));
        if disc + err < 0.0 {
            return x0..x0;
        }
        let half = GAMMA * beta.abs() + (disc.max(0.0) + err).sqrt();
        let pad = WIDEN * ((beta.abs() + half) / r.a_lo + r.mean_x.abs() + 1.0);
        // Column `px` has its centre at `px + 0.5`: `dx = px + 0.5 − µx`.
        let first = (r.mean_x - 0.5 + (-beta - half) / r.a_lo - pad).ceil().max(f64::from(x0));
        let last =
            (r.mean_x - 0.5 + (-beta + half) / r.a_lo + pad).floor().min(f64::from(x1) - 1.0);
        if first > last {
            x0..x0
        } else {
            first as u32..last as u32 + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::bin_splats;
    use crate::preprocess::project_scene;
    use gbu_math::approx_eq;
    use gbu_scene::{Gaussian3D, GaussianScene};

    fn camera() -> Camera {
        Camera::orbit(64, 64, 1.0, Vec3::ZERO, 3.0, 0.0, 0.0)
    }

    fn render_one(scene: &GaussianScene) -> (FrameBuffer, BlendStats) {
        let cam = camera();
        let cfg = RenderConfig::default();
        let (splats, _) = project_scene(scene, &cam);
        let (bins, _) = bin_splats(&splats, &cam, cfg.tile_size);
        blend(&splats, &bins, &cam, &cfg)
    }

    #[test]
    fn single_gaussian_peaks_at_center() {
        let scene: GaussianScene =
            std::iter::once(Gaussian3D::isotropic(Vec3::ZERO, 0.15, Vec3::new(1.0, 0.0, 0.0), 0.9))
                .collect();
        let (img, stats) = render_one(&scene);
        // The image centre must be strongly red; corners black.
        let c = img.get(32, 32);
        assert!(c.x > 0.5, "centre {c}");
        assert!(img.get(1, 1).x < 0.05);
        assert!(stats.fragments_blended > 0);
        assert!(stats.fragments_significant <= stats.fragments_evaluated);
    }

    #[test]
    fn empty_scene_is_background() {
        let scene = GaussianScene::new();
        let cam = camera();
        let cfg = RenderConfig { background: Vec3::new(0.2, 0.3, 0.4), ..Default::default() };
        let (splats, _) = project_scene(&scene, &cam);
        let (bins, _) = bin_splats(&splats, &cam, cfg.tile_size);
        let (img, stats) = blend(&splats, &bins, &cam, &cfg);
        assert_eq!(img.get(10, 10), Vec3::new(0.2, 0.3, 0.4));
        assert_eq!(stats.fragments_evaluated, 0);
    }

    #[test]
    fn front_gaussian_occludes_back() {
        let cam = camera();
        let dir = (Vec3::ZERO - cam.position()).normalized();
        let front =
            Gaussian3D::isotropic(cam.position() + dir * 2.0, 0.2, Vec3::new(1.0, 0.0, 0.0), 0.99);
        let back =
            Gaussian3D::isotropic(cam.position() + dir * 4.0, 0.4, Vec3::new(0.0, 1.0, 0.0), 0.99);
        // Insert back first to prove sorting handles order.
        let scene: GaussianScene = vec![back, front].into_iter().collect();
        let (img, _) = render_one(&scene);
        let c = img.get(32, 32);
        assert!(c.x > 3.0 * c.y, "front red must dominate: {c}");
    }

    #[test]
    fn blending_order_is_depth_not_insertion() {
        let cam = camera();
        let dir = (Vec3::ZERO - cam.position()).normalized();
        let a =
            Gaussian3D::isotropic(cam.position() + dir * 2.0, 0.2, Vec3::new(1.0, 0.0, 0.0), 0.99);
        let b =
            Gaussian3D::isotropic(cam.position() + dir * 4.0, 0.4, Vec3::new(0.0, 1.0, 0.0), 0.99);
        let s1: GaussianScene = vec![a.clone(), b.clone()].into_iter().collect();
        let s2: GaussianScene = vec![b, a].into_iter().collect();
        let (i1, _) = render_one(&s1);
        let (i2, _) = render_one(&s2);
        assert!(i1.max_abs_diff(&i2) < 1e-6, "insertion order must not matter");
    }

    #[test]
    fn opaque_wall_saturates_pixels() {
        let cam = camera();
        let dir = (Vec3::ZERO - cam.position()).normalized();
        // Many broad opaque Gaussians at the same spot: transmittance
        // collapses across whole tiles and later instances are skipped.
        let scene: GaussianScene = (0..100)
            .map(|i| {
                Gaussian3D::isotropic(
                    cam.position() + dir * (2.0 + i as f32 * 0.005),
                    1.0,
                    Vec3::ONE,
                    0.99,
                )
            })
            .collect();
        let (img, stats) = render_one(&scene);
        assert!(stats.instances_skipped_saturated > 0, "saturation early-out must trigger");
        let c = img.get(32, 32);
        assert!(approx_eq(c.x, 1.0, 1e-2));
    }

    #[test]
    fn flop_accounting_matches_fragments() {
        let scene: GaussianScene =
            std::iter::once(Gaussian3D::isotropic(Vec3::ZERO, 0.15, Vec3::ONE, 0.9)).collect();
        let (_, stats) = render_one(&scene);
        assert_eq!(stats.q_flops, stats.fragments_evaluated * FLOPS_Q_FULL);
        assert_eq!(stats.blend_flops, stats.fragments_blended * FLOPS_BLEND);
        assert!((stats.q_flops_per_fragment() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn transmittance_never_negative() {
        let cam = camera();
        let scene: GaussianScene = (0..20)
            .map(|i| {
                Gaussian3D::isotropic(
                    Vec3::new(0.02 * i as f32, 0.0, 0.0),
                    0.2,
                    Vec3::new(0.5, 0.5, 0.5),
                    0.99,
                )
            })
            .collect();
        let cfg = RenderConfig::default();
        let (splats, _) = project_scene(&scene, &cam);
        let (bins, _) = bin_splats(&splats, &cam, cfg.tile_size);
        let (img, _) = blend(&splats, &bins, &cam, &cfg);
        // Energy conservation: no pixel exceeds the (white) source color.
        for p in img.pixels() {
            assert!(p.x <= 1.0 + 1e-4 && p.y <= 1.0 + 1e-4 && p.z <= 1.0 + 1e-4);
            assert!(p.x >= 0.0);
        }
    }

    #[test]
    fn tile_instances_recorded() {
        let scene: GaussianScene =
            std::iter::once(Gaussian3D::isotropic(Vec3::ZERO, 0.3, Vec3::ONE, 0.9)).collect();
        let (_, stats) = render_one(&scene);
        let total: u32 = stats.tile_instances.iter().sum();
        assert!(total > 0);
        assert_eq!(stats.tile_instances.len(), 16); // 64/16 x 64/16 tiles
    }
}
