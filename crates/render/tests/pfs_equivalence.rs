//! The PFS blend evaluates Eq. 7 only on each row's candidate span and
//! *counts* the lockstep fragments instead of computing them. This file
//! pins that the result is bit-identical — image bits and every
//! `BlendStats` field — to the plain lockstep loop, kept here as a
//! test-only oracle: every still-unsaturated pixel of the tile evaluates
//! `q_at` for every instance.
//!
//! The random scenes aim at the span bound's edges: huge, tiny, highly
//! elongated and near-singular (or indefinite) conics, thresholds close
//! to zero, means far off the tile, non-finite splats that must take the
//! full-rectangle fallback, partial edge tiles, and saturating stacks
//! that retire pixels mid-tile.

use gbu_math::{Sym2, Vec2, Vec3};
use gbu_par::ThreadPool;
use gbu_render::binning::{self, TileBins};
use gbu_render::pfs::{self, T_SATURATED};
use gbu_render::preprocess::{self, pixel_center};
use gbu_render::stats::{BlendStats, FLOPS_BLEND, FLOPS_Q_FULL};
use gbu_render::{alpha_from_q, RenderConfig, Splat2D};
use gbu_scene::{Camera, DatasetScene, ScaleProfile};
use proptest::prelude::*;

/// Thread counts the blend must be bit-identical at.
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// The full lockstep PFS loop: per tile, per instance, every pixel of
/// the tile that has not saturated evaluates Eq. 7.
fn lockstep_oracle(
    splats: &[Splat2D],
    bins: &TileBins,
    camera: &Camera,
    config: &RenderConfig,
) -> (Vec<Vec3>, BlendStats) {
    let width = camera.width as usize;
    let mut pixels = vec![config.background; width * camera.height as usize];
    let mut stats = BlendStats::default();
    stats.tile_instances.extend((0..bins.tile_count()).map(|t| bins.entries_of(t).len() as u32));
    for tile in 0..bins.tile_count() {
        let entries = bins.entries_of(tile);
        if entries.is_empty() {
            continue;
        }
        let (x0, y0, x1, y1) = bins.tile_pixel_rect(tile, camera.width, camera.height);
        let w = (x1 - x0) as usize;
        let active_px = w * (y1 - y0) as usize;
        let mut color = vec![Vec3::ZERO; active_px];
        let mut trans = vec![1.0f32; active_px];
        let mut alive = active_px;

        for (ei, &entry) in entries.iter().enumerate() {
            if alive == 0 {
                stats.instances_skipped_saturated += (entries.len() - ei) as u64;
                break;
            }
            stats.instances += 1;
            let s = &splats[entry as usize];
            for py in y0..y1 {
                for px in x0..x1 {
                    let idx = (py - y0) as usize * w + (px - x0) as usize;
                    if trans[idx] < T_SATURATED {
                        continue;
                    }
                    stats.fragments_evaluated += 1;
                    stats.q_flops += FLOPS_Q_FULL;
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
        for py in y0..y1 {
            for px in x0..x1 {
                let idx = (py - y0) as usize * w + (px - x0) as usize;
                pixels[py as usize * width + px as usize] =
                    color[idx] + config.background * trans[idx];
            }
        }
    }
    (pixels, stats)
}

fn bits(pixels: &[Vec3]) -> Vec<[u32; 3]> {
    pixels.iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
}

/// Blends with the library at every pinned thread count and compares to
/// the oracle bit for bit.
fn assert_matches_oracle(
    splats: &[Splat2D],
    bins: &TileBins,
    camera: &Camera,
    config: &RenderConfig,
) {
    let (want_px, want_stats) = lockstep_oracle(splats, bins, camera, config);
    let want = bits(&want_px);
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        let (img, stats) = pfs::blend_pooled(&pool, splats, bins, camera, config);
        assert!(bits(img.pixels()) == want, "image bits differ at {threads} threads");
        assert_eq!(stats, want_stats, "stats differ at {threads} threads");
    }
}

/// `2·ln(255·o)`: the truncation threshold of opacity `o`.
fn threshold(opacity: f32) -> f32 {
    2.0 * (opacity * 255.0).ln()
}

/// One random splat. `kind % 9` picks the regime, and `kind >= 9` pins
/// the threshold to one pixel's `q`; the other draws are interpreted per
/// regime.
fn make_splat(
    (kind, mx, my, u, v, angle): (u32, f32, f32, f32, f32, f32),
    (opacity, r, g, depth): (f32, f32, f32, f32),
    (width, height): (u32, u32),
    source: u32,
) -> Splat2D {
    let (w, h) = (width as f32, height as f32);
    let mut mean = Vec2::new(mx * (w + 40.0) - 20.0, my * (h + 40.0) - 20.0);
    // Standard deviations (px) of the ellipse axes, before rotation.
    let sigmas = |lo: f32, hi: f32, ratio: f32| {
        let s1 = lo * (hi / lo).powf(u);
        (s1, (s1 / ratio.powf(v)).max(1e-3))
    };
    let (mut opacity, mut th) = (opacity, threshold(opacity));
    let conic = match kind % 9 {
        // Typical splats.
        0 => cov_conic(sigmas(0.3, 6.0, 4.0), angle),
        // Sub-pixel splats: conic entries in the thousands.
        1 => cov_conic(sigmas(0.02, 0.3, 2.0), angle),
        // Huge splats covering whole tiles.
        2 => cov_conic(sigmas(50.0, 2000.0, 3.0), angle),
        // Highly elongated: axis ratios up to ~6e4.
        3 => cov_conic(sigmas(100.0, 3000.0, 6e4), angle),
        // Near-singular (or exactly singular / indefinite) raw conics:
        // b² = ac·(1 − 10⁻ᵉ) with e up to 9, or b² ≥ ac.
        4 => {
            let a = 0.01 * 1000f32.powf(u);
            let c = 0.01 * 1000f32.powf(v);
            let e = angle * 1.5; // 0..~9.4
            let scale = if e > 9.0 { 1.0 + (e - 9.0) } else { 1.0 - 10f32.powf(-e) };
            let b = (a * c * scale).sqrt() * if mx > 0.5 { 1.0 } else { -1.0 };
            Sym2::new(a, b, c)
        }
        // A threshold barely above zero (opacity just over 1/255).
        5 => {
            opacity = (1.0 / 255.0) * (1.0 + 1e-6 * (1.0 + 100.0 * u));
            th = threshold(opacity);
            cov_conic(sigmas(0.5, 40.0, 4.0), angle)
        }
        // Means far off the tile (some past the span solve's reach).
        6 => {
            let far = 10f32.powf(2.0 + 6.0 * v);
            mean = Vec2::new(mean.x + far * (u - 0.5), mean.y - far * (v - 0.5));
            cov_conic(sigmas(1.0, 1e5, 10.0), angle)
        }
        // Non-finite or non-positive-definite splats: the full-rectangle
        // fallback, NaNs and all.
        7 => match (u * 5.0) as u32 {
            0 => Sym2::new(f32::NAN, 0.0, 1.0),
            1 => Sym2::new(-0.5, 0.1, 0.3),
            2 => Sym2::new(0.5, 0.1, -0.3),
            3 => {
                th = if v < 0.5 { f32::INFINITY } else { f32::NAN };
                cov_conic(sigmas(0.5, 8.0, 2.0), angle)
            }
            _ => {
                mean = Vec2::new(f32::INFINITY, mean.y);
                cov_conic(sigmas(0.5, 8.0, 2.0), angle)
            }
        },
        // Saturating stack layer: broad and nearly opaque.
        _ => {
            opacity = 0.995;
            th = threshold(opacity);
            cov_conic(sigmas(20.0, 80.0, 1.5), angle)
        }
    };
    let mut s = Splat2D {
        mean,
        conic,
        cov: conic.inverse().unwrap_or(Sym2::IDENTITY),
        color: Vec3::new(r, g, 1.0 - r),
        opacity,
        depth,
        threshold: th,
        source,
    };
    if kind >= 9 {
        // Pin the threshold to the f32 `q` of one pixel centre, so that
        // fragment sits exactly on the boundary: rounding decides it.
        let px = (r * (w - 1.0)) as u32;
        let py = (g * (h - 1.0)) as u32;
        s.threshold = s.q_at(pixel_center(px, py));
    }
    s
}

/// Conic of a covariance with axis standard deviations `(s1, s2)` rotated
/// by `angle`.
fn cov_conic((s1, s2): (f32, f32), angle: f32) -> Sym2 {
    let (sn, cs) = angle.sin_cos();
    let (l1, l2) = (1.0 / (s1 * s1), 1.0 / (s2 * s2));
    Sym2::new(cs * cs * l1 + sn * sn * l2, cs * sn * (l1 - l2), sn * sn * l1 + cs * cs * l2)
}

/// Raw draws for one splat (see [`make_splat`]).
type SplatDraw = ((u32, f32, f32, f32, f32, f32), (f32, f32, f32, f32));

fn splat_draws() -> impl Strategy<Value = Vec<SplatDraw>> {
    proptest::collection::vec(
        (
            (0u32..14, 0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0, 0.0f32..6.3),
            (0.01f32..1.0, 0.0f32..1.0, 0.0f32..1.0, 0.1f32..50.0),
        ),
        1..48,
    )
}

/// Every splat binned into every tile, in depth order — the bins the
/// real Step ❷ would never build, so the blend meets splats far from the
/// tile and splats the binner culls (non-positive-definite, non-finite).
fn every_splat_everywhere(splats: &[Splat2D], camera: &Camera, tile_size: u32) -> TileBins {
    let (tiles_x, tiles_y) = camera.tile_grid(tile_size);
    let mut order: Vec<u32> = (0..splats.len() as u32).collect();
    order.sort_by(|&i, &j| splats[i as usize].depth.total_cmp(&splats[j as usize].depth));
    let tiles = (tiles_x * tiles_y) as usize;
    TileBins {
        tile_size,
        tiles_x,
        tiles_y,
        offsets: (0..=tiles).map(|t| t * order.len()).collect(),
        entries: order.iter().copied().cycle().take(tiles * order.len()).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random splat mixes on odd-sized frames (partial edge tiles), with
    /// the real binner and with every splat in every tile.
    #[test]
    fn span_blend_is_bit_identical_to_lockstep(
        draws in splat_draws(),
        width in 17u32..70,
        height in 9u32..50,
        background in 0.0f32..1.0,
    ) {
        let camera = Camera::orbit(width, height, 1.0, Vec3::ZERO, 3.0, 0.0, 0.0);
        let config =
            RenderConfig { background: Vec3::new(background, 0.5, 1.0 - background), ..Default::default() };
        let splats: Vec<Splat2D> = draws
            .into_iter()
            .enumerate()
            .map(|(i, (geo, look))| make_splat(geo, look, (width, height), i as u32))
            .collect();

        let (bins, _) = binning::bin_splats(&splats, &camera, config.tile_size);
        assert_matches_oracle(&splats, &bins, &camera, &config);
        let everywhere = every_splat_everywhere(&splats, &camera, config.tile_size);
        assert_matches_oracle(&splats, &everywhere, &camera, &config);
    }
}

/// A stack of broad opaque splats saturates whole tiles part-way through
/// their lists: instances after the last pixel retires are skipped.
#[test]
fn saturating_stack_matches_lockstep() {
    let camera = Camera::orbit(53, 37, 1.0, Vec3::ZERO, 3.0, 0.0, 0.0);
    let config = RenderConfig::default();
    let splats: Vec<Splat2D> = (0..40)
        .map(|i| {
            let t = i as f32;
            make_splat(
                (if i % 3 == 0 { 8 } else { i % 7 }, 0.3 + 0.01 * t, 0.6 - 0.01 * t, 0.5, 0.5, t),
                (0.9, 0.2, 0.7, t),
                (camera.width, camera.height),
                i,
            )
        })
        .collect();
    let (bins, _) = binning::bin_splats(&splats, &camera, config.tile_size);
    assert_matches_oracle(&splats, &bins, &camera, &config);
    let (_, stats) = lockstep_oracle(&splats, &bins, &camera, &config);
    assert!(stats.instances_skipped_saturated > 0, "the stack must saturate some tile");
}

/// The `bonsai` Bench walk: the views the benchmark's `render_walk`
/// blends (the head-pose sweep on the registry's static-scene orbit).
#[test]
fn bonsai_bench_walk_views_match_lockstep() {
    let ds = DatasetScene::by_name("bonsai").expect("bonsai is in the registry");
    let scene = ds.build_static(ScaleProfile::Bench);
    let base = ds.camera(ScaleProfile::Bench);
    let config = RenderConfig::default();
    let yaw0 = (ds.seed % 7) as f32 * 0.7;
    for i in [0usize, 5, 11] {
        let t = i as f32;
        let yaw = yaw0 + 0.30 * (0.011 * t).sin() + 0.05 * (0.037 * t).sin();
        let pitch = 0.35 + 0.06 * (0.017 * t).sin();
        let camera =
            Camera::orbit(base.width, base.height, 0.9, Vec3::new(0.0, 0.2, 0.0), 5.2, yaw, pitch);
        let (splats, _) = preprocess::project_scene(&scene, &camera);
        let (bins, _) = binning::bin_splats(&splats, &camera, config.tile_size);
        assert_matches_oracle(&splats, &bins, &camera, &config);
    }
}
