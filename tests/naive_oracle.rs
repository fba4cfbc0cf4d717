//! A deliberately naive full-image reference for Rendering Step ❸: for
//! every pixel, walk *all* splats in depth order and α-blend the ones
//! whose truncated Gaussian covers the pixel centre, in f64, with no
//! tiles, no bins and no shared row state. The three tiled blends —
//! reference PFS, software IRSS and the GBU tile engine's FP32 datapath —
//! must each match it within a pinned tolerance, so they are not only
//! checked against each other.
//!
//! Step ❶ (projection) is shared: the oracle consumes the same splats.

use gbu_hw::cache::Policy;
use gbu_hw::{dnb, GbuConfig, TileEngine};
use gbu_math::Vec3;
use gbu_render::stats::BlendStats;
use gbu_render::{binning, irss, pfs, preprocess, FrameBuffer, RenderConfig, Splat2D};
use gbu_scene::synth::{SceneBuilder, SynthParams};
use gbu_scene::{Camera, Gaussian3D, GaussianScene};
use proptest::prelude::*;

/// Largest per-channel difference allowed against the oracle on pixels
/// where f32 and f64 arithmetic must take the same decisions: only
/// rounding separates them there.
const MAX_ABS_DIFF: f32 = 1e-5;
/// Largest per-channel difference on *ambiguous* pixels, where some
/// fragment's `q` sits within [`AMBIGUOUS`] of its truncation threshold or
/// the transmittance within [`AMBIGUOUS`] of the saturation cutoff, so f32
/// may decide the other way. One flipped fragment has opacity ~`1/255`
/// (or is the ≤ `1e-4`-weighted one after saturation), so it moves a
/// pixel by up to ~0.004, plus the slightly changed transmittance behind
/// it.
const MAX_ABS_DIFF_AMBIGUOUS: f32 = 1e-2;
/// Relative closeness to a threshold that makes a pixel ambiguous.
const AMBIGUOUS: f64 = 1e-3;

/// One oracle pixel: the composited color, and whether f32 rounding may
/// legitimately flip one of its decisions.
struct OraclePixel {
    color: [f64; 3],
    ambiguous: bool,
}

/// The per-pixel oracle.
fn naive_blend(splats: &[Splat2D], camera: &Camera, background: Vec3) -> Vec<OraclePixel> {
    let mut order: Vec<&Splat2D> = splats.iter().collect();
    // Stable: equal depths keep their input order, as the binner's sort.
    order.sort_by(|a, b| a.depth.total_cmp(&b.depth));
    let near = |v: f64, edge: f64| (v - edge).abs() <= AMBIGUOUS * edge.abs().max(1e-30);
    // The reference rasteriser's `T < 0.0001` early exit.
    let t_sat = 1e-4;
    let mut out = Vec::with_capacity((camera.width * camera.height) as usize);
    for py in 0..camera.height {
        for px in 0..camera.width {
            let (x, y) = (f64::from(px) + 0.5, f64::from(py) + 0.5);
            let mut color = [0.0f64; 3];
            let mut trans = 1.0f64;
            let mut ambiguous = false;
            for s in &order {
                ambiguous |= near(trans, t_sat);
                if trans < t_sat {
                    break;
                }
                let (dx, dy) = (x - f64::from(s.mean.x), y - f64::from(s.mean.y));
                let (a, b, c) = (f64::from(s.conic.a), f64::from(s.conic.b), f64::from(s.conic.c));
                let q = a * dx * dx + 2.0 * b * dx * dy + c * dy * dy;
                let th = f64::from(s.threshold);
                ambiguous |= near(q, th);
                if q > th {
                    continue;
                }
                let alpha = (f64::from(s.opacity) * (-0.5 * q).exp()).min(0.99);
                for (acc, ch) in color.iter_mut().zip([s.color.x, s.color.y, s.color.z]) {
                    *acc += f64::from(ch) * alpha * trans;
                }
                trans *= 1.0 - alpha;
            }
            ambiguous |= near(trans, t_sat);
            let bg = [background.x, background.y, background.z];
            out.push(OraclePixel {
                color: [0, 1, 2].map(|i| color[i] + f64::from(bg[i]) * trans),
                ambiguous,
            });
        }
    }
    out
}

/// Largest per-channel absolute difference of `image` from the oracle:
/// `(on unambiguous pixels, on ambiguous pixels)`.
fn diff_from_oracle(image: &FrameBuffer, oracle: &[OraclePixel]) -> (f32, f32) {
    let (mut exact, mut ambiguous) = (0.0f32, 0.0f32);
    for (p, o) in image.pixels().iter().zip(oracle) {
        for (got, want) in [p.x, p.y, p.z].into_iter().zip(o.color) {
            let d = (f64::from(got) - want).abs() as f32;
            let worst = if o.ambiguous { &mut ambiguous } else { &mut exact };
            *worst = worst.max(d);
        }
    }
    (exact, ambiguous)
}

/// Renders `scene` with all three tiled blends and checks each against
/// the oracle; returns the PFS statistics.
fn check_against_oracle(scene: &GaussianScene, camera: &Camera) -> BlendStats {
    let cfg = RenderConfig { background: Vec3::new(0.1, 0.2, 0.3), ..RenderConfig::default() };
    let (splats, _) = preprocess::project_scene(scene, camera);
    assert!(!splats.is_empty(), "the scene must be in view");
    let (bins, _) = binning::bin_splats(&splats, camera, cfg.tile_size);
    let oracle = naive_blend(&splats, camera, cfg.background);

    let (pfs_img, pfs_stats) = pfs::blend(&splats, &bins, camera, &cfg);
    let (irss_img, _) = irss::blend(&splats, &bins, camera, &cfg);
    let hw_cfg = GbuConfig { fp16_datapath: false, ..GbuConfig::paper() };
    let d = dnb::run(&splats, &bins, &hw_cfg);
    let hw = TileEngine::new(hw_cfg).render(
        &splats,
        &d,
        &bins,
        camera,
        cfg.background,
        Policy::ReuseDistance,
    );

    for (name, image) in [("pfs", &pfs_img), ("irss", &irss_img), ("tile engine fp32", &hw.image)] {
        let (exact, ambiguous) = diff_from_oracle(image, &oracle);
        assert!(exact <= MAX_ABS_DIFF, "{name}: |diff| {exact} from the naive oracle");
        assert!(
            ambiguous <= MAX_ABS_DIFF_AMBIGUOUS,
            "{name}: |diff| {ambiguous} from the naive oracle on an ambiguous pixel"
        );
    }
    pfs_stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tiny random scenes on odd-sized frames (partial edge tiles).
    #[test]
    fn tiled_blends_match_the_naive_oracle(
        seed in 0u64..1000,
        count in 5usize..60,
        sigma in 0.02f32..0.2,
        aniso in 1.0f32..8.0,
        width in 20u32..60,
        height in 12u32..44,
        yaw in 0.0f32..6.3,
    ) {
        let params = SynthParams { scale_median: sigma, anisotropy: aniso, ..SynthParams::default() };
        let scene = SceneBuilder::new(seed)
            .params(params)
            .ellipsoid_cloud(Vec3::ZERO, Vec3::splat(0.7), count, Vec3::new(0.7, 0.5, 0.3), 0.2)
            .build();
        let camera = Camera::orbit(width, height, 0.9, Vec3::ZERO, 3.0, yaw, 0.2);
        check_against_oracle(&scene, &camera);
    }
}

/// A stack of broad, nearly opaque Gaussians saturates whole tiles: the
/// early-out on `T < 1e-4` must agree with the oracle's.
#[test]
fn saturating_stack_matches_the_naive_oracle() {
    let camera = Camera::orbit(37, 29, 0.9, Vec3::ZERO, 3.0, 0.4, 0.1);
    let dir = (Vec3::ZERO - camera.position()).normalized();
    let scene: GaussianScene = (0..60)
        .map(|i| {
            let t = i as f32;
            Gaussian3D::isotropic(
                camera.position() + dir * (2.0 + 0.01 * t),
                0.8 + 0.05 * (t % 5.0),
                Vec3::new(0.9, 0.4 + 0.01 * t, 0.2),
                0.9 + 0.001 * t,
            )
        })
        .collect();
    let stats = check_against_oracle(&scene, &camera);
    assert!(stats.instances_skipped_saturated > 0, "the stack must saturate some tile");
}
