//! `render_walk`: one viewer walks a coherent head-pose path over the
//! `bonsai` dataset scene at Bench scale (16.8k Gaussians, 390×260), in a
//! closed loop. Every pose runs Step ❶ `project`, Step ❷ `bin_cached`,
//! Step ❸ with both dataflows (PFS and IRSS), and one frame on the GBU
//! device model. No pose repeats within a lap, and every lap starts on a
//! fresh device, so a memo of device runs cannot help.

use crate::clock::HostTime;
use crate::reference::Reference;
use crate::report::{self, Divergence, Layers, Metric, Run};
use crate::rng::Rng;
use crate::spans::{layer, SpanStats};
use gbu_core::Gbu;
use gbu_hw::GbuConfig;
use gbu_math::Vec3;
use gbu_render::pipeline::{self, Dataflow};
use gbu_render::{contrib, BinCache, BinCacheConfig, RenderConfig};
use gbu_scene::{Camera, DatasetScene, GaussianScene, ScaleProfile};
use gbu_serve::QosTarget;
use std::time::Duration;

/// The walked scene.
const SCENE: &str = "bonsai";
/// Poses of one lap of the walk. A run walks the same lap again and
/// again, each lap set up afresh (scene, device, bin cache), until its
/// budget is spent, so every run measures the same views. The first
/// lap's simulated figures enter the digest and the simulated metrics;
/// every run walks at least one lap.
const LAP_POSES: usize = 16;
/// Lowest PSNR (dB) of the device's FP16 image against the PFS image
/// (the workspace's Tab. IV envelope).
const DEVICE_PSNR_FLOOR: f64 = 40.0;

/// The scene plus the seed-drawn head-pose path.
struct Walk {
    scene: GaussianScene,
    width: u32,
    height: u32,
    yaw0: f32,
    phases: [f32; 3],
}

impl Walk {
    fn new(seed: u64) -> Self {
        let ds = DatasetScene::by_name(SCENE).expect("bonsai is in the registry");
        let scene = layer("scene.build", || ds.build_static(ScaleProfile::Bench));
        let camera = ds.camera(ScaleProfile::Bench);
        // The seed nudges the start of the sweep, never its extent, so
        // every seed walks views of the same cost.
        let mut rng = Rng::new(seed, 1);
        // The registry's evaluation azimuth for static scenes.
        let yaw0 = (ds.seed % 7) as f32 * 0.7 + rng.range(-0.02, 0.02) as f32;
        let phases = [0; 3].map(|_| rng.range(0.0, 0.25) as f32);
        Self { scene, width: camera.width, height: camera.height, yaw0, phases }
    }

    /// Pose `i`: a Lissajous head sweep on the registry's static-scene
    /// orbit. At most ~0.005 rad of yaw per frame (≈26°/s at 90 Hz, an
    /// HMD-scale motion), with incommensurate frequencies so no pose
    /// repeats.
    fn camera(&self, i: usize) -> Camera {
        let t = i as f32;
        let [a, b, c] = self.phases;
        let yaw = self.yaw0 + 0.30 * (0.011 * t + a).sin() + 0.05 * (0.037 * t + b).sin();
        let pitch = 0.35 + 0.06 * (0.017 * t + c).sin();
        Camera::orbit(self.width, self.height, 0.9, Vec3::new(0.0, 0.2, 0.0), 5.2, yaw, pitch)
    }
}

/// Simulated figures of the first lap.
#[derive(Default)]
struct Sim {
    occupancy: Vec<u64>,
    dram_bytes: Vec<u64>,
    cache_hits: u64,
    cache_accesses: u64,
    pairs: u64,
    sort_passes: u64,
    fragments_pfs: u64,
    fragments_irss: u64,
    bincache_hits: u64,
    bincache_misses: u64,
    divergence: Divergence,
}

pub fn run(seed: u64, budget: Duration) -> Run {
    let rec = gbu_telemetry::global();
    let mut out = Run::default();
    let cfg = RenderConfig::default();
    let gbu_cfg = GbuConfig::paper();
    let mut setups = Vec::new();
    let mut sim = Sim::default();
    let mut reference = Reference::new();
    // A lap's state, set up afresh at the start of every lap once the
    // previous lap's is freed, so the peak memory does not depend on how
    // many laps a run walks.
    let set_up = |setups: &mut Vec<f64>| {
        let t = HostTime::now();
        let lap =
            (Walk::new(seed), Gbu::new(gbu_cfg.clone()), BinCache::new(BinCacheConfig::default()));
        setups.push(t.elapsed_s());
        lap
    };
    let mut lap = Some(set_up(&mut setups));
    let mut before = reference.run();
    let mut cost = Vec::new();
    let mut host_ms = Vec::new();
    let loop_start = std::time::Instant::now();
    let mut pose = 0;
    while pose < LAP_POSES || loop_start.elapsed() < budget {
        let i = pose % LAP_POSES;
        if i == 0 && pose > 0 {
            drop(lap.take());
            lap = Some(set_up(&mut setups));
            before = reference.run();
        }
        let (walk, gbu, cache) = lap.as_mut().expect("set up above");
        let camera = walk.camera(i);
        let t0 = HostTime::now();
        let (projected, binned, (pfs, pfs_stats), (irss, irss_stats), (occupancy, done)) =
            layer("walk.pose", || {
                let projected = layer("render.project", || pipeline::project(&walk.scene, &camera));
                let binned = layer("render.bin_cached", || {
                    pipeline::bin_cached(cache, &projected, cfg.tile_size)
                });
                let pfs = layer("render.blend_pfs", || {
                    pipeline::blend(&projected, &binned, Dataflow::Pfs, &cfg)
                });
                let irss = layer("render.blend_irss", || {
                    pipeline::blend(&projected, &binned, Dataflow::Irss, &cfg)
                });
                let device = layer("device.run", || {
                    gbu.render_image(&projected.splats, &binned.bins, &camera, cfg.background)
                        .expect("the walk collects every frame, so the device is idle");
                    let occupancy = gbu.in_flight_occupancy().expect("a frame is in flight");
                    (occupancy, gbu.wait().expect("a frame is in flight"))
                });
                (projected, binned, pfs, irss, device)
            });
        let host_s = t0.elapsed_s();
        let after = reference.run();
        cost.push(host_s / ((before + after) / 2.0));
        host_ms.push(host_s * 1e3);
        before = after;
        pose += 1;

        // Checks, outside the timed region. Later laps repeat the first
        // one exactly, so they only check that they do.
        if pose > LAP_POSES {
            if (occupancy, done.run.dram_bytes) != (sim.occupancy[i], sim.dram_bytes[i]) {
                out.fail(format!("pose {i}: a repeated lap changed the device outcome"));
            }
            continue;
        }
        let cold = layer("render.bin", || pipeline::bin(&projected, cfg.tile_size));
        if cold.bins.offsets != binned.bins.offsets || cold.bins.entries != binned.bins.entries {
            out.fail(format!("pose {i}: bin_cached differs from cold binning"));
        }
        let mut divergence = Divergence::default();
        if let Some(psnr) = divergence.add(&pfs, &irss) {
            out.fail(format!("pose {i}: IRSS image at {psnr:.2} dB vs PFS"));
        }
        let device_psnr = contrib::psnr(&done.image, &pfs);
        if device_psnr < DEVICE_PSNR_FLOOR {
            out.fail(format!("pose {i}: device image at {device_psnr:.2} dB vs PFS"));
        }

        sim.occupancy.push(occupancy);
        sim.dram_bytes.push(done.run.dram_bytes);
        sim.cache_hits += done.run.cache.hits;
        sim.cache_accesses += done.run.cache.accesses;
        sim.pairs += cold.stats.instances;
        sim.sort_passes += u64::from(cold.stats.sort_passes);
        sim.fragments_pfs += pfs_stats.fragments_evaluated;
        sim.fragments_irss += irss_stats.fragments_evaluated;
        sim.divergence.max_diff = sim.divergence.max_diff.max(divergence.max_diff);
        sim.divergence.pixels_over += divergence.pixels_over;
        if pose == LAP_POSES {
            let c = cache.stats();
            (sim.bincache_hits, sim.bincache_misses) = (c.hits, c.misses);
        }
    }
    out.attempted = pose as u64;

    // Simulated outcome: one device rendering the walk back to back at
    // the paper clock, each frame due within a 90 Hz period.
    let clock_ghz = gbu_cfg.clock_ghz;
    let period = QosTarget::VR_90.period_cycles(clock_ghz);
    let n = LAP_POSES as f64;
    let dram_bytes: u64 = sim.dram_bytes.iter().sum();
    let occ: Vec<f64> = sim.occupancy.iter().map(|&c| c as f64).collect();
    let latency_ms: Vec<f64> = occ.iter().map(|c| c / (clock_ghz * 1e6)).collect();
    let on_time = sim.occupancy.iter().filter(|&&c| c <= period).count();
    let sim_fps = clock_ghz * 1e9 / report::mean(&occ);
    let sim_latency_p50 = report::percentile(&latency_ms, 0.5);
    let sim_latency_p99 = report::percentile(&latency_ms, 0.99);
    out.sim.push((
        "walk.occupancy".into(),
        sim.occupancy.iter().map(u64::to_string).collect::<Vec<_>>().join(","),
    ));
    for (k, v) in [
        ("walk.dram_bytes", dram_bytes),
        ("walk.cache_hits", sim.cache_hits),
        ("walk.cache_accesses", sim.cache_accesses),
        ("walk.pairs", sim.pairs),
        ("walk.sort_passes", sim.sort_passes),
        ("walk.fragments_pfs", sim.fragments_pfs),
        ("walk.fragments_irss", sim.fragments_irss),
        ("walk.bincache_hits", sim.bincache_hits),
        ("walk.bincache_misses", sim.bincache_misses),
        ("walk.on_time", on_time as u64),
        ("walk.irss_pfs_pixels_over", sim.divergence.pixels_over),
    ] {
        out.sim_int(k, v);
    }
    out.sim_real("walk.irss_pfs_max_diff", f64::from(sim.divergence.max_diff));
    out.sim_real("walk.sim_fps", sim_fps);

    // Host figures, every pose of every lap in `ref`.
    out.unit_cost = report::mean(&cost);
    out.notes.push(format!(
        "samples frame_cost n={pose} laps={:.2} host frame_ms_p50={:.3} p95={:.3}",
        pose as f64 / n,
        report::percentile(&host_ms, 0.5),
        report::percentile(&host_ms, 0.95)
    ));
    out.notes.push(reference.note());
    out.e2e = vec![
        Metric::new("setup_s", report::median(&setups), "s"),
        Metric::new("frames_per_ref", 1.0 / out.unit_cost, "1/ref"),
        Metric::new("frame_cost_p50", report::percentile(&cost, 0.5), "ref"),
        Metric::new("frame_cost_p95", report::percentile(&cost, 0.95), "ref"),
        Metric::new("sim_fps", sim_fps, "fps"),
        Metric::new("on_time_ratio", on_time as f64 / n, "ratio"),
        Metric::new("sim_latency_ms_p50", sim_latency_p50, "ms"),
        Metric::new("sim_latency_ms_p99", sim_latency_p99, "ms"),
        // Every walked frame is exact: zero error, the capped PSNR.
        Metric::new("delivered_psnr_db", report::psnr_db(0.0), "dB"),
    ];

    let spans = SpanStats::from_trace(&rec.snapshot());
    let mut l = Layers::from_spans(&spans);
    l.set("render.pairs", sim.pairs as f64 / n);
    l.set("render.sort_passes", sim.sort_passes as f64 / n);
    l.set("render.fragments_pfs", sim.fragments_pfs as f64 / n);
    l.set("render.fragments_irss", sim.fragments_irss as f64 / n);
    l.set(
        "render.bincache.hit_ratio",
        report::ratio(sim.bincache_hits as f64, (sim.bincache_hits + sim.bincache_misses) as f64),
    );
    l.set("render.irss_pfs_max_diff", f64::from(sim.divergence.max_diff));
    l.set("render.irss_pfs_pixels_over", sim.divergence.pixels_over as f64);
    l.set("device.run_us_mean", report::mean(spans.durations("device.run")) * 1e3);
    l.set("device.cycles_mean", report::mean(&occ));
    l.set("device.dram_bytes", dram_bytes as f64 / n);
    l.set(
        "device.cache_hit_ratio",
        report::ratio(sim.cache_hits as f64, sim.cache_accesses as f64),
    );
    l.set(
        "trace.layer_share",
        1.0 - report::ratio(spans.self_ms("walk.pose"), spans.total("walk.pose")),
    );
    if rec.is_enabled() {
        out.notes.extend(spans.table());
        out.notes.push(format!(
            "accounting walk.pose_p50_ms={:.3} layer_p50_sum_ms={:.3}",
            spans.p50("walk.pose"),
            l.get("render.project_ms")
                + l.get("render.bin_cached_ms")
                + l.get("render.blend_pfs_ms")
                + l.get("render.blend_irss_ms")
                + l.get("device.run_ms")
        ));
    }
    out.layers = l.metrics();
    out
}
