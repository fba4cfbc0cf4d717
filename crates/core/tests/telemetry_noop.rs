//! Telemetry must be invisible to the device model: a `Gbu` run with the
//! global recorder at the highest verbosity gives the same image bits
//! and the same counters as with the recorder disabled, for image and
//! pixel-free runs alike — the device-side counterpart of the render
//! pipeline's no-perturbation pin. The traced runs also record the
//! device model's wall-clock phase spans.

use gbu_core::device::DeviceRun;
use gbu_core::Gbu;
use gbu_hw::GbuConfig;
use gbu_math::Vec3;
use gbu_render::{binning, preprocess, shard, Splat2D};
use gbu_scene::{Camera, Gaussian3D, GaussianScene};
use gbu_telemetry::{set_global, validate, Recorder, Verbosity};

fn inputs() -> (Vec<Splat2D>, binning::TileBins, Camera) {
    let scene: GaussianScene = (0..80)
        .map(|i| {
            let a = i as f32 * 0.61;
            Gaussian3D::isotropic(
                Vec3::new(a.cos() * 0.6, (a * 1.3).sin() * 0.4, a.sin() * 0.5),
                0.05 + 0.01 * (i % 5) as f32,
                Vec3::new(0.3 + 0.1 * (i % 4) as f32, 0.7, 0.9 - 0.1 * (i % 6) as f32),
                0.3 + 0.15 * (i % 4) as f32,
            )
        })
        .collect();
    let camera = Camera::orbit(128, 80, 1.0, Vec3::ZERO, 3.0, 0.4, 0.2);
    let (splats, _) = preprocess::project_scene(&scene, &camera);
    let (bins, _) = binning::bin_splats(&splats, &camera, 16);
    (splats, bins, camera)
}

/// Everything a run reports except the image.
fn counters<I>(run: &DeviceRun<I>) -> [u64; 12] {
    let r = &run.run;
    [
        run.occupancy,
        r.compute_cycles,
        r.rowgen_cycles,
        r.pe_busy_cycles,
        r.cache.accesses,
        r.cache.hits,
        r.dram_bytes,
        r.instances,
        r.spans,
        r.fragments,
        r.tiles,
        r.cache.misses,
    ]
}

/// This is the ONLY test in this binary that touches the process-global
/// recorder, so its snapshot holds only its own spans.
#[test]
fn recording_is_bit_invisible_to_device_runs() {
    let (splats, bins, camera) = inputs();
    let plan = shard::ShardPlan::new(shard::ShardStrategy::ContiguousRows, &bins, 2);
    let shard_bins = plan.shard_bins(&bins, 0);
    let bg = Vec3::new(0.1, 0.2, 0.3);
    for fp16 in [true, false] {
        let gbu = Gbu::new(GbuConfig { fp16_datapath: fp16, ..GbuConfig::paper() });
        let runs = || {
            (
                gbu.run(&splats, &bins, &camera, bg),
                gbu.run_scoped(&splats, &shard_bins, &camera, bg),
                gbu.run_counters(&splats, &bins, &camera),
            )
        };
        let previous = set_global(Recorder::disabled());
        let baseline = runs();
        set_global(Recorder::enabled(Verbosity::High));
        let traced = runs();
        let trace = gbu_telemetry::global().snapshot();
        set_global(previous);

        for (name, a, b) in
            [("run", &baseline.0, &traced.0), ("run_scoped", &baseline.1, &traced.1)]
        {
            let bits = |r: &DeviceRun| -> Vec<u32> {
                r.run
                    .image
                    .pixels()
                    .iter()
                    .flat_map(|p| [p.x, p.y, p.z])
                    .map(f32::to_bits)
                    .collect()
            };
            assert_eq!(bits(a), bits(b), "{name} pixels changed under tracing (fp16={fp16})");
            assert_eq!(counters(a), counters(b), "{name} counters changed (fp16={fp16})");
        }
        assert_eq!(counters(&baseline.2), counters(&traced.2), "run_counters (fp16={fp16})");
        assert_eq!(counters(&traced.2), counters(&traced.0), "pixel-free vs image run");

        // Three runs, each with one span per device-model phase.
        assert!(validate(&trace).is_ok(), "trace is not well-nested");
        for phase in ["device.dnb", "device.reuse_cache", "device.tile_shade"] {
            assert_eq!(trace.spans_named(phase).count(), 3, "{phase} spans (fp16={fp16})");
        }
    }
}
