//! The serving workloads, both open loop in simulated time: sessions
//! generate frames on their QoS timers, and the host steps the engine in
//! fixed simulated slices as fast as it can.
//!
//! - `fleet_churn`: the control plane dominates. 96 cluster lanes serve
//!   1152 sessions cloned from 12 tiny shared scenes at 1.3× offered
//!   load — EDF with `drop_unmeetable`, one session in six 4-wide
//!   sharded, a quarter of the lanes killed and restored mid-run, with
//!   migration and lane reservation on.
//! - `hd_governed`: the device model dominates. A 4-lane cluster serves
//!   12 HD sessions (3k Gaussians at 256×192) resolved through one
//!   `SceneStore` over 4 scenes — one session in four 2-wide sharded,
//!   shared preprocessing charges, the quality governor's default ladder
//!   with counter-offers and shedding, and `reject_unmeetable` at 1.45×
//!   overload. Each run serves [`HD_VARIANTS`] seed-drawn variants.

use crate::clock::HostTime;
use crate::reference::Reference;
use crate::report::{self, Divergence, Layers, Metric, Run};
use crate::rng::Rng;
use crate::spans::{layer, SpanStats};
use gbu_core::Gbu;
use gbu_hw::GbuConfig;
use gbu_render::pipeline::{self, Dataflow};
use gbu_render::shard::ShardStrategy;
use gbu_render::{contrib, BinCache, BinCacheConfig, RenderConfig};
use gbu_serve::{
    calibrated_clock_ghz, AdmissionControl, BackendKind, ExecMode, FleetAction, FleetConfig,
    FleetEvent, FleetPlan, FrameId, MigrationConfig, Policy, PrepConfig, PreparedView, QosTarget,
    QualityGovernor, SceneStore, ServeConfig, ServeEngine, ServeEvent, ServeReport, Session,
    SessionContent, SessionSpec,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    FleetChurn,
    HdGoverned,
}

const FLEET_LANES: usize = 96;
const FLEET_BASE_SCENES: usize = 12;
const FLEET_SESSIONS: usize = 1152;
const FLEET_FRAMES: u32 = 4;
const FLEET_OVERLOAD: f64 = 1.3;
/// ~80 frames arrive per simulated millisecond.
const FLEET_SLICE_MS: f64 = 1.0;
/// Serving loops per `fleet_churn` run at least (the first is a warm-up);
/// each one prepares its fleet afresh, so each is also one `setup_s`
/// sample. A run serves the same fleet again until its budget is spent.
const FLEET_MIN_LOOPS: usize = 3;

const HD_LANES: usize = 4;
const HD_SCENES: usize = 4;
const HD_SESSIONS: usize = 12;
const HD_FRAMES: u32 = 12;
const HD_GAUSSIANS: usize = 3000;
const HD_OVERLOAD: f64 = 1.45;
/// Under one frame arrives per simulated millisecond, so 1 ms slices
/// split into empty ones and ones holding a device run, and their median
/// flips between the two; 4 ms slices hold a few frames each.
const HD_SLICE_MS: f64 = 4.0;
/// Seed-drawn variants one `hd_governed` run prepares (one `setup_s`
/// sample each) and serves in turn until its budget is spent: pooling
/// them keeps the simulated figures of a 12-session system steady from
/// seed to seed.
const HD_VARIANTS: usize = 16;

/// Orbit viewpoints a prepared session holds.
const VIEWS_PER_SESSION: u32 = 3;
/// Timed device runs per distinct view (median taken).
const DEVICE_REPS: usize = 3;
/// A serving loop that has not drained after this many slices is stuck.
const MAX_SLICES: u64 = 1_000_000;

/// One prepared serving instance.
struct Instance {
    cfg: ServeConfig,
    /// In attach order, so `SessionId::index` indexes it.
    sessions: Vec<Session>,
    store: SceneStore,
    clock_ghz: f64,
    /// Simulated time the host steps per `step_until` call.
    slice_ms: f64,
}

/// Session `i`'s spec: QoS classes rotate with `i`, the arrival phase is
/// drawn from `rng`.
fn spec(
    i: usize,
    name: String,
    content: SessionContent,
    rng: &mut Rng,
    frames: u32,
) -> SessionSpec {
    SessionSpec {
        name,
        content,
        qos: [QosTarget::AR_60, QosTarget::VR_72, QosTarget::VR_90][i % 3],
        frames,
        phase: rng.unit(),
        exec: ExecMode::Unsharded,
    }
}

/// Builds a scene into the store inside a `scene.build` span.
fn build_scene(content: &SessionContent, store: &SceneStore) {
    layer("scene.build", || store.scene(content));
}

/// Prepares a session through the store inside a `serve.prepare` span.
fn prepare(spec: SessionSpec, gbu: &GbuConfig, store: &SceneStore) -> Session {
    layer("serve.prepare", || Session::prepare_shared(spec, gbu, store))
}

fn fleet_instance(seed: u64) -> Instance {
    let gbu = GbuConfig::paper();
    let store = SceneStore::new();
    let mut rng = Rng::new(seed, 2);
    let base: Vec<Session> = (0..FLEET_BASE_SCENES)
        .map(|i| {
            let content =
                SessionContent::Synthetic { seed: rng.next_u64(), gaussians: 24 + 8 * (i % 4) };
            build_scene(&content, &store);
            prepare(spec(i, format!("base-{i}"), content, &mut rng, FLEET_FRAMES), &gbu, &store)
        })
        .collect();
    let sessions: Vec<Session> = (0..FLEET_SESSIONS)
        .map(|i| {
            let mut s = base[i % FLEET_BASE_SCENES].clone();
            let fresh = spec(i, format!("hmd-{i}"), s.spec.content.clone(), &mut rng, FLEET_FRAMES);
            s.spec = SessionSpec {
                // One session in six fans its frames over 4 lanes; half of
                // those replan from measured shard feedback.
                exec: if i % 6 == 5 {
                    ExecMode::Sharded {
                        shards: 4,
                        strategy: if i % 12 == 5 {
                            ShardStrategy::Measured
                        } else {
                            ShardStrategy::CostBalanced
                        },
                    }
                } else {
                    ExecMode::Unsharded
                },
                ..fresh
            };
            s
        })
        .collect();
    let clock_ghz = calibrated_clock_ghz(&sessions, FLEET_LANES, FLEET_OVERLOAD);
    let period = QosTarget::AR_60.period_cycles(clock_ghz);
    let (kill_at, restore_at) = (period + period / 5, 2 * period + 2 * period / 5);
    let mut lanes: Vec<usize> = (0..FLEET_LANES).collect();
    for i in (1..lanes.len()).rev() {
        lanes.swap(i, rng.below(i + 1));
    }
    let plan = FleetPlan::new(
        lanes[..FLEET_LANES / 4]
            .iter()
            .enumerate()
            .flat_map(|(k, &lane)| {
                [
                    FleetEvent { at: kill_at + k as u64, action: FleetAction::Kill(lane) },
                    FleetEvent { at: restore_at + k as u64, action: FleetAction::Restore(lane) },
                ]
            })
            .collect(),
    );
    let mut cfg = ServeConfig {
        backend: BackendKind::Cluster { lanes: FLEET_LANES, devices_per_lane: 1 },
        policy: Policy::Edf,
        drop_unmeetable: true,
        fleet: FleetConfig {
            plan,
            migration: Some(MigrationConfig { rebalance: true }),
            lane_reservation: true,
            ..FleetConfig::default()
        },
        ..ServeConfig::default()
    };
    cfg.admission.max_queue_depth = FLEET_SESSIONS * 2;
    cfg.gbu.clock_ghz = clock_ghz;
    Instance { cfg, sessions, store, clock_ghz, slice_ms: FLEET_SLICE_MS }
}

fn hd_instance(seed: u64, variant: usize) -> Instance {
    let gbu = GbuConfig::paper();
    let store = SceneStore::new();
    let mut rng = Rng::new(seed, 3 + variant as u64);
    let scenes: Vec<SessionContent> = (0..HD_SCENES)
        .map(|_| SessionContent::SyntheticHd {
            seed: rng.next_u64(),
            gaussians: HD_GAUSSIANS,
            width: 256,
            height: 192,
        })
        .collect();
    for content in &scenes {
        build_scene(content, &store);
    }
    let sessions: Vec<Session> = (0..HD_SESSIONS)
        .map(|i| {
            let content = scenes[i % HD_SCENES].clone();
            let mut spec = spec(i, format!("hd-{i}"), content, &mut rng, HD_FRAMES);
            if i % 4 == 3 {
                spec.exec = ExecMode::Sharded { shards: 2, strategy: ShardStrategy::CostBalanced };
            }
            prepare(spec, &gbu, &store)
        })
        .collect();
    let clock_ghz = calibrated_clock_ghz(&sessions, HD_LANES, HD_OVERLOAD);
    let mut cfg = ServeConfig {
        backend: BackendKind::Cluster { lanes: HD_LANES, devices_per_lane: 1 },
        policy: Policy::Edf,
        admission: AdmissionControl { reject_unmeetable: true, ..AdmissionControl::default() },
        scene_store: Some(store.clone()),
        prep: Some(PrepConfig { share: true, ..PrepConfig::default() }),
        quality: QualityGovernor {
            ladder: QualityGovernor::default_ladder(),
            counter_offer: true,
            shed_on_pressure: true,
            interval: (QosTarget::VR_90.period_cycles(clock_ghz) / 8).max(1),
            ..QualityGovernor::default()
        },
        ..ServeConfig::default()
    };
    cfg.gbu.clock_ghz = clock_ghz;
    Instance { cfg, sessions, store, clock_ghz, slice_ms: HD_SLICE_MS }
}

/// Key of a view at a quality rung (0 = exact).
type ViewKey = (usize, usize);

fn view_key(view: &Arc<PreparedView>, rung: usize) -> ViewKey {
    (Arc::as_ptr(view) as usize, rung)
}

/// What the checks learn about an instance's distinct views.
#[derive(Default)]
struct ViewTables {
    /// Mean squared error of each degraded (view, rung) against the
    /// exact IRSS render of the view.
    mse: HashMap<ViewKey, f64>,
    /// Host seconds of one device-model run per (view, rung); filled
    /// only when tracing.
    device_s: HashMap<ViewKey, f64>,
    views: u64,
    pairs: u64,
    sort_passes: u64,
    fragments_pfs: u64,
    fragments_irss: u64,
    bincache_hits: u64,
    bincache_misses: u64,
    divergence: Divergence,
    /// Device figures of the exact views (tracing only).
    device_cycles: u64,
    device_dram: u64,
    device_cache_hits: u64,
    device_cache_accesses: u64,
}

/// Times one device-model run of `splats`/`bins` (median of
/// [`DEVICE_REPS`]), returning the seconds and the last run's result.
fn time_device(
    view: &PreparedView,
    splats: &[gbu_render::Splat2D],
    bins: &gbu_render::binning::TileBins,
    gbu: &GbuConfig,
) -> (f64, u64, gbu_hw::GbuRunResult) {
    let mut times = Vec::with_capacity(DEVICE_REPS);
    let mut last = None;
    for _ in 0..DEVICE_REPS {
        let t = HostTime::now();
        last = Some(layer("device.run", || {
            let mut device = Gbu::new(gbu.clone());
            device
                .render_image(splats, bins, &view.camera, gbu_math::Vec3::ZERO)
                .expect("a fresh device is idle");
            let occupancy = device.in_flight_occupancy().expect("a frame is in flight");
            (occupancy, device.wait().expect("a frame is in flight").run)
        }));
        times.push(t.elapsed_s());
    }
    let (occupancy, run) = last.expect("DEVICE_REPS > 0");
    (report::median(&times), occupancy, run)
}

/// Re-derives every distinct view of `inst` through the public pipeline
/// and checks it: re-projection and `bin_cached` reproduce the prepared
/// view exactly, and IRSS agrees with PFS. Builds the degraded-image
/// error table, and with tracing on times the device model per view.
fn check_views(inst: &Instance, out: &mut Run) -> ViewTables {
    let rec = gbu_telemetry::global();
    let cfg = RenderConfig::default();
    let ladder = &inst.cfg.quality.ladder;
    let mut t = ViewTables::default();
    let mut seen = std::collections::HashSet::new();
    let mut caches: HashMap<usize, BinCache> = HashMap::new();
    for s in &inst.sessions {
        let (scene, _, _) = inst.store.scene(&s.spec.content);
        for v in 0..VIEWS_PER_SESSION {
            let view = s.view_handle(v);
            if !seen.insert(Arc::as_ptr(view) as usize) {
                continue;
            }
            let projected = pipeline::project(&scene, &view.camera);
            if projected.splats != view.splats {
                out.fail(format!("{}: re-projected view {v} differs", s.spec.name));
            }
            // One bin cache per scene walks that scene's orbit views.
            let cache = caches
                .entry(Arc::as_ptr(&scene) as usize)
                .or_insert_with(|| BinCache::new(BinCacheConfig::default()));
            let binned = layer("render.bin_cached", || {
                pipeline::bin_cached(cache, &projected, cfg.tile_size)
            });
            if binned.bins.offsets != view.bins.offsets || binned.bins.entries != view.bins.entries
            {
                out.fail(format!("{}: bin_cached differs from the prepared bins", s.spec.name));
            }
            let (pfs, pfs_stats) = layer("render.blend_pfs", || {
                pipeline::blend(&projected, &binned, Dataflow::Pfs, &cfg)
            });
            let (irss, irss_stats) = layer("render.blend_irss", || {
                pipeline::blend(&projected, &binned, Dataflow::Irss, &cfg)
            });
            if let Some(psnr) = t.divergence.add(&pfs, &irss) {
                out.fail(format!("{}: IRSS image at {psnr:.2} dB vs PFS", s.spec.name));
            }
            t.views += 1;
            t.pairs += view.prep.instances;
            t.sort_passes += u64::from(view.prep.sort_passes);
            t.fragments_pfs += pfs_stats.fragments_evaluated;
            t.fragments_irss += irss_stats.fragments_evaluated;
            for (i, &level) in ladder.iter().enumerate() {
                let (img, _) = layer("quality.blend", || {
                    pipeline::blend_with_quality(&projected, &binned, Dataflow::Irss, &cfg, level)
                });
                // PSNR is over a unit peak, so this is the mean squared error.
                let mse = 10f64.powf(-contrib::psnr(&img, &irss) / 10.0);
                t.mse.insert(view_key(view, i + 1), mse);
            }
            if rec.is_enabled() {
                let (secs, occupancy, run) =
                    time_device(view, &view.splats, &view.bins, &inst.cfg.gbu);
                t.device_s.insert(view_key(view, 0), secs);
                t.device_cycles += occupancy;
                t.device_dram += run.dram_bytes;
                t.device_cache_hits += run.cache.hits;
                t.device_cache_accesses += run.cache.accesses;
                // Degraded views exactly as the engine builds them.
                let scores = contrib::contribution_scores(&view.splats, None, &view.camera);
                for (i, &level) in ladder.iter().enumerate() {
                    let keep = contrib::select(&scores, level).expect("ladder rungs degrade");
                    let (splats, bins) = contrib::compact(&view.splats, &view.bins, &keep);
                    let (secs, _, _) = time_device(view, &splats, &bins, &inst.cfg.gbu);
                    t.device_s.insert(view_key(view, i + 1), secs);
                }
            }
        }
    }
    for cache in caches.values() {
        let c = cache.stats();
        t.bincache_hits += c.hits;
        t.bincache_misses += c.misses;
    }
    t
}

/// Host seconds of slices between two runs of the reference inside a
/// serving loop: a loop lasts seconds, long enough for the host's speed
/// to change within it.
const REF_BLOCK_S: f64 = 0.2;

/// One serving loop over a fresh engine.
struct Served {
    attach_s: f64,
    /// Host time of the loop, the reference runs inside it excluded.
    loop_s: f64,
    step_ms: Vec<f64>,
    /// Host cost (`ref`) of the loop and of each slice, each block of
    /// slices divided by the reference runs on either side of it.
    cost: f64,
    step_cost: Vec<f64>,
    events: Vec<ServeEvent>,
    report: ServeReport,
}

fn serve(inst: &Instance, out: &mut Run, reference: &mut Reference) -> Served {
    let rec = gbu_telemetry::global();
    let t = HostTime::now();
    let mut engine = layer("serve.attach", || {
        let mut engine =
            ServeEngine::new(ServeConfig { telemetry: rec.clone(), ..inst.cfg.clone() });
        for s in &inst.sessions {
            engine.attach_session(s.clone());
        }
        engine
    });
    let attach_s = t.elapsed_s();
    let slice = ((inst.clock_ghz * 1e6 * inst.slice_ms).round() as u64).max(1);
    let mut events = Vec::new();
    let (mut step_ms, mut step_cost, mut cost) = (Vec::new(), Vec::new(), 0.0);
    let mut ref_s = 0.0;
    let t = HostTime::now();
    layer("serve.loop", || {
        let mut run_reference = || {
            let s = layer("reference", || reference.run());
            ref_s += s;
            s
        };
        let mut before = run_reference();
        let (mut block_start, mut block_s) = (0, 0.0);
        let mut now = 0;
        loop {
            let t0 = HostTime::now();
            let drained = engine.is_drained();
            if drained {
                events.extend(engine.finish());
            } else {
                now += slice;
                events.extend(layer("serve.step", || engine.step_until(now)));
            }
            let s = t0.elapsed_s();
            block_s += s;
            if !drained {
                step_ms.push(s * 1e3);
            }
            if drained || block_s >= REF_BLOCK_S {
                let after = run_reference();
                let unit = (before + after) / 2.0;
                step_cost.extend(step_ms[block_start..].iter().map(|ms| ms / 1e3 / unit));
                cost += block_s / unit;
                (before, block_start, block_s) = (after, step_ms.len(), 0.0);
            }
            if drained {
                break;
            }
            if step_ms.len() as u64 >= MAX_SLICES {
                out.fail(format!("the engine did not drain within {MAX_SLICES} slices"));
                break;
            }
        }
    });
    let loop_s = t.elapsed_s() - ref_s;
    Served { attach_s, loop_s, step_ms, cost, step_cost, events, report: engine.report() }
}

/// The simulated outcome of one loop, joined with the view tables.
#[derive(Default)]
struct Outcome {
    /// Exact text of every simulated figure (compared across loops of
    /// one instance and across tracing on/off).
    sim: Vec<(String, String)>,
    latency_ms: Vec<f64>,
    mse_sum: f64,
    delivered: u64,
    started: u64,
    device_est_s: f64,
}

fn outcome(inst: &Instance, served: &Served, tables: &ViewTables, out: &mut Run) -> Outcome {
    let r = &served.report;
    let life = r.lifetime;
    if life.generated != life.completed + life.rejected + life.dropped {
        out.fail(format!(
            "frame conservation: {} generated != {} completed + {} rejected + {} dropped",
            life.generated, life.completed, life.rejected, life.dropped
        ));
    }
    // Frame index within its session, from the order of admission
    // decisions; it picks the session's orbit view.
    let mut next_frame = vec![0u32; inst.sessions.len()];
    let mut frame_of: HashMap<FrameId, (usize, u32)> = HashMap::new();
    let mut rung: HashMap<FrameId, usize> = HashMap::new();
    let mut o = Outcome::default();
    let mut started = Vec::new();
    let (mut completed, mut rejected, mut dropped) = (0, 0, 0);
    for e in &served.events {
        match *e {
            ServeEvent::Admitted { frame, session, .. }
            | ServeEvent::Rejected { frame, session, .. } => {
                rejected += usize::from(matches!(e, ServeEvent::Rejected { .. }));
                let s = session.index();
                frame_of.entry(frame).or_insert_with(|| {
                    next_frame[s] += 1;
                    (s, next_frame[s] - 1)
                });
            }
            ServeEvent::Degraded { frame, level, .. } => {
                rung.insert(frame, level);
            }
            ServeEvent::Started { frame, .. } => started.push(frame),
            ServeEvent::Dropped { .. } => dropped += 1,
            _ => {}
        }
    }
    let view_of = |frame: FrameId| {
        let (s, f) = frame_of[&frame];
        view_key(inst.sessions[s].view_handle(f), rung.get(&frame).copied().unwrap_or(0))
    };
    for e in &served.events {
        if let ServeEvent::Completed { frame, latency_cycles, .. } = *e {
            completed += 1;
            o.latency_ms.push(latency_cycles as f64 / (inst.clock_ghz * 1e6));
            let key = view_of(frame);
            o.mse_sum += if key.1 == 0 { 0.0 } else { tables.mse[&key] };
            o.delivered += 1;
        }
    }
    if (completed, rejected, dropped) != (life.completed, life.rejected, life.dropped) {
        out.fail(format!(
            "event stream ({completed}, {rejected}, {dropped}) disagrees with the report ({}, {}, {})",
            life.completed, life.rejected, life.dropped
        ));
    }
    o.started = started.len() as u64;
    if !tables.device_s.is_empty() {
        // Every dispatch runs the device model once; a degraded view is
        // also probed once per engine at its rung and exact.
        let mut probed: std::collections::HashSet<ViewKey> =
            rung.keys().map(|&f| view_of(f)).collect();
        probed.extend(probed.clone().into_iter().map(|(view, _)| (view, 0)));
        o.device_est_s = started
            .iter()
            .map(|&f| view_of(f))
            .chain(probed)
            .map(|key| tables.device_s[&key])
            .sum();
    }

    let q = r.quality;
    let p = r.preprocessing;
    for (k, v) in [
        ("serve.generated", life.generated as u64),
        ("serve.completed", life.completed as u64),
        ("serve.rejected", life.rejected as u64),
        ("serve.dropped", life.dropped as u64),
        ("serve.missed", life.missed as u64),
        ("serve.requeued", life.requeued as u64),
        ("fleet.migrated", r.migrated as u64),
        ("fleet.lane_churn", r.lane_churn as u64),
        ("serve.events", served.events.len() as u64),
        ("serve.device_submissions", o.started),
        ("quality.frames_exact", q.frames_exact as u64),
        ("quality.frames_degraded", q.frames_degraded as u64),
        ("quality.counter_offers", q.counter_offers as u64),
        ("quality.sheds", q.sheds as u64),
        ("quality.recoveries", q.recoveries as u64),
        ("quality.cycles_saved", q.cycles_saved),
        ("prep.frames_charged", p.frames_charged as u64),
        ("prep.frames_shared", p.frames_shared as u64),
        ("prep.cycles_charged", p.cycles_charged),
        ("prep.cycles_saved", p.cycles_saved),
    ] {
        o.sim.push((k.to_string(), v.to_string()));
    }
    for (k, v) in [
        ("clock_ghz", inst.clock_ghz),
        ("serve.utilization", r.device_utilization),
        ("cluster.imbalance_mean", r.sharding.as_ref().map_or(0.0, |s| s.mean_imbalance)),
        ("wall_seconds", r.wall_seconds),
        ("p50_latency_ms", r.p50_latency_ms),
        ("p99_latency_ms", r.p99_latency_ms),
        ("mse_sum", o.mse_sum),
    ] {
        o.sim.push((k.to_string(), format!("{v:?}")));
    }
    o
}

pub fn run(shape: Shape, seed: u64, budget: Duration) -> Run {
    let rec = gbu_telemetry::global();
    let start = std::time::Instant::now();
    let mut out = Run::default();
    // The first loop is a warm-up, so every variant, the first too, is
    // timed at least once.
    let (variants, min_loops) = match shape {
        Shape::FleetChurn => (1, FLEET_MIN_LOOPS),
        Shape::HdGoverned => (HD_VARIANTS, HD_VARIANTS + 1),
    };
    let build = |v: usize| match shape {
        Shape::FleetChurn => fleet_instance(seed),
        Shape::HdGoverned => hd_instance(seed, v),
    };

    let mut instances: Vec<Option<(Instance, ViewTables)>> = (0..variants).map(|_| None).collect();
    let mut firsts: Vec<Option<Outcome>> = (0..variants).map(|_| None).collect();
    let mut setups = Vec::new();
    let (mut loop_s, mut step_ms, mut device_est_s) = (Vec::new(), Vec::new(), Vec::new());
    // Host cost (`ref`) of the timed loops and of their slices, and the
    // frames those loops served.
    let (mut loop_cost, mut step_cost, mut timed_frames) = (Vec::new(), Vec::new(), 0u64);
    let mut reference = Reference::new();
    let mut timed_events = 0u64;
    let mut loops = 0;
    // The variants in turn, until the budget is spent.
    while loops < min_loops || start.elapsed() < budget {
        let v = loops % variants;
        // `fleet_churn` prepares afresh every loop; `hd_governed` once
        // per variant.
        let fresh = shape == Shape::FleetChurn || instances[v].is_none();
        let mut prepare_s = 0.0;
        if fresh {
            let t = HostTime::now();
            let inst = build(v);
            prepare_s = t.elapsed_s();
            let tables = check_views(&inst, &mut out);
            instances[v] = Some((inst, tables));
        }
        let (inst, tables) = instances[v].as_ref().expect("prepared above");
        let served = serve(inst, &mut out, &mut reference);
        if fresh {
            setups.push(prepare_s + served.attach_s);
        }
        let o = outcome(inst, &served, tables, &mut out);
        // The first loop warms the process up (heap growth, page faults)
        // and is not timed.
        if loops > 0 {
            loop_s.push(served.loop_s);
            step_ms.extend_from_slice(&served.step_ms);
            loop_cost.push(served.cost);
            step_cost.extend_from_slice(&served.step_cost);
            timed_frames += served.report.lifetime.generated as u64;
            timed_events += served.events.len() as u64;
            device_est_s.push(o.device_est_s);
        }
        match &firsts[v] {
            Some(first) if first.sim != o.sim => {
                out.fail(format!("variant {v}: a repeated loop changed the simulated outcome"))
            }
            Some(_) => {}
            None => firsts[v] = Some(o),
        }
        out.attempted += served.report.lifetime.generated as u64;
        loops += 1;
    }

    // Simulated figures: the first loop of every variant, pooled.
    let firsts: Vec<Outcome> = firsts.into_iter().map(|o| o.expect("every variant ran")).collect();
    let mut sum = HashMap::<&str, f64>::new();
    for (v, o) in firsts.iter().enumerate() {
        for (k, val) in &o.sim {
            out.sim.push((format!("v{v}.{k}"), val.clone()));
            *sum.entry(k.as_str()).or_default() += val.parse::<f64>().unwrap_or(0.0);
        }
    }
    let s = |k: &str| sum.get(k).copied().unwrap_or(0.0);
    let latency_ms: Vec<f64> = firsts.iter().flat_map(|o| o.latency_ms.iter().copied()).collect();
    let delivered: u64 = firsts.iter().map(|o| o.delivered).sum();
    let mse = report::ratio(firsts.iter().map(|o| o.mse_sum).sum(), delivered as f64);
    let generated = s("serve.generated");
    let sim_fps = report::ratio(s("serve.completed"), s("wall_seconds"));
    let on_time = report::ratio(s("serve.completed") - s("serve.missed"), generated);
    out.sim_real("sim_fps", sim_fps);
    out.sim_real("on_time_ratio", on_time);
    out.sim_real("delivered_psnr_db", report::psnr_db(mse));

    let total_loop_s: f64 = loop_s.iter().sum();
    out.unit_cost = report::mean(&loop_cost);
    out.notes.push(format!(
        "samples frame_cost n={} loops={loops} loop_s={:?}",
        step_cost.len(),
        loop_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    out.notes.push(reference.note());
    out.e2e = vec![
        Metric::new("setup_s", report::median(&setups), "s"),
        Metric::new("frames_per_ref", timed_frames as f64 / loop_cost.iter().sum::<f64>(), "1/ref"),
        Metric::new("frame_cost_p50", report::percentile(&step_cost, 0.5), "ref"),
        Metric::new("frame_cost_p95", report::percentile(&step_cost, 0.95), "ref"),
        Metric::new("sim_fps", sim_fps, "fps"),
        Metric::new("on_time_ratio", on_time, "ratio"),
        Metric::new("sim_latency_ms_p50", report::percentile(&latency_ms, 0.5), "ms"),
        Metric::new("sim_latency_ms_p99", report::percentile(&latency_ms, 0.99), "ms"),
        Metric::new("delivered_psnr_db", report::psnr_db(mse), "dB"),
    ];

    let spans = SpanStats::from_trace(&rec.snapshot());
    let mut l = Layers::from_spans(&spans);
    // View tables are a pure function of the seed, so the last
    // preparation of each variant stands for all of them.
    let tables: Vec<&ViewTables> = instances.iter().flatten().map(|(_, t)| t).collect();
    let tsum = |f: fn(&ViewTables) -> u64| tables.iter().map(|t| f(t)).sum::<u64>() as f64;
    let views = tsum(|t| t.views);
    l.set("render.pairs", tsum(|t| t.pairs) / views);
    l.set("render.sort_passes", tsum(|t| t.sort_passes) / views);
    l.set("render.fragments_pfs", tsum(|t| t.fragments_pfs) / views);
    l.set("render.fragments_irss", tsum(|t| t.fragments_irss) / views);
    let hits = tsum(|t| t.bincache_hits);
    l.set("render.bincache.hit_ratio", report::ratio(hits, hits + tsum(|t| t.bincache_misses)));
    l.set(
        "render.irss_pfs_max_diff",
        tables.iter().map(|t| f64::from(t.divergence.max_diff)).fold(0.0, f64::max),
    );
    l.set("render.irss_pfs_pixels_over", tsum(|t| t.divergence.pixels_over));
    let exact_device_s: f64 = tables
        .iter()
        .flat_map(|t| t.device_s.iter())
        .filter(|(k, _)| k.1 == 0)
        .map(|(_, s)| s)
        .sum();
    l.set("device.run_us_mean", report::ratio(exact_device_s, views) * 1e6);
    l.set("device.cycles_mean", report::ratio(tsum(|t| t.device_cycles), views));
    l.set("device.dram_bytes", report::ratio(tsum(|t| t.device_dram), views));
    l.set(
        "device.cache_hit_ratio",
        report::ratio(tsum(|t| t.device_cache_hits), tsum(|t| t.device_cache_accesses)),
    );
    let n = variants as f64;
    l.set("serve.loop_s", report::mean(&loop_s));
    l.set("serve.step_ms_p50", report::percentile(&step_ms, 0.5));
    l.set("serve.step_ms_p95", report::percentile(&step_ms, 0.95));
    l.set("serve.host_us_per_event", total_loop_s / timed_events as f64 * 1e6);
    l.set("serve.device_model_est_s", report::mean(&device_est_s));
    l.set("serve.control_plane_est_s", l.get("serve.loop_s") - l.get("serve.device_model_est_s"));
    l.set("serve.failed_ratio", report::ratio(s("serve.rejected") + s("serve.dropped"), generated));
    // Per loop, averaged over the variants.
    for name in
        ["serve.events", "serve.device_submissions", "serve.utilization", "cluster.imbalance_mean"]
    {
        l.set(name, s(name) / n);
    }
    // Totals over the variants.
    for name in [
        "serve.generated",
        "serve.completed",
        "serve.rejected",
        "serve.dropped",
        "serve.missed",
        "serve.requeued",
        "fleet.migrated",
        "fleet.lane_churn",
        "quality.frames_degraded",
        "quality.counter_offers",
        "quality.sheds",
        "quality.recoveries",
        "quality.cycles_saved",
        "prep.frames_shared",
        "prep.frames_charged",
        "prep.cycles_saved",
    ] {
        l.set(name, s(name));
    }
    l.set(
        "trace.layer_share",
        1.0 - report::ratio(
            spans.self_ms("serve.loop"),
            spans.total("serve.loop") - spans.total("reference"),
        ),
    );
    if rec.is_enabled() {
        out.notes.extend(spans.table());
    }
    out.layers = l.metrics();
    out
}
