//! Telemetry pins for the serving stack:
//!
//! 1. **No perturbation** — the same mixed sharded/unsharded cluster
//!    workload run with telemetry disabled and with telemetry recording
//!    at `High` verbosity produces a bit-identical `ServeEvent` stream
//!    and a byte-identical `ServeReport` JSON: observability never feeds
//!    back into the simulation (this is what keeps the committed
//!    `BENCH_serve.json` reproducible with tracing off *or* on);
//! 2. **Trace / metrics reconciliation** (property) — across random
//!    attach/detach/overload schedules and *any* `metrics_window`, the
//!    whole-run `LifetimeCounts` conserve frames, the recorded trace is
//!    well-nested, and the `TraceSummary` frame fold agrees with
//!    `ServeMetrics` frame by frame, to the cycle.

use gbu_hw::GbuConfig;
use gbu_serve::{
    calibrated_clock_ghz, AdmissionControl, BackendKind, ExecMode, Policy, QosTarget, ServeConfig,
    ServeEngine, ServeEvent, ServeReport, Session, SessionContent, SessionSpec,
};
use gbu_telemetry::{validate, Recorder, TraceSummary, Verbosity};
use proptest::prelude::*;

fn workload(n_sessions: usize, frames: u32, seed: u64) -> Vec<Session> {
    (0..n_sessions)
        .map(|i| {
            Session::prepare(
                SessionSpec {
                    name: format!("s{i}"),
                    content: SessionContent::Synthetic {
                        seed: seed + i as u64,
                        gaussians: 30 + 40 * (i % 3),
                    },
                    qos: [QosTarget::AR_60, QosTarget::VR_72, QosTarget::VR_90][i % 3],
                    frames,
                    phase: (i as f64 * 0.37).fract(),
                    exec: ExecMode::Unsharded,
                },
                &GbuConfig::paper(),
            )
        })
        .collect()
}

/// Every third session unsharded, the rest sharded — shard spans and
/// per-lane folds get exercised alongside the classic path.
fn mixed_workload(n_sessions: usize, frames: u32, seed: u64, lanes: usize) -> Vec<Session> {
    use gbu_render::shard::ShardStrategy;
    let mut sessions = workload(n_sessions, frames, seed);
    for (i, s) in sessions.iter_mut().enumerate() {
        s.spec.exec = match i % 3 {
            0 => ExecMode::Unsharded,
            1 => ExecMode::Sharded { shards: 2.min(lanes), strategy: ShardStrategy::Measured },
            _ => ExecMode::Sharded { shards: lanes, strategy: ShardStrategy::CostBalanced },
        };
    }
    sessions
}

fn cluster_config(lanes: usize, depth: usize, deadline_aware: bool) -> ServeConfig {
    ServeConfig {
        backend: BackendKind::Cluster { lanes, devices_per_lane: 1 },
        policy: Policy::Edf,
        admission: AdmissionControl {
            max_queue_depth: depth,
            reject_unmeetable: deadline_aware,
            ..AdmissionControl::default()
        },
        drop_unmeetable: deadline_aware,
        ..ServeConfig::default()
    }
}

/// Attach, step through `slices` (detaching `detach_count` sessions at
/// the first slice boundary past `detach_after`), drain, seal.
fn run_engine(
    cfg: ServeConfig,
    sessions: &[Session],
    slices: &[u64],
    detach_count: usize,
    detach_after: u64,
) -> (Vec<ServeEvent>, ServeReport) {
    let mut engine = ServeEngine::new(cfg);
    let ids: Vec<_> = sessions.iter().map(|s| engine.attach_session(s.clone())).collect();
    let mut events = Vec::new();
    let mut now = 0u64;
    let mut detached = false;
    for &slice in slices {
        now += slice;
        events.extend(engine.step_until(now));
        if !detached && now >= detach_after {
            detached = true;
            for id in ids.iter().take(detach_count) {
                engine.detach_session(*id);
            }
        }
    }
    if !detached {
        for id in ids.iter().take(detach_count) {
            engine.detach_session(*id);
        }
    }
    events.extend(engine.drain());
    events.extend(engine.finish());
    assert!(engine.is_drained());
    (events, engine.report())
}

/// Recording at the highest verbosity is invisible to serving results:
/// identical event stream, byte-identical report JSON.
#[test]
fn recording_does_not_perturb_serving() {
    let lanes = 3;
    let sessions = mixed_workload(5, 3, 42, lanes);
    let mut cfg = cluster_config(lanes, 8, true);
    cfg.gbu.clock_ghz = calibrated_clock_ghz(&sessions, lanes, 1.2);

    let mut off = cfg.clone();
    off.telemetry = Recorder::disabled();
    let (events_off, report_off) = run_engine(off, &sessions, &[10_000, 250_000], 1, 200_000);

    let recorder = Recorder::enabled(Verbosity::High);
    let mut on = cfg;
    on.telemetry = recorder.clone();
    let (events_on, report_on) = run_engine(on, &sessions, &[10_000, 250_000], 1, 200_000);

    assert_eq!(events_on, events_off, "telemetry changed the event stream");
    assert_eq!(report_on.to_json(), report_off.to_json(), "telemetry changed the report JSON");

    // And the enabled run did record a reconcilable trace.
    let trace = recorder.snapshot();
    validate(&trace).expect("trace must be well-nested and frame-partitioned");
    let summary = TraceSummary::from_trace(&trace);
    assert_eq!(summary.frame_count(), report_on.lifetime.completed as u64);
    assert!(!summary.lanes.is_empty(), "cluster lanes must fold device_busy spans");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Satellite 3: `LifetimeCounts` conservation and trace/metrics
    /// agreement across random attach/detach/overload schedules with
    /// any `metrics_window`.
    #[test]
    fn trace_reconciles_with_metrics_across_schedules(
        n_sessions in 3usize..6,
        frames in 2u32..5,
        lanes in 2usize..4,
        depth in 2usize..8,
        util_pct in 60u32..300,
        seed in 0u64..1000,
        deadline_aware in any::<bool>(),
        detach_count in 0usize..3,
        detach_after in 1u64..300_000,
        window_raw in 0usize..40,
        slices in prop::collection::vec(1u64..50_000, 1..24),
    ) {
        // 0 encodes "no window" (full retention).
        let window = (window_raw > 0).then_some(window_raw);
        let sessions = mixed_workload(n_sessions, frames, seed, lanes);
        let recorder = Recorder::enabled(Verbosity::Normal);
        let mut cfg = cluster_config(lanes, depth, deadline_aware);
        cfg.metrics_window = window;
        cfg.telemetry = recorder.clone();
        cfg.gbu.clock_ghz =
            calibrated_clock_ghz(&sessions, lanes, f64::from(util_pct) / 100.0);

        let (events, report) =
            run_engine(cfg, &sessions, &slices, detach_count, detach_after);

        // Whole-run conservation, independent of the retention window.
        let life = report.lifetime;
        prop_assert_eq!(life.generated, life.completed + life.rejected + life.dropped);
        prop_assert!(life.missed <= life.completed);
        // The windowed report never exceeds lifetime totals.
        prop_assert!(report.completed <= life.completed);
        prop_assert!(report.rejected <= life.rejected);
        prop_assert!(report.dropped <= life.dropped);
        if window.is_none() {
            prop_assert_eq!(report.completed, life.completed);
            prop_assert_eq!(report.generated, life.generated);
        }

        // The trace reconciles with the metrics regardless of the window:
        // spans cover the whole run, like `LifetimeCounts`.
        let trace = recorder.snapshot();
        prop_assert!(validate(&trace).is_ok(), "{:?}", validate(&trace));
        let summary = TraceSummary::from_trace(&trace);
        prop_assert_eq!(summary.frame_count(), life.completed as u64);
        prop_assert_eq!(trace.counter("serve.completed").unwrap_or(0), life.completed as u64);
        prop_assert_eq!(trace.counter("serve.admitted").unwrap_or(0) as usize,
            events.iter().filter(|e| matches!(e, ServeEvent::Admitted { .. })).count());

        // Frame-by-frame: every Completed event has exactly one frame
        // span whose duration is the event's latency to the cycle, cut
        // exactly into queue-wait + service.
        let mut completed_events = 0usize;
        for e in &events {
            let ServeEvent::Completed { frame, session, latency_cycles, .. } = e else {
                continue;
            };
            completed_events += 1;
            let stats: Vec<_> = summary
                .frames
                .iter()
                .filter(|f| f.frame == frame.index() && f.session == session.index() as u32)
                .collect();
            prop_assert_eq!(stats.len(), 1, "one frame span per completion");
            let f = stats[0];
            prop_assert_eq!(f.latency_cycles, *latency_cycles, "latency must match to the cycle");
            prop_assert_eq!(f.queue_wait_cycles + f.service_cycles, f.latency_cycles);
        }
        prop_assert_eq!(completed_events, life.completed);

        // Shard spans fold onto lanes consistently with shard events.
        let shard_events =
            events.iter().filter(|e| matches!(e, ServeEvent::ShardCompleted { .. })).count();
        let dropped_after_shards = events.iter().any(|e| matches!(e, ServeEvent::Dropped { .. }));
        let folded: u64 = summary.lanes.iter().map(|l| l.shards).sum();
        if !dropped_after_shards {
            prop_assert_eq!(folded as usize, shard_events);
        } else {
            // Dropped sharded frames purge their buffered shard spans.
            prop_assert!(folded as usize <= shard_events);
        }
    }
}

/// The device-run memo computes each distinct (view, shard rows) run
/// once: N frames over one view record one miss per distinct run and a
/// hit for every other device run.
#[test]
fn device_memo_counts_one_miss_per_distinct_run() {
    use gbu_render::shard::ShardStrategy;
    const FRAMES: u64 = 6;
    let lanes = 2;
    for exec in [
        ExecMode::Unsharded,
        ExecMode::Sharded { shards: lanes, strategy: ShardStrategy::CostBalanced },
    ] {
        let mut session = workload(1, 0, 5).remove(0);
        session.spec.exec = exec;
        let recorder = Recorder::enabled(Verbosity::Normal);
        let mut cfg = cluster_config(lanes, 64, false);
        cfg.telemetry = recorder.clone();
        let mut engine = ServeEngine::new(cfg);
        let sid = engine.attach_session(session);
        for _ in 0..FRAMES {
            // Always viewpoint 0; a CostBalanced plan of one view is fixed.
            engine.handle().submit_frame(sid, 0);
            engine.drain();
        }
        assert_eq!(engine.report().completed as u64, FRAMES);
        let trace = recorder.snapshot();
        let runs = FRAMES * exec.lanes_needed() as u64;
        let misses = trace.counter("serve.device_memo.misses").unwrap_or(0);
        let hits = trace.counter("serve.device_memo.hits").unwrap_or(0);
        assert_eq!(misses, exec.lanes_needed() as u64, "{exec:?}: one miss per distinct run");
        assert_eq!(hits, runs - misses, "{exec:?}: every other run hits");
    }
}
