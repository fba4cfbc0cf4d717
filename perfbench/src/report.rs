//! Result plumbing shared by the workloads: named metrics, the
//! simulated-outcome digest, percentiles and the JSON result line.

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted (poses walked or frames generated).
    pub attempted: u64,
    /// Correctness checks that failed.
    pub failed: u64,
    /// End-to-end metrics, minus `peak_rss_mb` (which `main` adds).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics; the span-derived ones are meaningful only when
    /// the run was traced.
    pub layers: Vec<Metric>,
    /// Every simulated figure, as exact text, in a fixed order: equal
    /// across runs of one seed and across tracing on/off.
    pub sim: Vec<(String, String)>,
    /// Host cost (`ref`) of one unit of measured work (mean pose, or mean
    /// serving loop) — the base of the tracing-overhead ratio.
    pub unit_cost: f64,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Run {
    /// FNV-1a over the simulated figures.
    pub fn sim_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (k, v) in &self.sim {
            for b in k.bytes().chain([b'=']).chain(v.bytes()).chain([b'\n']) {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// Records a simulated integer figure.
    pub fn sim_int(&mut self, name: impl Into<String>, v: u64) {
        self.sim.push((name.into(), v.to_string()));
    }

    /// Records a simulated real figure exactly (shortest round-trip
    /// decimal, so equal text means equal bits).
    pub fn sim_real(&mut self, name: impl Into<String>, v: f64) {
        self.sim.push((name.into(), format!("{v:?}")));
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        eprintln!("CHECK FAILED: {what}");
        self.failed += 1;
    }
}

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted samples;
/// NaN when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// PSNR (dB, peak 1.0) of a mean squared error, capped at 99 dB so exact
/// delivery reads as a finite number.
pub fn psnr_db(mse: f64) -> f64 {
    const CAP_DB: f64 = 99.0;
    if mse <= 0.0 {
        CAP_DB
    } else {
        (10.0 * (1.0 / mse).log10()).min(CAP_DB)
    }
}

/// A JSON number with all its digits; non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The final result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// How far the IRSS image of a view strays from its PFS image. The
/// paper's dataflows are mathematically identical; this implementation
/// drops a splat's contribution on a few pixels of some views, so the
/// benchmark gates on image PSNR and reports the per-pixel divergence.
#[derive(Debug, Default, Clone, Copy)]
pub struct Divergence {
    /// Largest per-channel difference seen.
    pub max_diff: f32,
    /// Pixels differing by more than [`Divergence::PIXEL_TOLERANCE`].
    pub pixels_over: u64,
}

impl Divergence {
    /// Per-channel tolerance of the workspace's pipeline-equivalence test.
    pub const PIXEL_TOLERANCE: f32 = 5e-3;
    /// Lowest IRSS vs PFS PSNR (dB) a view may have.
    pub const PSNR_FLOOR: f64 = 40.0;

    /// Folds one view in; returns the view's PSNR when it is below
    /// [`Divergence::PSNR_FLOOR`].
    pub fn add(
        &mut self,
        pfs: &gbu_render::FrameBuffer,
        irss: &gbu_render::FrameBuffer,
    ) -> Option<f64> {
        for (p, q) in pfs.pixels().iter().zip(irss.pixels()) {
            let d = *p - *q;
            let m = d.x.abs().max(d.y.abs()).max(d.z.abs());
            self.max_diff = self.max_diff.max(m);
            self.pixels_over += u64::from(m > Self::PIXEL_TOLERANCE);
        }
        let psnr = gbu_render::contrib::psnr(irss, pfs);
        (psnr < Self::PSNR_FLOOR).then_some(psnr)
    }
}

/// Every per-layer metric with its unit, in the order `BENCHMARK.json`
/// lists them.
pub const LAYER_METRICS: [(&str, &str); 48] = [
    ("scene.build_ms", "ms"),
    ("render.project_ms", "ms"),
    ("render.bin_ms", "ms"),
    ("render.bin_cached_ms", "ms"),
    ("render.blend_pfs_ms", "ms"),
    ("render.blend_irss_ms", "ms"),
    ("render.bin_expand_ms", "ms"),
    ("render.bin_sort_ms", "ms"),
    ("render.pairs", "count"),
    ("render.sort_passes", "count"),
    ("render.fragments_pfs", "count"),
    ("render.fragments_irss", "count"),
    ("render.bincache.hit_ratio", "ratio"),
    ("render.irss_pfs_max_diff", "linear"),
    ("render.irss_pfs_pixels_over", "count"),
    ("device.run_ms", "ms"),
    ("device.run_us_mean", "us"),
    ("device.cycles_mean", "cycles"),
    ("device.dram_bytes", "bytes"),
    ("device.cache_hit_ratio", "ratio"),
    ("serve.loop_s", "s"),
    ("serve.step_ms_p50", "ms"),
    ("serve.step_ms_p95", "ms"),
    ("serve.events", "count"),
    ("serve.host_us_per_event", "us"),
    ("serve.device_submissions", "count"),
    ("serve.device_model_est_s", "s"),
    ("serve.control_plane_est_s", "s"),
    ("serve.generated", "count"),
    ("serve.completed", "count"),
    ("serve.rejected", "count"),
    ("serve.dropped", "count"),
    ("serve.missed", "count"),
    ("serve.requeued", "count"),
    ("serve.failed_ratio", "ratio"),
    ("serve.utilization", "ratio"),
    ("cluster.imbalance_mean", "ratio"),
    ("fleet.migrated", "count"),
    ("fleet.lane_churn", "count"),
    ("quality.frames_degraded", "count"),
    ("quality.counter_offers", "count"),
    ("quality.sheds", "count"),
    ("quality.recoveries", "count"),
    ("quality.cycles_saved", "cycles"),
    ("prep.frames_shared", "count"),
    ("prep.frames_charged", "count"),
    ("prep.cycles_saved", "cycles"),
    ("trace.layer_share", "ratio"),
];

/// Per-layer figures by name. A workload sets what its layers do; the
/// rest read 0 (a layer the workload never calls).
#[derive(Debug, Default)]
pub struct Layers(std::collections::HashMap<&'static str, f64>);

impl Layers {
    /// # Panics
    ///
    /// Panics on a name missing from [`LAYER_METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "unknown layer metric {name}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The span-derived render, scene and device timings.
    pub fn from_spans(spans: &crate::spans::SpanStats) -> Self {
        let mut l = Self::default();
        for (metric, span) in [
            ("scene.build_ms", "scene.build"),
            ("render.project_ms", "project"),
            ("render.bin_ms", "bin"),
            ("render.bin_cached_ms", "render.bin_cached"),
            ("render.blend_pfs_ms", "render.blend_pfs"),
            ("render.blend_irss_ms", "render.blend_irss"),
            ("render.bin_expand_ms", "bin_expand"),
            ("render.bin_sort_ms", "bin_sort"),
            ("device.run_ms", "device.run"),
        ] {
            l.set(metric, spans.p50(span));
        }
        l
    }

    pub fn metrics(&self) -> Vec<Metric> {
        LAYER_METRICS.iter().map(|&(name, unit)| Metric::new(name, self.get(name), unit)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn psnr_caps_exact_delivery() {
        assert_eq!(psnr_db(0.0), 99.0);
        assert!((psnr_db(1e-4) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn digest_tracks_every_figure() {
        let mut a = Run::default();
        a.sim_int("x", 1);
        let mut b = Run::default();
        b.sim_int("x", 2);
        assert_ne!(a.sim_digest(), b.sim_digest());
    }
}
