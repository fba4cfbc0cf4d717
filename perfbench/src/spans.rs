//! Per-layer figures from the wall-clock spans of a traced run: the
//! benchmark's own layer spans (opened around every call into a layer)
//! and the spans the render pipeline already emits.

use gbu_telemetry::{Domain, Labels, Trace};
use std::collections::HashMap;

/// Runs `f` inside a benchmark layer span on the process recorder (a
/// branch when tracing is off).
pub fn layer<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let recorder = gbu_telemetry::global();
    let _span = recorder.wall_span(name, Labels::default());
    f()
}

/// Wall spans of one trace, folded by name.
#[derive(Debug, Default)]
pub struct SpanStats {
    /// Durations (ms) of every span with a name, in trace order.
    durations: HashMap<&'static str, Vec<f64>>,
    /// Self time (ms): duration minus the part covered by child spans.
    self_ms: HashMap<&'static str, f64>,
}

impl SpanStats {
    /// Folds the wall-domain spans of `trace`. A `bin` span whose parent
    /// is the benchmark's `render.bin_cached` span is renamed
    /// `bin(cached)`, so `bin` durations are cold binning only.
    pub fn from_trace(trace: &Trace) -> Self {
        let wall: Vec<_> = trace.spans.iter().filter(|s| s.domain == Domain::Wall).collect();
        let names: HashMap<_, _> = wall.iter().map(|s| (s.id, s.name)).collect();
        let mut child_ns: HashMap<_, u64> = HashMap::new();
        for s in &wall {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.duration();
            }
        }
        let mut out = SpanStats::default();
        for s in &wall {
            let name = match (s.name, s.parent.and_then(|p| names.get(&p))) {
                ("bin", Some(&"render.bin_cached")) => "bin(cached)",
                (name, _) => name,
            };
            let ms = s.duration() as f64 / 1e6;
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            out.durations.entry(name).or_default().push(ms);
            *out.self_ms.entry(name).or_default() +=
                s.duration().saturating_sub(children) as f64 / 1e6;
        }
        out
    }

    /// Durations (ms) of spans named `name`.
    pub fn durations(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median duration (ms) of spans named `name`; 0 when none ran.
    pub fn p50(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            crate::report::median(d)
        }
    }

    /// Total duration (ms) of spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time (ms) of spans named `name`.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }

    /// The self-time table, largest first: one `layer_self` line per
    /// span name with its count, total and self milliseconds.
    pub fn table(&self) -> Vec<String> {
        let mut names: Vec<_> = self.durations.keys().copied().collect();
        names.sort_by(|a, b| self.self_ms(b).total_cmp(&self.self_ms(a)).then(a.cmp(b)));
        names
            .into_iter()
            .map(|n| {
                format!(
                    "layer_self {n} count={} total_ms={:.3} self_ms={:.3}",
                    self.durations(n).len(),
                    self.total(n),
                    self.self_ms(n)
                )
            })
            .collect()
    }
}
