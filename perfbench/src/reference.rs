//! The reference workload every host time is expressed in.
//!
//! CPU time does not hide a shared host's own speed: the 2-vCPU host
//! this benchmark was tuned on runs the same pose in 155 ms or in 240 ms
//! of CPU time depending on what its other tenants do, in states that
//! last from seconds to minutes. So every timed unit (a pose, a serving
//! loop) is divided by the CPU time of a fixed reference workload run
//! right before and right after it, and the benchmark reports host cost
//! in `ref`, multiples of one reference run. The reference sorts a fixed
//! pseudo-random array of 2^18 `u64` (2 MiB). Of the kernels tried
//! (sorts of 2 and 8 MiB, hash-map churn and lookups, pointer chasing,
//! allocation churn, table gathers, floating-point chains) it tracked
//! the host's states best overall: it slows ~1.3-1.45x where a pose
//! slows ~1.3-1.6x, so a pose's cost in `ref` moves by under 10% between
//! the states where its CPU time moves by up to 60%. It uses nothing of
//! the workspace, so a change to the program moves the cost and never
//! the reference.

use crate::clock::HostTime;

/// Elements sorted by one reference run.
const LEN: usize = 1 << 18;

pub struct Reference {
    input: Vec<u64>,
    work: Vec<u64>,
    /// Host seconds of every run so far.
    pub samples: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let input = (0..LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Self { input, work: Vec::with_capacity(LEN), samples: Vec::new() }
    }

    /// Runs the reference once; returns its host seconds.
    pub fn run(&mut self) -> f64 {
        self.work.clear();
        self.work.extend_from_slice(&self.input);
        let t = HostTime::now();
        self.work.sort_unstable();
        std::hint::black_box(&self.work);
        let s = t.elapsed_s();
        self.samples.push(s);
        s
    }

    /// The `samples` note line: reference runs and their median in ms,
    /// for converting `ref` back to host time on this host.
    pub fn note(&self) -> String {
        format!(
            "reference sort_u64x{LEN} runs={} median_ms={:.4}",
            self.samples.len(),
            crate::report::median(&self.samples) * 1e3
        )
    }
}
