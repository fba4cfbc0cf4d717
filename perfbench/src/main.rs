//! `perfbench` — the repository benchmark.
//!
//! Drives the workspace only through its public APIs
//! (`gbu_render::pipeline`, `gbu_core::Gbu`, `gbu_serve`) on one of three
//! seeded workloads and prints every metric by name with its unit, then
//! one JSON result line:
//!
//! ```text
//! perfbench --workload <render_walk|fleet_churn|hd_governed> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the workload twice, untraced and then with the
//! `gbu_telemetry` recorder and the benchmark's own layer spans on, and
//! reports the per-layer metrics plus the tracing overhead. See
//! `README.md` in this directory for the metric → layer → workload map.

mod clock;
mod reference;
mod render_walk;
mod report;
mod rng;
mod serving;
mod spans;

use report::{Metric, Run};
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <render_walk|fleet_churn|hd_governed> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The three workloads, by name.
const WORKLOADS: [&str; 3] = ["render_walk", "fleet_churn", "hd_governed"];

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds must lie in (0, 3600], got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run_workload(args: &Args, budget: Duration, traced: bool) -> Run {
    // Every run starts from a fresh recorder so one run's spans never
    // leak into the next.
    let recorder = if traced {
        gbu_telemetry::Recorder::enabled(gbu_telemetry::Verbosity::Normal)
    } else {
        gbu_telemetry::Recorder::disabled()
    };
    gbu_telemetry::set_global(recorder);
    let run = match args.workload {
        "render_walk" => render_walk::run(args.seed, budget),
        "fleet_churn" => serving::run(serving::Shape::FleetChurn, args.seed, budget),
        "hd_governed" => serving::run(serving::Shape::HdGoverned, args.seed, budget),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    };
    gbu_telemetry::set_global(gbu_telemetry::Recorder::disabled());
    run
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // One worker unless the caller asks for more: on a shared host a
    // second worker's availability swings host figures far more than any
    // change under test. Set before the pool's first use.
    if std::env::var_os(gbu_telemetry::THREADS_ENV).is_none() {
        std::env::set_var(gbu_telemetry::THREADS_ENV, "1");
    }
    // The recorder must be off unless this run asks for it, whatever
    // `GBU_TRACE` says.
    gbu_telemetry::set_global(gbu_telemetry::Recorder::disabled());
    let nproc = gbu_telemetry::host_threads();
    let host_threads = gbu_par::global().threads();
    let gbu_threads = std::env::var(gbu_telemetry::THREADS_ENV).ok();
    println!(
        "run_info {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"host_threads\":{host_threads},\"gbu_threads_env\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        gbu_threads.map_or("null".to_string(), |v| format!("\"{}\"", v.replace('"', ""))),
    );

    let budget = Duration::from_secs_f64(args.seconds);
    let (run, metrics) = if args.trace {
        // Same work twice: untraced for the overhead baseline, traced for
        // the per-layer numbers.
        let plain = run_workload(&args, budget / 2, false);
        let mut traced = run_workload(&args, budget / 2, true);
        if traced.sim_digest() != plain.sim_digest() {
            eprintln!("CHECK FAILED: tracing changed the simulated outcome");
            traced.failed += 1;
        }
        let mut layers = traced.layers.clone();
        layers.push(Metric::new(
            "trace.overhead_ratio",
            traced.unit_cost / plain.unit_cost,
            "ratio",
        ));
        traced.attempted += plain.attempted;
        traced.failed += plain.failed;
        (traced, layers)
    } else {
        let mut run = run_workload(&args, budget, false);
        let mut e2e = std::mem::take(&mut run.e2e);
        e2e.insert(1, Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
        (run, e2e)
    };

    for (name, value) in &run.sim {
        println!("sim {name} {value}");
    }
    println!("digest {:016x}", run.sim_digest());
    for note in &run.notes {
        println!("{note}");
    }
    for m in &metrics {
        println!("metric {} {} {}", m.name, report::num(m.value), m.unit);
    }
    let correct = run.failed == 0;
    println!("{}", report::result_json(correct, run.attempted, run.failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
