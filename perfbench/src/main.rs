//! End-to-end benchmark of the EQueue simulator: design-space sweeps,
//! re-runs of compiled programs, and the edit–lower–simulate debug loop.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dse_sweep|rerun_mix|debug_loop> --seed N --seconds S --trace <0|1>
//! ```
//!
//! One process runs one workload. The last line of standard output is a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the lines
//! before it print the same metrics by name and unit. A *job* is one unit
//! of user work: one design point, one simulation, or one lowering-stage
//! iteration. Every job's output is checked; a job fails on a `SimError`,
//! a caught panic, or a failed check, and `failed / attempted` is the fail
//! ratio.
//!
//! `--trace 0` reports the end-to-end metrics, all host time:
//! `setup_s` (median of several set-ups: generating and compiling anything
//! the workload compiles once, plus warm-up), `throughput_per_s` (jobs per
//! wall second), `job_ms_p50` and `job_ms_p95` (per-job wall latency) and
//! `peak_rss_mb` (the process's resident high-water mark; each workload
//! runs in its own process). Jobs come in rounds, each a fixed mix drawn
//! from the seed, and a run measures whole rounds: it goes on past
//! `--seconds` to the end of the round in progress, and until every
//! segment holds 200 jobs. Throughput and percentiles are medians over five
//! segments of the run, each of whole rounds; p95 is refused unless ten
//! samples lie beyond it.
//!
//! `--trace 1` spends half of `--seconds` untraced and half with spans
//! recorded around every call into a layer, and reports per-layer metrics
//! from the traced half plus the difference between the two halves (the
//! tracing overhead). `<layer>.ms` is mean self time per call. Which
//! end-to-end metric each layer should move:
//!
//! | layer | spans | moves |
//! |-------|-------|-------|
//! | gen (`equeue-gen` + passes) | `gen` | `dse_sweep` throughput and p95; `rerun_mix` set-up |
//! | compile (`CompiledModule::compile`) | `compile` | `dse_sweep` throughput and p95; only set-up on `rerun_mix` |
//! | run (`simulate`, trace off) | `run` | `rerun_mix` throughput, p50, p95; ~22% of `dse_sweep` |
//! | teardown (drop module, plan, report) | `teardown` | `dse_sweep` throughput |
//! | pool (`equeue_bench::pool`) | job spans | `dse_sweep` throughput, not its p50 |
//! | ir (printer, parser) | `ir.print`, `ir.parse` | `debug_loop` only |
//! | analysis (`equeue-analysis`) | `analysis` | `debug_loop` only |
//! | trace (traced run, Chrome JSON) | `trace.run`, `trace.json` | `debug_loop` throughput and peak RSS |
//! | snapshot | `snapshot.*` | `debug_loop` only |
//! | check (SCALE-Sim, pinned counters) | `check` | the fail ratio |
//!
//! Layers a workload does not load report 0.

#![forbid(unsafe_code)]

mod debug_loop;
mod dse;
mod harness;
mod reference;
mod rerun;
mod spans;
mod stats;

use equeue_core::SimReport;
use harness::{Budget, Phase, SETUP_REPS};
use spans::{by_name, Tracer, JOB};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

type RunFn = fn(Budget, u64, Tracer) -> Result<Phase, String>;

const WORKLOADS: [(&str, RunFn); 3] = [
    ("dse_sweep", dse::run),
    ("rerun_mix", rerun::run),
    ("debug_loop", debug_loop::run),
];

/// Records the counters of an untraced run.
pub fn count_run(t: &mut Tracer, r: &SimReport) {
    t.count("run.events", r.events_processed as f64);
    t.count("run.ops", r.ops_interpreted as f64);
    t.count("run.fused_entries", r.fused_trace_entries as f64);
    t.count("run.sim_cycles", r.cycles as f64);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// End-to-end figures of one phase.
struct EndToEnd {
    setup_s: f64,
    throughput_per_s: f64,
    job_ms_p50: f64,
    job_ms_p95: f64,
    /// Jobs in each segment: the sample count behind each percentile.
    segment_jobs: Vec<usize>,
    /// Each segment's throughput, jobs per second.
    segment_throughput: Vec<f64>,
}

impl EndToEnd {
    /// Medians over the phase's segments of each segment's throughput and
    /// latency percentiles.
    fn of(phase: &Phase) -> Result<Self, String> {
        let segments = harness::segments(&phase.jobs);
        let (mut tput, mut p50, mut p95) = (Vec::new(), Vec::new(), Vec::new());
        let mut seg_start = 0.0;
        for seg in &segments {
            let ms: Vec<f64> = seg.iter().map(|j| j.ms).collect();
            let refused = |q| format!("a segment of {} jobs is too few for p{q}", ms.len());
            let seg_end = seg.iter().map(|j| j.end_s).fold(seg_start, f64::max);
            tput.push(ms.len() as f64 / (seg_end - seg_start));
            seg_start = seg_end;
            p50.push(stats::percentile(&ms, 0.50).ok_or_else(|| refused(50))?);
            p95.push(stats::percentile(&ms, 0.95).ok_or_else(|| refused(95))?);
        }
        let med = |v: &[f64], what| stats::median(v).ok_or(format!("no {what}"));
        Ok(EndToEnd {
            setup_s: med(&phase.setup_s, "set-up")?,
            throughput_per_s: med(&tput, "jobs")?,
            job_ms_p50: med(&p50, "jobs")?,
            job_ms_p95: med(&p95, "jobs")?,
            segment_jobs: segments.iter().map(|s| s.len()).collect(),
            segment_throughput: tput,
        })
    }
}

/// The process's resident-memory high-water mark, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn end_to_end(phase: &Phase) -> Result<Vec<Metric>, String> {
    let e = EndToEnd::of(phase)?;
    println!("  jobs per segment {:?}", e.segment_jobs);
    println!("  throughput per segment {:.2?}", e.segment_throughput);
    Ok(vec![
        m("setup_s", e.setup_s, "s"),
        m("throughput_per_s", e.throughput_per_s, "1/s"),
        m("job_ms_p50", e.job_ms_p50, "ms"),
        m("job_ms_p95", e.job_ms_p95, "ms"),
        m("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ])
}

fn per_layer(plain: &Phase, traced: &Phase) -> Result<Vec<Metric>, String> {
    let (p, q) = (EndToEnd::of(plain)?, EndToEnd::of(traced)?);
    let t = &traced.tracer;
    let names = by_name(t.spans());
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let self_ns = |n: &str| names.get(n).map_or(0.0, |s| s.self_ns as f64);
    let ms = |n: &str| {
        names
            .get(n)
            .map_or(0.0, |s| s.self_ns as f64 / 1e6 / s.calls as f64)
    };
    let total = |c: &str| t.counter(c).0;
    let mean = |c: &str| {
        let (sum, n) = t.counter(c);
        ratio(sum, n as f64)
    };
    let job = names.get(JOB).copied().unwrap_or_default();
    let pool = traced.pool.unwrap_or_default();
    Ok(vec![
        m("gen.ms", ms("gen"), "ms"),
        m("gen.ops_out", mean("gen.ops_out"), "ops"),
        m(
            "gen.ns_per_op",
            ratio(self_ns("gen"), total("gen.ops_out")),
            "ns/op",
        ),
        m("compile.ms", ms("compile"), "ms"),
        m(
            "compile.ns_per_op",
            ratio(self_ns("compile"), total("compile.ops")),
            "ns/op",
        ),
        m("run.ms", ms("run"), "ms"),
        m("run.events", mean("run.events"), "count"),
        m("run.ops", mean("run.ops"), "count"),
        m("run.fused_entries", mean("run.fused_entries"), "count"),
        m("run.sim_cycles", mean("run.sim_cycles"), "cycles"),
        m(
            "run.ns_per_event",
            ratio(self_ns("run"), total("run.events")),
            "ns/event",
        ),
        m("teardown.ms", ms("teardown"), "ms"),
        m("pool.busy_ratio", pool.busy_ratio, "ratio"),
        m("pool.tail_idle_ms", pool.tail_idle_ms, "ms"),
        m("ir.print_ms", ms("ir.print"), "ms"),
        m("ir.parse_ms", ms("ir.parse"), "ms"),
        m("ir.text_bytes", mean("ir.text_bytes"), "B"),
        m("analysis.ms", ms("analysis"), "ms"),
        m("analysis.errors", total("analysis.errors"), "count"),
        m("trace.run_ms", ms("trace.run"), "ms"),
        m("trace.events", mean("trace.events"), "count"),
        m("trace.json_ms", ms("trace.json"), "ms"),
        m("trace.json_bytes", mean("trace.json_bytes"), "B"),
        m("snapshot.capture_ms", ms("snapshot.capture"), "ms"),
        m("snapshot.encode_ms", ms("snapshot.encode"), "ms"),
        m("snapshot.decode_ms", ms("snapshot.decode"), "ms"),
        m("snapshot.resume_ms", ms("snapshot.resume"), "ms"),
        m("snapshot.bytes", mean("snapshot.bytes"), "B"),
        m("check.ms", ms("check"), "ms"),
        m("check.mismatches", total("check.mismatches"), "count"),
        m(
            "job.ms",
            ratio(job.total_ns as f64 / 1e6, job.calls as f64),
            "ms",
        ),
        m(
            "job.unaccounted_share",
            ratio(job.self_ns as f64, job.total_ns as f64),
            "ratio",
        ),
        m(
            "trace_overhead.throughput_pct",
            100.0 * ratio(p.throughput_per_s - q.throughput_per_s, p.throughput_per_s),
            "%",
        ),
        m(
            "trace_overhead.job_ms_p50_pct",
            100.0 * ratio(q.job_ms_p50 - p.job_ms_p50, p.job_ms_p50),
            "%",
        ),
    ])
}

/// Self time of each span name as a share of all job time, for the
/// human-readable report.
fn layer_table(traced: &Phase) -> String {
    let names = by_name(traced.tracer.spans());
    let job_ns = names.get(JOB).map_or(0, |s| s.total_ns).max(1) as f64;
    let mut out = String::new();
    for (name, s) in &names {
        let _ = writeln!(
            out,
            "  span {name:<18} {:>8} calls  {:>12.3} ms self  {:>6.1}% of job time",
            s.calls,
            s.self_ns as f64 / 1e6,
            100.0 * s.self_ns as f64 / job_ns
        );
    }
    out
}

fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args, epoch: Instant) -> Result<String, String> {
    let run = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map(|(_, f)| *f)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "workload {}  seed {}  seconds {}  trace {}  available_parallelism {cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (phases, metrics) = if args.trace {
        let half = Budget {
            seconds: args.seconds / 2.0,
        };
        let plain = run(half, args.seed, Tracer::new(false, epoch))?;
        let traced = run(half, args.seed, Tracer::new(true, epoch))?;
        print!("{}", layer_table(&traced));
        let metrics = per_layer(&plain, &traced)?;
        (vec![plain, traced], metrics)
    } else {
        let phase = run(
            Budget {
                seconds: args.seconds,
            },
            args.seed,
            Tracer::new(false, epoch),
        )?;
        let metrics = end_to_end(&phase)?;
        (vec![phase], metrics)
    };
    for x in &metrics {
        println!("  {:<32} {:>16.6} {}", x.name, x.value, x.unit);
    }
    let jobs = || phases.iter().flat_map(|p| &p.jobs);
    let attempted = jobs().count();
    let failures: Vec<&String> = jobs().filter_map(|j| j.failure.as_ref()).collect();
    let distinct: std::collections::BTreeSet<&String> = failures.iter().copied().collect();
    println!(
        "  jobs {attempted}, failed {}, fail_ratio {}, set-up repeated {SETUP_REPS}x",
        failures.len(),
        failures.len() as f64 / attempted.max(1) as f64
    );
    for f in distinct.iter().take(20) {
        eprintln!("failed job: {f}");
    }
    Ok(json(
        failures.is_empty(),
        attempted,
        failures.len(),
        &metrics,
    ))
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let result = parse_args().and_then(|args| run(&args, epoch));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
