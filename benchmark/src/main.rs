//! End-to-end and per-layer benchmark of the GRAF reproduction.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload sim_open --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process, one thread. The workload is generated from `--seed`; the
//! program under test only receives the generated inputs. Repetitions of
//! the workload's fixed unit of work run until `--seconds` have passed.
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` untraced and traced repetitions
//! alternate and the object carries the per-layer metrics. Every run checks
//! its outputs; a failed check makes the exit code non-zero.

mod autoscale_closed;
mod build;
mod common;
mod control_replay;
mod sim_open;
mod tracer;

use std::collections::BTreeMap;
use std::time::Instant;

use common::{median, peak_rss_mb, quantile, Counters, Ledger};
use tracer::Span;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("step_p50_ms", "ms"),
    ("step_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("mean_instances", "count"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). A layer a
/// workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.arrivals_ms", "ms"),
    ("loadgen.arrivals", "count"),
    ("loadgen.feedback_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.injected", "count"),
    ("sim.completed", "count"),
    ("sim.timeouts", "count"),
    ("sim.in_flight_end", "count"),
    ("sim.slo_miss_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.spans_dropped", "count"),
    ("trace.drain_ms", "ms"),
    ("metrics.rates_ms", "ms"),
    ("orch.ticks", "count"),
    ("orch.scale_ups", "count"),
    ("orch.scale_downs", "count"),
    ("core.decisions", "count"),
    ("core.decision_p50_ms", "ms"),
    ("core.decision_p90_ms", "ms"),
    ("core.tick_ms", "ms"),
    ("core.analyzer_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("core.solver_iters", "count"),
    ("core.ns_per_solver_iter", "ns"),
    ("core.solver_capped_frac", "ratio"),
    ("core.refine_ms", "ms"),
    ("core.refine_frac", "ratio"),
    ("core.refine_saved", "count"),
    ("collect.profile_ms", "ms"),
    ("collect.bounds_ms", "ms"),
    ("collect.samples_ms", "ms"),
    ("collect.samples", "count"),
    ("collect.yield", "ratio"),
    ("train.ms", "ms"),
    ("train.iters", "count"),
    ("train.ms_per_iter", "ms"),
    ("train.best_val", "loss"),
    ("bench.attributed_frac", "ratio"),
    ("bench.trace_overhead_ms", "ms"),
    ("bench.step_p99_ms", "ms"),
    ("host.probe_start_ms", "ms"),
    ("host.probe_end_ms", "ms"),
];

/// Sizes of every workload. `full` is what the benchmark measures; `tiny`
/// only exercises every path for the smoke test.
pub struct Scale {
    /// `sim_open` open-loop rate per API (home, browse, cart page), req/s.
    pub open_qps: [f64; 3],
    /// `sim_open` warm-up simulated before the measured part, s.
    pub open_warmup_s: f64,
    /// `sim_open` measured simulated time per repetition, s.
    pub open_measure_s: f64,
    /// Times the control workloads build the model in set-up.
    pub builds: usize,
    /// Samples collected per build.
    pub samples: usize,
    /// Training epochs per build.
    pub epochs: usize,
    /// Sample measurement window, simulated s.
    pub sample_measure_s: f64,
    /// Sample warm-up, simulated s.
    pub sample_warmup_s: f64,
    /// `control_replay` decisions per repetition.
    pub decisions: usize,
    /// `autoscale_closed` simulated minutes per experiment.
    pub minutes: usize,
    /// `autoscale_closed` mean closed-loop users.
    pub mean_users: f64,
}

impl Scale {
    fn full() -> Self {
        Self {
            open_qps: [15_000.0, 15_000.0, 20_000.0],
            open_warmup_s: 1.0,
            open_measure_s: 10.0,
            builds: 3,
            samples: 150,
            epochs: 15,
            sample_measure_s: 4.0,
            sample_warmup_s: 2.0,
            decisions: 2000,
            minutes: 10,
            mean_users: 2000.0,
        }
    }

    fn tiny() -> Self {
        Self {
            open_qps: [300.0, 300.0, 400.0],
            open_warmup_s: 0.5,
            open_measure_s: 1.0,
            builds: 2,
            samples: 24,
            epochs: 3,
            sample_measure_s: 1.0,
            sample_warmup_s: 0.5,
            decisions: 20,
            minutes: 3,
            mean_users: 300.0,
        }
    }
}

/// Arguments of one run.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One repetition of a workload's fixed unit of work.
#[derive(Default)]
pub struct Rep {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Host seconds of the measured part.
    pub wall_s: f64,
    /// Host ms per step; the steps make up the measured part. A step is a
    /// simulated segment (with any control tick before it), or a decision
    /// on `control_replay`.
    pub steps_ms: Vec<f64>,
    /// Host ms per controller decision (empty on `sim_open`).
    pub decisions_ms: Vec<f64>,
    /// Exact work counters.
    pub counters: Counters,
    /// Spans of a traced repetition, the root named `rep`.
    pub spans: Vec<Span>,
}

/// Runs `rep` until `seconds` have passed (at least once). With tracing,
/// untraced and traced repetitions alternate, at least one of each.
pub fn repeat(args: &RunArgs, mut rep: impl FnMut(bool) -> Rep) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        reps.push(rep(traced));
        let enough = start.elapsed().as_secs_f64() >= args.seconds;
        if enough && (!args.trace || reps.len() >= 2) {
            return reps;
        }
    }
}

/// Everything a workload hands back for printing.
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub ledger: Ledger,
    pub spans: Vec<Span>,
}

/// The per-step floor of a run: for each step, its least host time over the
/// untraced repetitions.
///
/// Every repetition replays the same steps (its exact counters are checked
/// equal), so the floor is each step's cost with the least interference. A
/// shared host switches between a fast state and one up to twice as slow in
/// phases of seconds; medians over a run then track the share of time spent
/// slow, and a repetition's whole wall time is fast only if the host stayed
/// fast throughout, while the floor needs each step to run fast only once.
fn floor(reps: &[&Rep], steps: fn(&Rep) -> &Vec<f64>) -> Vec<f64> {
    let n = reps.iter().map(|r| steps(r).len()).min().unwrap_or(0);
    (0..n).map(|i| reps.iter().map(|r| steps(r)[i]).fold(f64::INFINITY, f64::min)).collect()
}

fn min(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// Turns repetitions into the run's metrics and checks that every exact
/// counter repeats, traced or not.
///
/// `setup_s` is the median set-up time, `mean_instances` the workload's
/// exact instance figure, and `extra` per-layer metrics measured outside
/// the repetitions (the traced build). Timings come from the per-step
/// [`floor`]: its sum is the unit of work's wall time, its quantiles the
/// step latencies.
pub fn finish(
    args: &RunArgs,
    workload: &str,
    setup_s: f64,
    mean_instances: f64,
    reps: Vec<Rep>,
    extra: BTreeMap<&'static str, f64>,
    mut ledger: Ledger,
) -> Outcome {
    ledger.same_counters(workload, reps.iter().map(|r| &r.counters));
    let (traced, plain): (Vec<&Rep>, Vec<&Rep>) = reps.iter().partition(|r| r.traced);
    let steps = floor(&plain, |r| &r.steps_ms);
    let decisions = floor(&plain, |r| &r.decisions_ms);
    let plain_wall = min(plain.iter().map(|r| r.wall_s));
    for (what, v) in [("step", &steps), ("decision", &decisions)] {
        if !v.is_empty() {
            let q: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
                .iter()
                .map(|&q| format!("p{}={:.4}", q * 100.0, quantile(v, q)))
                .collect();
            println!("{what} floor ms over {} {what}s: {}", v.len(), q.join(" "));
        }
    }
    let per_rep: Vec<String> = plain
        .iter()
        .map(|r| {
            let q = |p| quantile(&r.steps_ms, p);
            format!("{:.4}/{:.4}/{:.4}", r.wall_s, q(0.5), q(0.9))
        })
        .collect();
    println!("untraced repetitions wall_s/step_p50_ms/step_p90_ms: {}", per_rep.join(" "));

    let mut metrics = BTreeMap::new();
    if !args.trace {
        metrics.insert("setup_s", setup_s);
        metrics.insert("wall_s", steps.iter().sum::<f64>() / 1e3);
        metrics.insert("step_p50_ms", quantile(&steps, 0.5));
        metrics.insert("step_p90_ms", quantile(&steps, 0.9));
        metrics.insert("peak_rss_mb", peak_rss_mb());
        metrics.insert("mean_instances", mean_instances);
    } else {
        let per_rep: Vec<BTreeMap<&'static str, f64>> =
            traced.iter().map(|r| layer_metrics(r)).collect();
        for &(name, _) in PER_LAYER {
            let values: Vec<f64> = per_rep.iter().filter_map(|m| m.get(name).copied()).collect();
            if !values.is_empty() {
                metrics.insert(name, median(&values));
            }
        }
        metrics.extend(extra);
        metrics.insert("core.decision_p50_ms", quantile(&decisions, 0.5));
        metrics.insert("core.decision_p90_ms", quantile(&decisions, 0.9));
        metrics.insert("bench.step_p99_ms", quantile(&steps, 0.99));
        let traced_wall = min(traced.iter().map(|r| r.wall_s));
        metrics.insert("bench.trace_overhead_ms", (traced_wall - plain_wall) * 1e3);
        for &(name, _) in PER_LAYER {
            metrics.entry(name).or_insert(0.0);
        }
    }
    let counters: Vec<String> = reps[0].counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("counters ({} repetitions, all equal): {}", reps.len(), counters.join(" "));
    let spans = reps.into_iter().rev().find(|r| r.traced).map(|r| r.spans).unwrap_or_default();
    Outcome { metrics, ledger, spans }
}

/// Per-layer metrics of one traced repetition, from its spans and counters.
fn layer_metrics(rep: &Rep) -> BTreeMap<&'static str, f64> {
    let st = tracer::self_times(&rep.spans);
    let ms = |name: &str| st.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let n = |name: &str| rep.counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = BTreeMap::new();
    for &(name, unit) in PER_LAYER {
        if unit == "count" {
            if let Some(&v) = rep.counters.get(name) {
                m.insert(name, v as f64);
            }
        }
    }
    m.insert("loadgen.arrivals_ms", ms("loadgen.arrivals"));
    m.insert("loadgen.feedback_ms", ms("loadgen.feedback"));
    m.insert("sim.run_ms", ms("sim.run"));
    m.insert("sim.ns_per_event", ratio(ms("sim.run") * 1e6, n("sim.events")));
    m.insert("sim.slo_miss_frac", ratio(n("sim.slo_misses"), n("sim.completed")));
    m.insert("trace.drain_ms", ms("trace.drain"));
    m.insert("metrics.rates_ms", ms("metrics.rates"));
    m.insert("core.tick_ms", ms("core.tick"));
    m.insert("core.analyzer_ms", ms("core.analyzer"));
    m.insert("core.solve_ms", ms("core.solve"));
    m.insert("core.refine_ms", ms("core.refine"));
    m.insert("core.ns_per_solver_iter", ratio(ms("core.solve") * 1e6, n("core.solver_iters")));
    m.insert("core.solver_capped_frac", ratio(n("core.solver_capped"), n("core.decisions")));
    m.insert("core.refine_frac", ratio(n("core.refined"), n("core.decisions")));
    let root_ns: u64 =
        rep.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end_ns - s.start_ns).sum();
    let layer_ns: u64 = tracer::layer_times(&rep.spans).values().sum();
    m.insert("bench.attributed_frac", ratio(layer_ns as f64, root_ns as f64));
    m
}

fn parse_args() -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut tiny) = (1u64, 10.0f64, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds must be a non-negative number, got {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    let scale = if tiny { Scale::tiny() } else { Scale::full() };
    Ok((workload, RunArgs { seed, seconds, trace, scale }))
}

fn main() {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\nusage: graf-benchmark --workload <sim_open|control_replay|autoscale_closed> --seed <n> --seconds <s> --trace <0|1> [--tiny]");
            std::process::exit(2);
        }
    };
    println!("host {}", common::host_fingerprint());
    let probe_start = common::probe_ms();
    let mut out = match workload.as_str() {
        "sim_open" => sim_open::run(&args),
        "control_replay" => control_replay::run(&args),
        "autoscale_closed" => autoscale_closed::run(&args),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let probe_end = common::probe_ms();
    println!("host probe_start_ms={probe_start:.3} probe_end_ms={probe_end:.3}");
    if args.trace {
        out.metrics.insert("host.probe_start_ms", probe_start);
        out.metrics.insert("host.probe_end_ms", probe_end);
        report_trace(&workload, &args, &out);
    }
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, value) in &out.metrics {
        out.ledger.check(value.is_finite(), || format!("metric {name} is not finite: {value}"));
    }
    out.ledger.check(out.metrics.len() == expected.len(), || {
        format!("{} metrics reported, {} expected", out.metrics.len(), expected.len())
    });
    for e in &out.ledger.errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = out.ledger.errors.is_empty();
    let body: Vec<String> = expected
        .iter()
        .map(|&(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(f64::NAN);
            let v = if v.is_finite() { format!("{v}") } else { "null".into() };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.ledger.attempted,
        out.ledger.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Prints self time per layer and writes the last traced repetition's spans
/// to `benchmark/out/`.
fn report_trace(workload: &str, args: &RunArgs, out: &Outcome) {
    let root_ns: u64 =
        out.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end_ns - s.start_ns).sum();
    println!("trace self time per layer (last traced repetition, {:.3} ms):", root_ns as f64 / 1e6);
    for (layer, ns) in tracer::layer_times(&out.spans) {
        println!(
            "  {layer:<8} {:>12.3} ms {:>6.2} %",
            ns as f64 / 1e6,
            100.0 * ns as f64 / root_ns.max(1) as f64
        );
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{workload}-{}.jsonl", args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer::to_jsonl(&out.spans)));
    match written {
        Ok(()) => println!("trace spans written to {}", path.display()),
        Err(e) => println!("trace spans not written ({}): {e}", path.display()),
    }
}
