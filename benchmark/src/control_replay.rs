//! `control_replay`: GRAF's decision path with no simulator in the measured
//! phase. Set-up builds the trained model; the measured phase replays a
//! per-API rate series through `GrafController::plan_outcome`.
//!
//! The series follows `azure_series` around the probe point and reaches
//! beyond the trained region, so both the integer-refinement path (scale
//! s ≤ 1) and the rescaled path (s > 1) run. A traced repetition
//! decomposes each decision into the public calls `plan_outcome` makes —
//! `WorkloadAnalyzer::service_workloads`, `solver::solve` and
//! `solver::integer_refine` — and checks that they reproduce its counts.

use std::collections::BTreeMap;
use std::time::Instant;

use graf_core::{integer_refine, solve, Graf, GrafController, LatencyModel, PlanOutcome};
use graf_loadgen::azure::{azure_series, AzureParams};

use crate::build::{
    build, build_counters, controller_config, in_box, traced_build, CPU_UNIT_MC, PROBE_QPS,
};
use crate::common::{derive, median, Counters, Ledger};
use crate::tracer::Tracer;
use crate::{finish, repeat, Outcome, Rep, RunArgs};

/// Mean load of the replayed series relative to the probe point. Decisions
/// below about 0.8× the probe do not bind the SLO and the solver stops at its
/// minimum iterations (about 0.2 ms); heavier ones bind it (about 0.55 ms).
/// At a mean of 1.1 some three in ten decisions are light, so the median and
/// p90 both fall among the binding ones, and 43 % of the decisions are
/// refined (load inside the trained region) while 57 % are rescaled. A mean of
/// 0.8 put the median on the edge between the two costs, and one seed in ten
/// flipped it.
const MEAN_LOAD: f64 = 1.1;

/// Per-API rates of each decision: the probe point scaled by an Azure-like
/// series normalised to mean `MEAN_LOAD`, so the seed changes the shape of
/// the series but not its level.
pub fn rate_series(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let params = AzureParams {
        mean_users: 1000.0,
        swing: 0.45,
        period_min: (n as f64 / 3.0).max(2.0),
        drop_at_min: None,
        ..AzureParams::default()
    };
    let series = azure_series(&params, n, seed);
    let mean = series.iter().map(|&v| v as f64).sum::<f64>() / n.max(1) as f64;
    let k = MEAN_LOAD / mean;
    series.iter().map(|&v| PROBE_QPS.iter().map(|q| q * v as f64 * k).collect()).collect()
}

/// What one decision produced, for comparing the two paths.
#[derive(Clone, Debug, PartialEq)]
struct Decision {
    counts: Vec<usize>,
    iterations: usize,
    refine_saved: usize,
}

/// Work counters of one repetition.
#[derive(Default)]
struct Tally {
    decisions: u64,
    solver_iters: u64,
    capped: u64,
    refined: u64,
    refine_saved: u64,
    instances: u64,
    bad_plans: u64,
}

impl Tally {
    fn add(&mut self, d: &Decision, max_iters: usize, scale: f64, ok: bool) {
        self.decisions += 1;
        self.solver_iters += d.iterations as u64;
        self.capped += u64::from(d.iterations >= max_iters);
        // The controller refines exactly when the load needs no rescaling.
        self.refined += u64::from(scale <= 1.0);
        self.refine_saved += d.refine_saved as u64;
        self.instances += d.counts.iter().sum::<usize>() as u64;
        self.bad_plans += u64::from(!ok);
    }

    fn counters(&self, builds: &Counters) -> Counters {
        let mut c = builds.clone();
        c.extend([
            ("core.decisions", self.decisions),
            ("core.solver_iters", self.solver_iters),
            ("core.solver_capped", self.capped),
            ("core.refined", self.refined),
            ("core.refine_saved", self.refine_saved),
            ("core.planned_instances", self.instances),
            ("core.bad_plans", self.bad_plans),
        ]);
        c
    }
}

/// `plan_outcome` decomposed into its public calls, each under a span.
fn decomposed(
    tr: &Tracer,
    graf: &Graf,
    model: &mut LatencyModel,
    ctrl: &GrafController,
    api_rates: &[f64],
) -> (Decision, Vec<f64>, f64, f64) {
    let cfg = ctrl.config();
    let (workloads, s) = tr.span("core.analyzer", || {
        let rates: Vec<f64> = api_rates.iter().map(|r| r * cfg.headroom).collect();
        let s = (rates.iter().sum::<f64>() / cfg.train_total_qps).max(1.0);
        let scaled: Vec<f64> = rates.iter().map(|r| r / s).collect();
        (graf.analyzer.service_workloads(&scaled), s)
    });
    let res =
        tr.span("core.solve", || solve(model, &workloads, cfg.slo_ms, &graf.bounds, &cfg.solver));
    let quotas: Vec<f64> = res.quotas_mc.iter().map(|q| q * s).collect();
    let ceil: Vec<usize> =
        quotas.iter().map(|q| (q / CPU_UNIT_MC).ceil().max(1.0) as usize).collect();
    let (counts, refine_saved) = if cfg.integer_refine && s <= 1.0 {
        let (counts, _) = tr.span("core.refine", || {
            integer_refine(model, &workloads, &res.quotas_mc, &graf.bounds, CPU_UNIT_MC, cfg.slo_ms)
        });
        let saved = ceil.iter().sum::<usize>().saturating_sub(counts.iter().sum());
        (counts, saved)
    } else {
        (ceil, 0)
    };
    (Decision { counts, iterations: res.iterations, refine_saved }, quotas, s, res.predicted_ms)
}

fn from_outcome(out: &PlanOutcome) -> Decision {
    Decision {
        counts: out.counts.clone().unwrap_or_default(),
        iterations: out.solve.iterations,
        refine_saved: out.refine_saved,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut ledger = Ledger::default();
    let (graf, build_secs) = build(&args.scale, &mut ledger);
    println!("control_replay: builds took {build_secs:.3?} s");
    let extra =
        if args.trace { traced_build(&args.scale, &graf, &mut ledger) } else { BTreeMap::new() };
    let builds = build_counters(&graf);
    let series = rate_series(args.scale.decisions, derive(args.seed, 3));
    let mut ctrl = graf.controller_with(controller_config(&graf));
    let mut model = graf.model.clone();
    let max_iters = ctrl.config().solver.max_iters;

    // The untraced path's decisions, which the traced decomposition must
    // reproduce one for one.
    let mut reference: Vec<Decision> = Vec::new();
    let reps = repeat(args, |traced| {
        let mut tally = Tally::default();
        let mut decisions_ms = Vec::new();
        let mut decided = Vec::new();
        let tr = Tracer::new(traced);
        let start = Instant::now();
        let root = tr.begin("rep");
        for rates in &series {
            let (d, quotas, s, predicted) = if traced {
                decomposed(&tr, &graf, &mut model, &ctrl, rates)
            } else {
                let t = Instant::now();
                let out = ctrl.plan_outcome(rates, Some(CPU_UNIT_MC));
                decisions_ms.push(t.elapsed().as_secs_f64() * 1e3);
                (from_outcome(&out), out.quotas_mc, out.scale, out.solve.predicted_ms)
            };
            let ok = in_box(&graf.bounds, &quotas, s)
                && predicted.is_finite()
                && d.counts.iter().all(|&c| c >= 1);
            tally.add(&d, max_iters, s, ok);
            decided.push(d);
        }
        tr.end(root);
        let wall_s = start.elapsed().as_secs_f64();
        ledger.ops(tally.decisions, tally.bad_plans);
        if reference.is_empty() {
            reference = decided;
        } else {
            let same = reference == decided;
            ledger.check(same, || {
                let i = reference.iter().zip(&decided).position(|(a, b)| a != b).unwrap_or(0);
                let kind = if traced { "decomposed decision" } else { "decision" };
                format!("{kind} {i} differs: {:?} vs {:?}", decided.get(i), reference.get(i))
            });
        }
        let steps_ms = decisions_ms.clone();
        Rep {
            traced,
            wall_s,
            steps_ms,
            decisions_ms,
            counters: tally.counters(&builds),
            spans: tr.take(),
        }
    });
    let first = &reps[0].counters;
    let mean_instances =
        first["core.planned_instances"] as f64 / first["core.decisions"].max(1) as f64;
    finish(args, "control_replay", median(&build_secs), mean_instances, reps, extra, ledger)
}
