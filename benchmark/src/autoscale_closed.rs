//! `autoscale_closed`: the paper's Figure-20 loop. Locust-like closed-loop
//! users follow an Azure-like minute series with a late drop, the GRAF
//! controller ticks every 15 s on a `Cluster`, and every request is traced.
//!
//! One repetition runs `run_experiment` once with the trained model. The load
//! generator and the controller are wrapped so that spans surround each call
//! into them; the wrapper tick calls `observed_rates` and then
//! `tick_with_rates`, which is exactly what `GrafController::tick` does.

use std::time::Instant;

use graf_apps::online_boutique;
use graf_core::{Graf, GrafController};
use graf_loadgen::azure::{azure_series, AzureParams};
use graf_loadgen::{ClosedLoop, LoadGen};
use graf_orchestrator::{
    run_experiment, Autoscaler, Cluster, CreationModel, Deployment, ExperimentHooks,
};
use graf_sim::time::{SimDuration, SimTime};
use graf_sim::topology::{ApiId, ServiceId};
use graf_sim::world::{Completion, SimConfig, World};

use crate::build::{
    build, build_counters, controller_config, in_box, traced_build, CPU_UNIT_MC, SLO_MS,
};
use crate::common::{derive, median, Counters, Ledger};
use crate::tracer::{Open, Tracer};
use crate::{finish, repeat, Outcome, Rep, RunArgs};

/// Users per minute: an Azure-like series around `mean_users` that drops to
/// 45 % for the last quarter, rescaled to the total of its noise-free
/// envelope so the seed changes the shape but not the overall load. Bursts
/// are off: over ten minutes a +35 % burst minute occurs for about half the
/// seeds, and it alone would decide the slowest tenth of the segments.
pub fn user_series(minutes: usize, mean_users: f64, seed: u64) -> Vec<u32> {
    let params = AzureParams {
        mean_users,
        burst_prob: 0.0,
        drop_at_min: Some(minutes * 3 / 4),
        drop_to: 0.45,
        ..AzureParams::default()
    };
    let noisy = azure_series(&params, minutes, seed);
    let calm = azure_series(&AzureParams { noise: 0.0, ..params }, minutes, seed);
    let total = |s: &[u32]| s.iter().map(|&v| v as f64).sum::<f64>();
    let k = total(&calm) / total(&noisy);
    noisy.iter().map(|&v| (v as f64 * k).round().max(1.0) as u32).collect()
}

/// The closed-loop generator with spans around its calls. The simulator's
/// share of a segment (inject, `run_until`, drain) runs between `arrivals`
/// returning and `on_completions` being called, so that interval is the
/// `sim.run` span.
struct Load<'a> {
    inner: ClosedLoop,
    tr: &'a Tracer,
    sim: Open,
    arrivals: u64,
}

impl LoadGen for Load<'_> {
    fn arrivals(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, ApiId)> {
        let out = self.tr.span("loadgen.arrivals", || self.inner.arrivals(from, to));
        self.arrivals += out.len() as u64;
        self.sim = self.tr.begin("sim.run");
        out
    }

    fn on_completions(&mut self, completions: &[Completion]) {
        self.tr.end(self.sim);
        self.tr.span("loadgen.feedback", || self.inner.on_completions(completions));
    }
}

/// The GRAF controller with spans around the metric read and the decision.
struct Ctrl<'a> {
    inner: GrafController,
    graf: &'a Graf,
    tr: &'a Tracer,
    decisions_ms: Vec<f64>,
    solver_iters: u64,
    capped: u64,
    bad_plans: u64,
}

impl Autoscaler for Ctrl<'_> {
    fn interval(&self) -> SimDuration {
        self.inner.interval()
    }

    fn tick(&mut self, cluster: &mut Cluster) {
        let start = Instant::now();
        let rates = self.tr.span("metrics.rates", || self.inner.observed_rates(cluster));
        let counts = self.tr.span("core.tick", || self.inner.tick_with_rates(cluster, &rates));
        self.decisions_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let solve = self.inner.last_solve.as_ref().expect("a tick solves");
        let ok = in_box(&self.graf.bounds, &solve.quotas_mc, 1.0)
            && solve.predicted_ms.is_finite()
            && counts.iter().all(|&c| c >= 1);
        self.bad_plans += u64::from(!ok);
        self.solver_iters += solve.iterations as u64;
        self.capped += u64::from(solve.iterations >= self.inner.config().solver.max_iters);
    }
}

/// Per-experiment tallies kept by the hooks.
#[derive(Default)]
struct Tally {
    segments: u64,
    instance_segments: u64,
    slo_misses: u64,
    traces: u64,
    ticks: u64,
    scale_ups: u64,
    scale_downs: u64,
    bound_violations: u64,
}

/// Runs one experiment with the trained model: returns its segment and
/// decision times and its counters.
fn experiment(graf: &Graf, series: &[u32], seed: u64, tr: &Tracer, ledger: &mut Ledger) -> Rep {
    let (world_seed, users_seed) = (derive(seed, 5), derive(seed, 6));
    let mut steps_ms = Vec::new();
    let initial = (series[0] as usize / 120).clamp(2, 60);
    let mut cluster = tr.span("orch.cluster", || {
        let topo = online_boutique();
        let deployments = (0..topo.num_services())
            .map(|s| Deployment::new(ServiceId(s as u16), CPU_UNIT_MC, initial))
            .collect();
        let world = World::new(topo, SimConfig::default(), world_seed);
        Cluster::new(world, deployments, CreationModel::default())
    });
    let mut users = ClosedLoop::with_mix(
        vec![(ApiId(0), 3.0), (ApiId(1), 3.0), (ApiId(2), 4.0)],
        series[0] as usize,
        users_seed,
    );
    for (m, &u) in series.iter().enumerate().skip(1) {
        users.set_users(SimTime::from_secs(60.0 * m as f64), u as usize);
    }
    let mut load = Load { inner: users, tr, sim: Open::default(), arrivals: 0 };
    let mut ctrl = Ctrl {
        inner: graf.controller_with(controller_config(graf)),
        graf,
        tr,
        decisions_ms: Vec::new(),
        solver_iters: 0,
        capped: 0,
        bad_plans: 0,
    };
    let until = SimTime::from_secs(60.0 * series.len() as f64);
    let slo_us = (SLO_MS * 1e3) as u64;
    let mut tally = Tally::default();
    let mut desired: Vec<usize> = cluster.deployments().iter().map(|d| d.desired).collect();
    let mut mark = Instant::now();
    {
        let mut on_segment = |cluster: &mut Cluster, completions: &[Completion]| {
            let traces =
                tr.span("trace.drain", || cluster.world_mut().traces_mut().drain_finished().len());
            // A step runs from the end of the previous segment's bookkeeping,
            // so it includes any control tick between the two segments.
            steps_ms.push(mark.elapsed().as_secs_f64() * 1e3);
            tally.segments += 1;
            tally.traces += traces as u64;
            tally.instance_segments += cluster.total_instances() as u64;
            tally.slo_misses +=
                completions.iter().filter(|c| c.latency_us() > slo_us).count() as u64;
            mark = Instant::now();
        };
        let mut on_control = |cluster: &mut Cluster| {
            tally.ticks += 1;
            for (d, prev) in cluster.deployments().iter().zip(desired.iter_mut()) {
                tally.scale_ups += u64::from(d.desired > *prev);
                tally.scale_downs += u64::from(d.desired < *prev);
                *prev = d.desired;
                let (starting, ready, _) = cluster.world().instance_counts(d.service);
                let live = starting + ready;
                let within = (d.min_replicas..=d.max_replicas).contains(&live)
                    && (d.min_replicas..=d.max_replicas).contains(&d.desired);
                tally.bound_violations += u64::from(!within);
            }
        };
        let mut hooks = ExperimentHooks {
            on_segment: Some(&mut on_segment),
            on_control: Some(&mut on_control),
        };
        run_experiment(&mut cluster, &mut load, &mut ctrl, until, &mut hooks);
    }

    let stats = cluster.world().stats();
    let in_flight = cluster.world().in_flight() as u64;
    ledger.check(stats.injected == stats.completed + in_flight, || {
        format!(
            "request conservation: injected {} != completed {} + in flight {in_flight}",
            stats.injected, stats.completed
        )
    });
    ledger.check(load.arrivals == stats.injected, || {
        format!("{} arrivals generated but {} injected", load.arrivals, stats.injected)
    });
    ledger.check(tally.bound_violations == 0, || {
        format!("{} deployment checks found instances outside the bounds", tally.bound_violations)
    });
    ledger.ops(stats.injected, stats.timeouts);
    ledger.ops(tally.ticks, ctrl.bad_plans);
    let counters = Counters::from([
        ("loadgen.arrivals", load.arrivals),
        ("sim.events", stats.events),
        ("sim.injected", stats.injected),
        ("sim.completed", stats.completed),
        ("sim.timeouts", stats.timeouts),
        ("sim.in_flight_end", in_flight),
        ("sim.slo_misses", tally.slo_misses),
        ("trace.spans", stats.spans),
        ("trace.spans_dropped", stats.spans_dropped),
        ("trace.traces", tally.traces),
        ("orch.ticks", tally.ticks),
        ("orch.scale_ups", tally.scale_ups),
        ("orch.scale_downs", tally.scale_downs),
        ("orch.segments", tally.segments),
        ("orch.instance_segments", tally.instance_segments),
        ("core.decisions", tally.ticks),
        ("core.solver_iters", ctrl.solver_iters),
        ("core.solver_capped", ctrl.capped),
        ("core.bad_plans", ctrl.bad_plans),
    ]);
    Rep { steps_ms, decisions_ms: ctrl.decisions_ms, counters, ..Rep::default() }
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut ledger = Ledger::default();
    let (graf, build_secs) = build(&args.scale, &mut ledger);
    println!("autoscale_closed: builds took {build_secs:.3?} s");
    let extra =
        if args.trace { traced_build(&args.scale, &graf, &mut ledger) } else { Default::default() };
    let builds = build_counters(&graf);
    let series = user_series(args.scale.minutes, args.scale.mean_users, derive(args.seed, 4));
    println!("autoscale_closed: users per minute {series:?}");

    let reps = repeat(args, |traced| {
        let tr = Tracer::new(traced);
        let start = Instant::now();
        let root = tr.begin("rep");
        let mut rep = experiment(&graf, &series, args.seed, &tr, &mut ledger);
        tr.end(root);
        rep.wall_s = start.elapsed().as_secs_f64();
        rep.counters.extend(builds.clone());
        Rep { traced, spans: tr.take(), ..rep }
    });
    let first = &reps[0].counters;
    let mean_instances =
        first["orch.instance_segments"] as f64 / first["orch.segments"].max(1) as f64;
    finish(args, "autoscale_closed", median(&build_secs), mean_instances, reps, extra, ledger)
}
