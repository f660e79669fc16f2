//! `sim_open`: Online Boutique under open-loop Poisson load with static
//! replicas sized for about 50 % utilisation, 1 % trace sampling and 1 ms
//! CPU checkpoints. No controller runs: the simulator's event core, stations
//! and service-time draws do nearly all the work.
//!
//! One repetition builds a fresh world, warms it up (set-up), then advances
//! the measured part in 100 ms segments: generate arrivals, inject,
//! `run_until` and drain completions, drain finished traces.

use std::time::Instant;

use graf_apps::online_boutique;
use graf_loadgen::{LoadGen, OpenLoop};
use graf_orchestrator::experiment::SEGMENT;
use graf_sim::time::SimTime;
use graf_sim::topology::{ApiId, AppTopology, CallNode, ServiceId};
use graf_sim::world::{Completion, SimConfig, World};

use crate::build::SLO_MS;
use crate::common::{derive, median, Counters, Ledger};
use crate::tracer::Tracer;
use crate::{finish, repeat, Outcome, Rep, RunArgs};

/// CPU quota of one instance, millicores (one core).
const INSTANCE_MC: f64 = 1000.0;
/// Utilisation the static replicas are sized for.
const TARGET_UTIL: f64 = 0.5;

/// Replicas per service so that the offered CPU demand (rate × mean work of
/// every call the API makes) fills `TARGET_UTIL` of the instances.
pub fn replicas(topo: &AppTopology, qps: &[f64]) -> Vec<usize> {
    fn walk(topo: &AppTopology, node: &CallNode, calls: f64, rate: f64, demand_mc: &mut [f64]) {
        let here = calls * node.repeat as f64;
        let svc = node.service.0 as usize;
        // req/s × ms of CPU per call = millicores.
        demand_mc[svc] += rate * here * topo.services[svc].work_ms * node.work_scale;
        for child in node.child_nodes() {
            walk(topo, child, here, rate, demand_mc);
        }
    }
    let mut demand_mc = vec![0.0; topo.num_services()];
    for (api, &rate) in topo.apis.iter().zip(qps) {
        walk(topo, &api.tree, 1.0, rate, &mut demand_mc);
    }
    demand_mc.iter().map(|d| (d / (INSTANCE_MC * TARGET_UTIL)).ceil().max(1.0) as usize).collect()
}

/// Per-segment tallies the benchmark keeps beside the world's own counters.
#[derive(Default)]
struct Tally {
    arrivals: u64,
    traces: u64,
    slo_misses: u64,
}

/// Advances one segment, recording a span around each layer call.
fn segment(
    world: &mut World,
    load: &mut OpenLoop,
    tr: &Tracer,
    completions: &mut Vec<Completion>,
    tally: &mut Tally,
) {
    let now = world.now();
    let end = now + SEGMENT;
    let arrivals = tr.span("loadgen.arrivals", || load.arrivals(now, end));
    tr.span("sim.run", || {
        for &(t, api) in &arrivals {
            world.inject(api, t);
        }
        world.run_until(end);
        world.drain_completions_into(completions);
    });
    tr.span("loadgen.feedback", || load.on_completions(completions));
    let traces = tr.span("trace.drain", || world.traces_mut().drain_finished().len());
    tally.arrivals += arrivals.len() as u64;
    tally.traces += traces as u64;
    let slo_us = (SLO_MS * 1e3) as u64;
    tally.slo_misses += completions.iter().filter(|c| c.latency_us() > slo_us).count() as u64;
}

pub fn run(args: &RunArgs) -> Outcome {
    let topo = online_boutique();
    let qps = args.scale.open_qps;
    let counts = replicas(&topo, &qps);
    let instances: usize = counts.iter().sum();
    println!("sim_open: {qps:?} req/s, replicas {counts:?} ({instances} instances)");
    let cfg = SimConfig { trace_sample: 0.01, cpu_checkpoint_us: 1000, ..SimConfig::default() };
    let (world_seed, arrival_seed) = (derive(args.seed, 1), derive(args.seed, 2));
    let warm_end = SimTime::from_secs(args.scale.open_warmup_s);
    let end = SimTime::from_secs(args.scale.open_warmup_s + args.scale.open_measure_s);

    let mut setups = Vec::new();
    let mut ledger = Ledger::default();
    let reps = repeat(args, |traced| {
        let setup_start = Instant::now();
        let mut world = World::new(topo.clone(), cfg.clone(), world_seed);
        for (s, &n) in counts.iter().enumerate() {
            world.add_instances(ServiceId(s as u16), n, INSTANCE_MC, SimTime::ZERO);
        }
        world.run_until(SimTime::ZERO);
        let mut load = OpenLoop::new(arrival_seed).poisson();
        for (a, &q) in qps.iter().enumerate() {
            load = load.rate(ApiId(a as u16), q);
        }
        let mut completions = Vec::new();
        let mut warm = Tally::default();
        let off = Tracer::new(false);
        while world.now() < warm_end {
            segment(&mut world, &mut load, &off, &mut completions, &mut warm);
        }
        setups.push(setup_start.elapsed().as_secs_f64());

        let before = world.stats();
        let mut tally = Tally::default();
        let mut steps_ms = Vec::new();
        let tr = Tracer::new(traced);
        let start = Instant::now();
        let root = tr.begin("rep");
        while world.now() < end {
            let t = Instant::now();
            segment(&mut world, &mut load, &tr, &mut completions, &mut tally);
            steps_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        tr.end(root);
        let wall_s = start.elapsed().as_secs_f64();

        let after = world.stats();
        ledger.check(after.injected == after.completed + world.in_flight() as u64, || {
            format!(
                "request conservation: injected {} != completed {} + in flight {}",
                after.injected,
                after.completed,
                world.in_flight()
            )
        });
        ledger.check(warm.arrivals + tally.arrivals == after.injected, || {
            format!(
                "{} arrivals generated but {} injected",
                warm.arrivals + tally.arrivals,
                after.injected
            )
        });
        for (s, &n) in counts.iter().enumerate() {
            let (starting, ready, draining) = world.instance_counts(ServiceId(s as u16));
            ledger.check((starting, ready, draining) == (0, n, 0), || {
                format!("service {s}: instances {starting}/{ready}/{draining}, expected {n} ready")
            });
        }
        let timeouts = after.timeouts - before.timeouts;
        ledger.ops(after.injected - before.injected, timeouts);
        let counters = Counters::from([
            ("loadgen.arrivals", tally.arrivals),
            ("sim.events", after.events - before.events),
            ("sim.injected", after.injected - before.injected),
            ("sim.completed", after.completed - before.completed),
            ("sim.timeouts", timeouts),
            ("sim.in_flight_end", world.in_flight() as u64),
            ("sim.slo_misses", tally.slo_misses),
            ("trace.spans", after.spans - before.spans),
            ("trace.spans_dropped", after.spans_dropped - before.spans_dropped),
            ("trace.traces", tally.traces),
        ]);
        Rep { traced, wall_s, steps_ms, counters, spans: tr.take(), ..Rep::default() }
    });
    let setup_s = median(&setups);
    finish(args, "sim_open", setup_s, instances as f64, reps, Default::default(), ledger)
}
