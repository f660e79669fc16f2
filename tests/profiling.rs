//! Integration: the phase tree of the instrumentation handle observes
//! without perturbing — a profiled simulation is bit-identical to an
//! unprofiled one, and when enabled the per-phase event-loop breakdown
//! accounts for (nearly) all of the loop's wall time.

use graf::apps::online_boutique;
use graf::core::{Graf, GrafBuildConfig, LatencyModel, SamplingConfig, TrainConfig};
use graf::obs::Obs;
use graf::sim::events::QueueKind;
use graf::sim::rng::DetRng;
use graf::sim::time::SimTime;
use graf::sim::topology::{ApiId, ApiSpec, AppTopology, CallNode, ServiceId, ServiceSpec};
use graf::sim::world::{SimConfig, World, WorldStats};

/// The bench scenario (`sim_boutique`): 10 s of Online Boutique at ~600 qps,
/// returning every observable the world produces plus the latency stream.
fn sim_boutique(obs: &Obs) -> (WorldStats, Vec<u64>) {
    sim_boutique_with(obs, QueueKind::Calendar)
}

fn sim_boutique_with(obs: &Obs, kind: QueueKind) -> (WorldStats, Vec<u64>) {
    let topo = online_boutique();
    let mut w = World::new(topo, SimConfig { event_queue: kind, ..SimConfig::default() }, 9);
    w.set_obs(obs.clone());
    for s in 0..6u16 {
        w.add_instances(ServiceId(s), 4, 250.0, SimTime::ZERO);
    }
    let mut rng = DetRng::new(9 ^ 0x51);
    for (api, rate) in [(0u16, 180.0f64), (1, 180.0), (2, 240.0)] {
        let mut t = 0.0;
        loop {
            t += rng.exp(1e6 / rate);
            if t >= 10e6 {
                break;
            }
            w.inject(ApiId(api), SimTime(t as u64));
        }
    }
    w.run_until(SimTime::from_secs(10.0));
    let latencies = w.drain_completions().iter().map(|c| c.latency_us()).collect();
    (w.stats(), latencies)
}

#[test]
fn profiling_does_not_perturb_the_simulation() {
    // Profiling on/off crossed with both queue implementations: all four
    // cells must be bit-identical.
    let off = sim_boutique_with(&Obs::disabled(), QueueKind::Calendar);
    let on = sim_boutique_with(&Obs::enabled(), QueueKind::Calendar);
    let heap_off = sim_boutique_with(&Obs::disabled(), QueueKind::Heap);
    let heap_on = sim_boutique_with(&Obs::enabled(), QueueKind::Heap);
    assert_eq!(off.0.completed, on.0.completed, "completed counts match");
    assert_eq!(off.0.events, on.0.events, "event counts match");
    assert_eq!(off.0.spans, on.0.spans, "span counts match");
    assert_eq!(off.1, on.1, "every latency is bit-identical");
    assert_eq!(off.1, heap_off.1, "calendar matches the reference heap");
    assert_eq!(heap_off.1, heap_on.1, "heap core is also profile-invariant");
    assert_eq!(off.0.events, heap_off.0.events, "event counts match across queues");
    assert!(off.0.completed > 1000, "the run actually did work ({})", off.0.completed);
}

#[test]
fn event_loop_breakdown_holds_for_the_heap_queue_too() {
    // The reference heap core shares the instrumented loop: its breakdown
    // must also cover ≥90% of wall time so A/B profiles stay comparable.
    let obs = Obs::enabled();
    let _ = sim_boutique_with(&obs, QueueKind::Heap);
    let report = obs.report();
    let root = report.find("sim.event_loop").expect("event-loop phase recorded");
    let child_ns: u64 = report.children("sim.event_loop").iter().map(|c| c.total_ns).sum();
    let coverage = child_ns as f64 / root.total_ns as f64;
    assert!(coverage >= 0.90, "heap-core coverage {:.1}%:\n{}", coverage * 100.0, report.render());
}

#[test]
fn event_loop_breakdown_covers_at_least_90_percent_of_wall_time() {
    let obs = Obs::enabled();
    let (stats, _) = sim_boutique(&obs);
    let report = obs.report();

    let root = report.find("sim.event_loop").expect("event-loop phase recorded");
    assert!(root.total_ns > 0, "the loop took measurable time");

    let children = report.children("sim.event_loop");
    assert!(
        children.iter().any(|c| c.name == "sim.event_loop.queue_pop"),
        "queue operations are attributed:\n{}",
        report.render()
    );
    let child_ns: u64 = children.iter().map(|c| c.total_ns).sum();
    let coverage = child_ns as f64 / root.total_ns as f64;
    assert!(
        coverage >= 0.90,
        "per-phase breakdown must cover >=90% of the event loop, got {:.1}%:\n{}",
        coverage * 100.0,
        report.render()
    );

    // The deterministic work counters account for every dispatched event:
    // each event adds one unit inside its phase scope.
    let dispatched: u64 =
        children.iter().filter(|c| c.name != "sim.event_loop.queue_pop").map(|c| c.work).sum();
    assert_eq!(dispatched, stats.events, "work counters match dispatched events exactly");

    // Station math and span recording nest under their event phases.
    assert!(
        report.rows.iter().any(|r| r.name == "sim.station.advance" && r.calls > 0),
        "station advance attributed:\n{}",
        report.render()
    );
    assert!(
        report.rows.iter().any(|r| r.name == "sim.span_record"),
        "span recording attributed:\n{}",
        report.render()
    );
}

#[test]
fn disabled_profiler_records_nothing() {
    let obs = Obs::disabled();
    let _ = sim_boutique(&obs);
    assert!(obs.report().rows.is_empty(), "disabled handle stays empty");
    assert!(!obs.is_enabled());
}

/// A two-service build small enough for a test: `batch_size` 100 makes
/// every full batch two 64-row chunks (64 + 36) so the chunk count differs
/// from the step count.
fn tiny_build(obs: &Obs) -> (Graf, GrafBuildConfig) {
    let topo = AppTopology::new(
        "tiny",
        vec![ServiceSpec::new("a", 1.0, 300), ServiceSpec::new("b", 2.5, 300)],
        vec![ApiSpec::new("get", CallNode::new(0).call(CallNode::new(1)))],
    );
    let cfg = GrafBuildConfig {
        sampling: SamplingConfig {
            probe_qps: vec![40.0],
            measure_secs: 2.0,
            warmup_secs: 1.0,
            threads: 2,
            ..SamplingConfig::default()
        },
        train: TrainConfig { epochs: 4, evals: 2, batch_size: 100, ..Default::default() },
        num_samples: 300,
        ..Default::default()
    };
    (Graf::build_observed(topo, cfg.clone(), obs), cfg)
}

#[test]
fn build_records_training_phases_without_perturbing_the_artifacts() {
    let obs = Obs::enabled();
    let (on, cfg) = tiny_build(&obs);
    let (off, _) = tiny_build(&Obs::disabled());

    // Identical artifacts with the handle enabled or disabled.
    assert_eq!(on.bounds, off.bounds);
    assert_eq!(on.samples.len(), off.samples.len());
    for (a, b) in on.samples.iter().zip(&off.samples) {
        assert_eq!((&a.quotas_mc, a.p99_ms.to_bits()), (&b.quotas_mc, b.p99_ms.to_bits()));
    }
    assert_eq!(on.report.iters, off.report.iters);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&on.report.train_loss), bits(&off.report.train_loss));
    assert_eq!(bits(&on.report.val_loss), bits(&off.report.val_loss));
    for s in &on.samples {
        let (a, b) = (
            on.model.predict_ms(&s.workloads, &s.quotas_mc),
            off.model.predict_ms(&s.workloads, &s.quotas_mc),
        );
        assert_eq!(a.to_bits(), b.to_bits(), "the trained models are bit-identical");
    }

    // Every training step lands in the one tree: `work` counts the 64-row
    // chunks of every mini-batch of every epoch.
    let split = LatencyModel::dataset_from_samples(&on.model.scaler, &on.samples).split(
        0.7,
        0.15,
        cfg.split_seed,
    );
    let n = split.train.len();
    let per_epoch: usize = (0..n.div_ceil(cfg.train.batch_size))
        .map(|b| (n - b * cfg.train.batch_size).min(cfg.train.batch_size).div_ceil(64))
        .sum();
    let report = obs.report();
    let fb = report.find("train.forward_backward").expect("training phase recorded");
    let steps = *on.report.iters.last().expect("evaluated") as u64;
    assert_eq!(fb.calls, steps, "one scope per training step:\n{}", report.render());
    assert_eq!(fb.work, (cfg.train.epochs * per_epoch) as u64, "{}", report.render());
    assert!(fb.work > fb.calls, "batches span several chunks");
    for phase in ["train.reduce", "train.optimizer"] {
        assert_eq!(report.find(phase).map(|r| r.calls), Some(steps), "{phase}");
    }
    // The same handle carried the sample-collection spans.
    let names: Vec<&str> = obs.events().iter().map(|e| e.name).collect();
    assert!(names.contains(&"graf.sample.collect") && names.contains(&"graf.train"));
}
