//! Figures 21 & 22: GRAF vs the Kubernetes HPA vs a FIRM-like scaler when
//! Locust doubles its user population (§5.3, *Handling traffic surge*).
//!
//! The paper surges from 250 to 500 Locust threads against Online Boutique
//! and reports (a) the total-instance timelines — GRAF creates the required
//! instances concurrently at ~50 s while the others ramp — and (b) the time
//! for end-to-end tail latency to converge, GRAF being up to 2.6× faster
//! with 13–60 % fewer instances.
//!
//! Our user counts are scaled to this reproduction's operating point (the
//! apps' CPU demands differ from the real deployments); the shape under test
//! is who converges faster and with how many instances.
//!
//! ```sh
//! cargo run --release -p graf-bench --bin fig21_22_surge_comparison
//! # with telemetry (JSONL event log + summary table):
//! cargo run --release -p graf-bench --bin fig21_22_surge_comparison -- --telemetry /tmp/surge.jsonl
//! ```

use graf_apps::online_boutique;
use graf_bench::standard::{boutique_setup, build_graf_observed};
use graf_bench::timeline::{convergence_time_s, run_with_timeline, TimelinePoint};
use graf_bench::Args;
use graf_loadgen::ClosedLoop;
use graf_orchestrator::{
    Autoscaler, Cluster, CreationModel, Deployment, FirmLike, HpaConfig, KubernetesHpa,
};
use graf_sim::time::{SimDuration, SimTime};
use graf_sim::topology::{ApiId, ServiceId};
use graf_sim::world::{SimConfig, World};

const WARMUP_S: f64 = 360.0;
const RUN_S: f64 = 300.0;

fn users_loadgen(before: usize, after: usize, seed: u64) -> ClosedLoop {
    ClosedLoop::with_mix(vec![(ApiId(0), 3.0), (ApiId(1), 3.0), (ApiId(2), 4.0)], before, seed)
        .users_at(SimTime::from_secs(WARMUP_S), after)
}

fn run(
    scaler: &mut dyn Autoscaler,
    before: usize,
    after: usize,
    unit: f64,
    seed: u64,
    obs: &graf_obs::Obs,
) -> Vec<TimelinePoint> {
    let topo = online_boutique();
    let world = World::new(topo.clone(), SimConfig::default(), seed);
    let deployments =
        (0..topo.num_services()).map(|s| Deployment::new(ServiceId(s as u16), unit, 4)).collect();
    let mut cluster = Cluster::new(world, deployments, CreationModel::default());
    cluster.set_obs(obs.clone());
    let mut users = users_loadgen(before, after, seed ^ 0x21);
    let (tl, _) = run_with_timeline(
        &mut cluster,
        &mut users,
        scaler,
        SimTime::from_secs(WARMUP_S + RUN_S),
        SimDuration::from_secs(5.0),
    );
    tl
}

fn main() {
    let args = Args::parse();
    let obs = args.obs();
    let setup = boutique_setup();
    println!("# Figures 21 & 22 — surge handling: GRAF vs HPA vs FIRM-like");
    println!("training GRAF...");
    let graf = build_graf_observed(&setup, &args, &obs);
    println!("trained: {} samples, best val loss {:.4}", graf.samples.len(), graf.report.best_val);

    // User populations scaled to the trained operating point: ~600 qps total
    // ≈ 1500 users at ≤5 s think time.
    for (before, after) in [(750usize, 1500usize), (1500, 3000)] {
        println!("\n## Surge {before} → {after} users at t=0 (relative to surge)");
        let mut results: Vec<(&str, Vec<TimelinePoint>)> = Vec::new();

        let mut graf_ctrl = graf.controller(setup.slo_ms);
        graf_ctrl.set_obs(obs.clone());
        results
            .push(("GRAF", run(&mut graf_ctrl, before, after, setup.cpu_unit_mc, args.seed, &obs)));

        let mut hpa = KubernetesHpa::new(HpaConfig::with_threshold(0.5), 6);
        results.push(("K8s", run(&mut hpa, before, after, setup.cpu_unit_mc, args.seed, &obs)));

        let mut firm = FirmLike {
            latency_ceiling: SimDuration::from_millis(setup.slo_ms * 1.5),
            ..FirmLike::default()
        };
        results
            .push(("FIRM-like", run(&mut firm, before, after, setup.cpu_unit_mc, args.seed, &obs)));

        println!("### Figure 22 row: time to converge p99 ≤ {} ms (hold 4 samples)", setup.slo_ms);
        for (name, tl) in &results {
            let conv = convergence_time_s(tl, WARMUP_S, setup.slo_ms, 4);
            let final_inst = tl.last().map_or(0, |p| p.total_instances);
            let peak_inst = tl
                .iter()
                .filter(|p| p.t_s >= WARMUP_S)
                .map(|p| p.total_instances)
                .max()
                .unwrap_or(0);
            println!(
                "{name:>10}: converge {}, final instances {final_inst}, peak {peak_inst}",
                conv.map_or("never".to_string(), |t| format!("{t:.0} s")),
            );
        }

        println!("### Figure 21 series (total instances; t relative to surge)");
        println!("t_s,graf,k8s,firm");
        let len = results.iter().map(|(_, tl)| tl.len()).min().unwrap_or(0);
        for i in 0..len {
            let t = results[0].1[i].t_s;
            if t < WARMUP_S - 30.0 {
                continue;
            }
            print!("{:.0}", t - WARMUP_S);
            for (_, tl) in &results {
                print!(",{}", tl[i].total_instances);
            }
            println!();
        }
    }
    args.finish(&obs);
}
