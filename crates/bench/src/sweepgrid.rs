//! Maps `graf-sweep` grid axes onto concrete GRAF scenarios.
//!
//! The sweep machinery (`crates/sweep`) is scenario-agnostic — axes and
//! values are strings. This module gives those strings meaning:
//!
//! | axis | values | default |
//! |---|---|---|
//! | `app` | `boutique`, `social`, `robot_shop`, `bookinfo` | `boutique` |
//! | `slo` | end-to-end p99 SLO in ms (any positive number) | the app's standard SLO |
//! | `surge` | `none`, `step`, `ramp`, `spike` | `none` |
//! | `chaos` | the `graf_chaos::CATALOG` names | `none` |
//! | `policy` | `hpa`, `firm`, `static`, `graf`, `ladder` | — (required) |
//! | `load` | base-load multiplier (any positive number) | `1` |
//!
//! A grid with a `tier` axis is a **parallel-sim ablation grid** instead: no
//! controller runs, each cell replays a fixed open-loop Online Boutique
//! scenario on the simulator alone and reports simulation metrics only. Its
//! axes (mutually exclusive with the scenario axes above):
//!
//! | axis | values | default |
//! |---|---|---|
//! | `tier` | `sim600` (≈600 req/s), `sim5k` (≈5 000 req/s) | — (required) |
//! | `queue` | `calendar`, `heap` | `calendar` |
//! | `simthreads` | worker count; `0` = the serial `World` reference | `0` |
//!
//! Ablation records deliberately exclude wall-clock time, so the rows for
//! `simthreads=1,2,8` of the same `(tier, queue)` must be byte-identical —
//! the sweep doubles as an end-to-end thread-count-invariance check (wall
//! clock lives in `BENCH_SIM.json`, see `scripts/bench.sh`). The
//! `simthreads=0` row runs the serial `World`: it draws service times from
//! one global RNG where the sharded executor draws from one RNG per shard,
//! so its conservation counts (`completed`, `in_flight`, and `spans` under
//! full trace sampling) match the sharded rows exactly while its latency
//! quantiles and sampled-span counts match only statistically. The scenario
//! seed ignores `queue` as well, so the calendar and heap rows of one
//! `(tier, simthreads)` pair replay the same arrivals and, the two cores
//! being bit-identical, are identical records.
//!
//! Every scenario cell replays the Figure-21-style scenario: warm up at a base user
//! population, optionally surge at `SURGE_S`, inject the cell's fault class
//! over a window bracketing the surge, and report post-surge tail latency,
//! convergence time and instance usage.
//!
//! **Seed discipline.** The cell seed (derived by `graf-sweep` from
//! `(grid_seed, cell key)`) drives the simulated world and the load
//! generator. Model training uses the *grid* seed: the paper trains one
//! model per application and reuses it for every result, so all cells of a
//! sweep share per-app models and a cell's result cannot depend on which
//! other cells trained first.

use std::collections::BTreeMap;

use graf_chaos::ChaosSchedule;
use graf_core::{Graf, PolicyMode, ResilientConfig, ResilientController};
use graf_loadgen::ClosedLoop;
use graf_orchestrator::{
    Autoscaler, Cluster, CreationModel, Deployment, FirmLike, HpaConfig, KubernetesHpa,
    StaticScaler,
};
use graf_sim::time::{SimDuration, SimTime};
use graf_sim::topology::{ApiId, ServiceId};
use graf_sim::world::{SimConfig, World};
use graf_sweep::{Cell, CellResult, Grid};

use crate::standard::{
    bookinfo_setup, boutique_setup, build_graf, robot_shop_setup, social_setup, AppSetup,
};
use crate::timeline::{convergence_time_s, percentile_between, run_with_timeline};
use crate::Args;

/// Axis names this mapper understands, sorted.
pub const KNOWN_AXES: &[&str] =
    &["app", "chaos", "load", "policy", "queue", "simthreads", "slo", "surge", "tier"];

/// Application axis values.
pub const APPS: &[&str] = &["boutique", "social", "robot_shop", "bookinfo"];

/// Surge-shape axis values.
pub const SURGES: &[&str] = &["none", "step", "ramp", "spike"];

/// Controller-policy axis values.
pub const POLICIES: &[&str] = &["hpa", "firm", "static", "graf", "ladder"];

/// Parallel-sim ablation load tiers.
pub const TIERS: &[&str] = &["sim600", "sim5k"];

/// Event-queue axis values (ablation grids).
pub const QUEUES: &[&str] = &["calendar", "heap"];

/// Named grid presets (`--grid @smoke` etc.).
///
/// * `@smoke` — 2×2 cells, HPA only (no model training): the CI
///   worker-count-invariance check.
/// * `@default` — the everyday sweep: GRAF vs HPA across SLOs and surge
///   shapes on Online Boutique.
/// * `@fleet` — the full matrix: every app, four policies, surges and the
///   high-signal fault classes.
/// * `@parsim` — the parallel-sim ablation: both load tiers × both event
///   queues × worker counts 0 (serial reference), 1, 2 and 8; the
///   `simthreads=1,2,8` rows of a `(tier, queue)` pair must be
///   byte-identical, the serial row matches on conservation counts, and the
///   calendar and heap rows of a `(tier, simthreads)` pair are identical.
pub const PRESETS: &[(&str, &str)] = &[
    ("@smoke", "app=boutique;policy=hpa;slo=60,90;surge=none,step"),
    ("@default", "app=boutique;policy=graf,hpa;slo=60,90;surge=none,step,spike"),
    (
        "@fleet",
        "app=boutique,social,robot_shop,bookinfo;policy=graf,hpa,firm,ladder;\
         slo=60,90;surge=step,spike;chaos=none,trace_drop,creation_fail",
    ),
    ("@parsim", "tier=sim600,sim5k;queue=calendar,heap;simthreads=0,1,2,8"),
];

/// Scenario clock: warmup until the surge fires, then a measurement window.
const SURGE_S: f64 = 180.0;
const END_S: f64 = 480.0;
/// Quick mode shrinks the whole timeline (budget knob, not a claim knob).
const QUICK_SURGE_S: f64 = 60.0;
const QUICK_END_S: f64 = 180.0;
/// Fault window bracketing the surge, relative to the surge time.
const FAULT_LEAD_S: f64 = 30.0;
const FAULT_TAIL_S: f64 = 120.0;

/// Resolves a grid spec — either a `@preset` name or a literal
/// `axis=v1,v2;axis2=v3` spec — and validates every axis and value.
pub fn resolve_grid(spec: &str) -> Result<Grid, String> {
    let literal = if spec.starts_with('@') {
        PRESETS.iter().find(|(name, _)| *name == spec).map(|&(_, s)| s).ok_or_else(|| {
            let names: Vec<&str> = PRESETS.iter().map(|&(n, _)| n).collect();
            format!("unknown preset {spec:?}; available: {}", names.join(", "))
        })?
    } else {
        spec
    };
    let grid = Grid::parse(literal)?;
    validate(&grid)?;
    Ok(grid)
}

/// Validates axis names and values so typos fail before the fleet spins up.
///
/// Scenario grids require a `policy` axis; ablation grids (any grid with a
/// `tier` axis) take only `tier`/`queue`/`simthreads` — mixing the two axis
/// families is an error, since controllers never run in ablation cells.
pub fn validate(grid: &Grid) -> Result<(), String> {
    let mut has_policy = false;
    let mut has_tier = false;
    let mut ablation_only = true;
    for axis in grid.axes() {
        match axis.name.as_str() {
            "app" => check_values(&axis.values, APPS, "app")?,
            "surge" => check_values(&axis.values, SURGES, "surge")?,
            "policy" => {
                has_policy = true;
                check_values(&axis.values, POLICIES, "policy")?;
            }
            "chaos" => check_values(&axis.values, graf_chaos::CATALOG, "chaos")?,
            "slo" => check_numbers(&axis.values, "slo")?,
            "load" => check_numbers(&axis.values, "load")?,
            "tier" => {
                has_tier = true;
                check_values(&axis.values, TIERS, "tier")?;
            }
            "queue" => check_values(&axis.values, QUEUES, "queue")?,
            "simthreads" => check_counts(&axis.values, "simthreads")?,
            other => {
                return Err(format!(
                    "unknown axis {other:?}; known axes: {}",
                    KNOWN_AXES.join(", ")
                ))
            }
        }
        ablation_only &= matches!(axis.name.as_str(), "tier" | "queue" | "simthreads");
    }
    if has_tier && !ablation_only {
        return Err(
            "ablation grids (a `tier` axis) take only tier/queue/simthreads axes".to_string()
        );
    }
    if !has_tier && grid.axes().iter().any(|a| matches!(a.name.as_str(), "queue" | "simthreads")) {
        return Err("queue/simthreads axes need a `tier` axis (ablation grids)".to_string());
    }
    if !has_tier && !has_policy {
        return Err("grid must include a `policy` axis".to_string());
    }
    Ok(())
}

fn check_values(values: &[String], known: &[&str], axis: &str) -> Result<(), String> {
    for v in values {
        if !known.contains(&v.as_str()) {
            return Err(format!("unknown {axis} value {v:?}; known: {}", known.join(", ")));
        }
    }
    Ok(())
}

fn check_numbers(values: &[String], axis: &str) -> Result<(), String> {
    for v in values {
        let ok = v.parse::<f64>().map(|x| x.is_finite() && x > 0.0).unwrap_or(false);
        if !ok {
            return Err(format!("{axis} value {v:?} is not a positive number"));
        }
    }
    Ok(())
}

fn check_counts(values: &[String], axis: &str) -> Result<(), String> {
    for v in values {
        if v.parse::<usize>().is_err() {
            return Err(format!("{axis} value {v:?} is not a worker count"));
        }
    }
    Ok(())
}

/// Scale knobs shared by every cell of a sweep (budget, never claims).
#[derive(Clone, Debug)]
pub struct SweepScale {
    /// Shrink timelines and training budgets for smoke runs.
    pub quick: bool,
    /// Explicit training-sample override.
    pub samples: Option<usize>,
    /// Training worker threads (deterministic for any value).
    pub threads: usize,
    /// Default sharded-simulation worker count for ablation cells that do
    /// not pin a `simthreads` axis value (`None`/0 = the serial `World`).
    /// Deterministic for any value.
    pub sim_threads: Option<usize>,
}

impl Default for SweepScale {
    fn default() -> Self {
        Self { quick: false, samples: None, threads: 1, sim_threads: None }
    }
}

/// One worker's cell evaluator: owns a per-worker cache of trained GRAF
/// models (lazy, keyed by app — only `graf`/`ladder` cells pay for
/// training, and training is deterministic per `(app, grid_seed)` so every
/// worker's cache holds identical models).
pub struct CellRunner {
    grid_seed: u64,
    scale: SweepScale,
    models: BTreeMap<String, Graf>,
}

impl CellRunner {
    /// Creates a runner for one worker of a sweep seeded with `grid_seed`.
    pub fn new(grid_seed: u64, scale: SweepScale) -> Self {
        Self { grid_seed, scale, models: BTreeMap::new() }
    }

    fn model_for(&mut self, app: &str, setup: &AppSetup) -> &Graf {
        if !self.models.contains_key(app) {
            let args = Args {
                seed: self.grid_seed,
                quick: self.scale.quick,
                samples: self.scale.samples,
                threads: Some(self.scale.threads),
                ..Args::default()
            };
            let graf = build_graf(setup, &args);
            self.models.insert(app.to_string(), graf);
        }
        &self.models[app]
    }

    /// Evaluates one cell under its derived seed. Errors (unknown values —
    /// normally caught by [`validate`] — or degenerate scenarios) become
    /// error records; the fleet keeps going.
    pub fn run_cell(&mut self, cell: &Cell, seed: u64) -> Result<CellResult, String> {
        if cell.get("tier").is_some() {
            return self.run_ablation_cell(cell, seed);
        }
        let app = cell.get("app").unwrap_or("boutique");
        let setup = match app {
            "boutique" => boutique_setup(),
            "social" => social_setup(),
            "robot_shop" => robot_shop_setup(),
            "bookinfo" => bookinfo_setup(),
            other => return Err(format!("unknown app {other:?}")),
        };
        let slo_ms = match cell.get("slo") {
            Some(v) => v.parse::<f64>().map_err(|_| format!("slo value {v:?} is not a number"))?,
            None => setup.slo_ms,
        };
        let load = match cell.get("load") {
            Some(v) => v.parse::<f64>().map_err(|_| format!("load value {v:?} is not a number"))?,
            None => 1.0,
        };
        if !(slo_ms > 0.0 && load > 0.0) {
            return Err(format!("slo ({slo_ms}) and load ({load}) must be positive"));
        }
        let surge = cell.get("surge").unwrap_or("none");
        let chaos = cell.get("chaos").unwrap_or("none");
        let policy = cell.get("policy").ok_or("cell has no policy axis")?.to_string();

        let (surge_s, end_s) =
            if self.scale.quick { (QUICK_SURGE_S, QUICK_END_S) } else { (SURGE_S, END_S) };

        let topo = setup.topo.clone();
        let num_services = topo.num_services();
        let sched = chaos_schedule(chaos, &setup, seed, surge_s)?;

        let world = World::new(topo, SimConfig::default(), seed);
        let deployments = (0..num_services)
            .map(|s| Deployment::new(ServiceId(s as u16), setup.cpu_unit_mc, 4))
            .collect();
        let mut cluster = Cluster::new(world, deployments, CreationModel::default());
        if !sched.is_empty() {
            cluster.arm_chaos(&sched);
        }

        let mut users = users_loadgen(&setup, surge, load, surge_s, seed)?;

        let mut scaler: Box<dyn Autoscaler> = match policy.as_str() {
            "static" => Box::new(StaticScaler),
            "hpa" => Box::new(KubernetesHpa::new(HpaConfig::with_threshold(0.5), num_services)),
            "firm" => Box::new(FirmLike {
                latency_ceiling: SimDuration::from_millis(slo_ms * 1.5),
                ..FirmLike::default()
            }),
            "graf" => Box::new(self.model_for(app, &setup).controller(slo_ms)),
            "ladder" => {
                let ctrl = self.model_for(app, &setup).controller(slo_ms);
                let mut rc = ResilientController::new(
                    ctrl,
                    ResilientConfig { mode: PolicyMode::Ladder, ..ResilientConfig::default() },
                );
                if !sched.is_empty() {
                    rc.arm_chaos(&sched);
                }
                Box::new(rc)
            }
            other => return Err(format!("unknown policy {other:?}")),
        };

        let (tl, comps) = run_with_timeline(
            &mut cluster,
            &mut users,
            scaler.as_mut(),
            SimTime::from_secs(end_s),
            SimDuration::from_secs(5.0),
        );

        // All window metrics cover [surge_s, end_s) — the post-surge period,
        // or simply the steady tail when surge=none.
        let window: Vec<&graf_sim::world::Completion> = comps
            .iter()
            .filter(|c| {
                let t = c.end.as_secs_f64();
                t >= surge_s && t < end_s
            })
            .collect();
        let completed = window.len();
        let timeouts = window.iter().filter(|c| c.timed_out).count();
        let within_slo = window
            .iter()
            .filter(|c| !c.timed_out && c.latency_us() as f64 / 1000.0 <= slo_ms)
            .count();
        let post = |p: &&crate::timeline::TimelinePoint| p.t_s >= surge_s;

        let mut r = CellResult::default();
        r.push("completed", completed as f64);
        r.push("timeouts", timeouts as f64);
        r.push("p99_ms", percentile_between(&comps, surge_s, end_s, 0.99).unwrap_or(-1.0));
        r.push("converge_s", convergence_time_s(&tl, surge_s, slo_ms, 4).unwrap_or(-1.0));
        r.push(
            "slo_attained",
            if completed > 0 { within_slo as f64 / completed as f64 } else { -1.0 },
        );
        r.push("final_instances", tl.last().map_or(0, |p| p.total_instances) as f64);
        r.push(
            "peak_instances",
            tl.iter().filter(post).map(|p| p.total_instances).max().unwrap_or(0) as f64,
        );
        let post_points: Vec<f64> =
            tl.iter().filter(post).map(|p| p.total_instances as f64).collect();
        r.push(
            "mean_instances",
            if post_points.is_empty() {
                -1.0
            } else {
                post_points.iter().sum::<f64>() / post_points.len() as f64
            },
        );
        Ok(r)
    }

    /// Evaluates one parallel-sim ablation cell: a fixed open-loop Online
    /// Boutique replay on the simulator alone, no controller in the loop.
    /// `simthreads` picks the executor — `0` runs the serial [`World`]
    /// reference, `n ≥ 1` runs [`graf_sim::exec::ShardedWorld`] with `n`
    /// workers — and every recorded metric must be identical for any `n ≥ 1`
    /// (the serial reference matches on conservation counts; see the module
    /// docs). Wall-clock time is deliberately not recorded, so the rows are
    /// byte-comparable across the `simthreads` axis.
    fn run_ablation_cell(&self, cell: &Cell, _cell_seed: u64) -> Result<CellResult, String> {
        use graf_sim::events::QueueKind;
        use graf_sim::exec::ShardedWorld;
        use graf_sim::rng::DetRng;

        // The sweep's cell seed folds in every axis value — including
        // `simthreads` and `queue`, which must NOT shift the scenario (the
        // executor and the event core are the things under test, the
        // scenario is the control). Re-derive the seed from the cell key
        // without those coordinates so every row of a tier replays the same
        // arrivals.
        let scenario_key: String = cell
            .key()
            .split('/')
            .filter(|part| !part.starts_with("simthreads=") && !part.starts_with("queue="))
            .collect::<Vec<_>>()
            .join("/");
        let seed = graf_sweep::derive_seed(self.grid_seed, &scenario_key);

        let queue = match cell.get("queue").unwrap_or("calendar") {
            "calendar" => QueueKind::Calendar,
            "heap" => QueueKind::Heap,
            other => return Err(format!("unknown queue {other:?}")),
        };
        let threads: usize = match cell.get("simthreads") {
            Some(v) => {
                v.parse().map_err(|_| format!("simthreads value {v:?} is not a worker count"))?
            }
            None => self.scale.sim_threads.unwrap_or(0),
        };
        let base = SimConfig {
            request_timeout_us: None,
            return_us: 250,
            event_queue: queue,
            ..SimConfig::default()
        };
        let (rates, replicas, unit_mc, horizon_s, cfg) = match cell.get("tier") {
            Some("sim600") => (
                [180.0, 180.0, 240.0],
                vec![4usize; 6],
                250.0,
                if self.scale.quick { 2u64 } else { 6 },
                base,
            ),
            Some("sim5k") => (
                [1500.0, 1500.0, 2000.0],
                vec![5, 2, 3, 5, 7, 3],
                1000.0,
                if self.scale.quick { 1 } else { 3 },
                SimConfig { trace_sample: 0.05, cpu_checkpoint_us: 1_000, ..base },
            ),
            other => return Err(format!("unknown tier {other:?}")),
        };

        let topo = graf_apps::online_boutique();
        if replicas.len() != topo.num_services() {
            return Err(format!(
                "boutique has {} services, expected {}",
                topo.num_services(),
                replicas.len()
            ));
        }
        let mut rng = DetRng::new(seed ^ 0x5107);
        let mut arrivals: Vec<(ApiId, SimTime)> = Vec::new();
        for (api, rate) in rates.iter().enumerate() {
            let mut t = 0.0;
            loop {
                t += rng.exp(1e6 / rate);
                if t >= horizon_s as f64 * 1e6 {
                    break;
                }
                arrivals.push((ApiId(api as u16), SimTime(t as u64)));
            }
        }
        let quiesce = SimTime::from_secs(horizon_s as f64 + 30.0);
        let (comps, stats, in_flight) = if threads == 0 {
            let mut w = World::new(topo, cfg, seed);
            for (s, &n) in replicas.iter().enumerate() {
                w.add_instances(ServiceId(s as u16), n, unit_mc, SimTime::ZERO);
            }
            for &(api, t) in &arrivals {
                w.inject(api, t);
            }
            w.run_to_quiescence(quiesce);
            (w.drain_completions(), w.stats(), w.in_flight())
        } else {
            let mut w = ShardedWorld::new(topo, cfg, seed, threads);
            for (s, &n) in replicas.iter().enumerate() {
                w.add_instances(ServiceId(s as u16), n, unit_mc, SimTime::ZERO);
            }
            for &(api, t) in &arrivals {
                w.inject(api, t);
            }
            w.run_until(SimTime::from_secs(horizon_s as f64));
            w.run_to_quiescence(quiesce);
            (w.drain_completions(), w.stats(), w.in_flight())
        };

        let mut lat: Vec<u64> =
            comps.iter().filter(|c| !c.timed_out).map(|c| c.latency_us()).collect();
        lat.sort_unstable();
        let pct = |p: f64| -> f64 {
            if lat.is_empty() {
                return -1.0;
            }
            lat[((lat.len() as f64 - 1.0) * p).round() as usize] as f64 / 1000.0
        };
        let mut r = CellResult::default();
        r.push("completed", comps.len() as f64);
        r.push("events", stats.events as f64);
        r.push("spans", stats.spans as f64);
        r.push("p50_ms", pct(0.50));
        r.push("p99_ms", pct(0.99));
        r.push("in_flight", in_flight as f64);
        Ok(r)
    }
}

/// Builds the cell's fault schedule: the named catalog fault over a window
/// bracketing the surge, `latency_spike` pointed at the app's hottest
/// (highest per-request CPU) service.
fn chaos_schedule(
    name: &str,
    setup: &AppSetup,
    seed: u64,
    surge_s: f64,
) -> Result<ChaosSchedule, String> {
    let hot = setup
        .topo
        .services
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.work_ms.partial_cmp(&b.1.work_ms).expect("finite work_ms"))
        .map(|(i, _)| ServiceId(i as u16))
        .expect("topology has services");
    let faults =
        graf_chaos::named_faults(name, hot).ok_or_else(|| format!("unknown chaos {name:?}"))?;
    let mut sched = ChaosSchedule::new(seed);
    for kind in faults {
        sched = sched.fault(
            kind,
            SimTime::from_secs((surge_s - FAULT_LEAD_S).max(0.0)),
            SimTime::from_secs(surge_s + FAULT_TAIL_S),
        );
    }
    Ok(sched)
}

/// Builds the cell's closed-loop population: a base population sized to the
/// app's trained operating point (scaled by `load`), then the surge shape.
fn users_loadgen(
    setup: &AppSetup,
    surge: &str,
    load: f64,
    surge_s: f64,
    seed: u64,
) -> Result<ClosedLoop, String> {
    let mix: Vec<(ApiId, f64)> =
        setup.probe_qps.iter().enumerate().map(|(i, &q)| (ApiId(i as u16), q)).collect();
    // ~2.5 users per probe req/s puts the population at the trained
    // operating point (think time U[0, 5 s]); base load holds at half that.
    let base = ((setup.probe_qps.iter().sum::<f64>() * 1.25 * load).round() as usize).max(1);
    let mut users = ClosedLoop::with_mix(mix, base, seed ^ 0x21);
    match surge {
        "none" => {}
        "step" => users.set_users(SimTime::from_secs(surge_s), base * 2),
        "ramp" => {
            // Linear climb to 2× over eight 15 s steps.
            for k in 1..=8usize {
                users.set_users(
                    SimTime::from_secs(surge_s + (k as f64 - 1.0) * 15.0),
                    base + base * k / 8,
                );
            }
        }
        "spike" => {
            users.set_users(SimTime::from_secs(surge_s), base * 3);
            users.set_users(SimTime::from_secs(surge_s + 60.0), base);
        }
        other => return Err(format!("unknown surge {other:?}")),
    }
    Ok(users)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graf_sweep::derive_seed;

    #[test]
    fn presets_resolve_and_validate() {
        for (name, _) in PRESETS {
            let grid = resolve_grid(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!grid.cells().is_empty());
        }
        assert_eq!(resolve_grid("@smoke").unwrap().cells().len(), 4);
        assert!(resolve_grid("@bogus").unwrap_err().contains("unknown preset"));
    }

    #[test]
    fn validation_rejects_typos() {
        let bad_axis = Grid::parse("policy=hpa;zone=us").unwrap();
        assert!(validate(&bad_axis).unwrap_err().contains("unknown axis"));
        let bad_value = Grid::parse("policy=hpa;app=buotique").unwrap();
        assert!(validate(&bad_value).unwrap_err().contains("unknown app value"));
        let bad_slo = Grid::parse("policy=hpa;slo=-5").unwrap();
        assert!(validate(&bad_slo).unwrap_err().contains("positive number"));
        let no_policy = Grid::parse("app=boutique").unwrap();
        assert!(validate(&no_policy).unwrap_err().contains("policy"));
    }

    #[test]
    fn smoke_cell_runs_deterministically() {
        let grid = resolve_grid("@smoke").unwrap();
        let cell = &grid.cells()[0];
        let seed = derive_seed(7, &cell.key());
        let scale = SweepScale { quick: true, ..SweepScale::default() };
        let a = CellRunner::new(7, scale.clone()).run_cell(cell, seed).unwrap();
        let b = CellRunner::new(7, scale).run_cell(cell, seed).unwrap();
        assert_eq!(a, b, "same cell + seed → identical metrics");
        assert!(a.get("completed").unwrap_or(0.0) > 0.0, "requests completed");
    }

    #[test]
    fn parsim_preset_is_the_tier_by_queue_by_threads_grid() {
        let grid = resolve_grid("@parsim").unwrap();
        assert_eq!(grid.cells().len(), 16, "2 tiers × 2 queues × 4 worker counts");
        assert!(grid.cells().iter().all(|c| c.get("policy").is_none()));
    }

    #[test]
    fn ablation_grids_reject_scenario_axes_and_vice_versa() {
        let mixed = Grid::parse("tier=sim600;policy=hpa").unwrap();
        assert!(validate(&mixed).unwrap_err().contains("ablation"));
        let orphan = Grid::parse("policy=hpa;simthreads=2").unwrap();
        assert!(validate(&orphan).unwrap_err().contains("tier"));
        let bad_count = Grid::parse("tier=sim600;simthreads=two").unwrap();
        assert!(validate(&bad_count).unwrap_err().contains("worker count"));
    }

    /// The ablation's core claim: sharded rows differing only in the
    /// `simthreads` coordinate carry identical metrics, and the serial
    /// reference row conserves the same requests and spans (its latency
    /// quantiles come from a different RNG stream — one global generator
    /// instead of one per shard — so they match only statistically).
    #[test]
    fn ablation_cells_are_identical_across_worker_counts() {
        let scale = SweepScale { quick: true, ..SweepScale::default() };
        let mut runner = CellRunner::new(7, scale);
        let mut row = |queue: &str, simthreads: &str| {
            let key = format!("queue={queue}/simthreads={simthreads}/tier=sim600");
            let cell = Cell::from_key(&key).expect("parseable key");
            let seed = derive_seed(7, &cell.key());
            runner.run_cell(&cell, seed).unwrap()
        };
        let serial = row("heap", "0");
        let one = row("heap", "1");
        let three = row("heap", "3");
        assert!(one.get("completed").unwrap_or(0.0) > 0.0, "requests completed");
        assert_eq!(one.get("in_flight"), Some(0.0), "ablation drains fully");
        assert_eq!(one, three, "worker count leaked into ablation metrics");
        for metric in ["completed", "spans", "in_flight"] {
            assert_eq!(serial.get(metric), one.get(metric), "serial reference diverged: {metric}");
        }
        // The queue axis is an ablation of the event core alone: calendar and
        // heap rows of one (tier, simthreads) pair replay the same arrivals
        // and, the two cores being bit-identical, record the same metrics.
        assert_eq!(row("calendar", "0"), serial, "queue kind leaked into the serial scenario");
        assert_eq!(row("calendar", "1"), one, "queue kind leaked into the sharded scenario");
    }

    #[test]
    fn unknown_cell_values_are_runtime_errors_not_panics() {
        let mut runner = CellRunner::new(7, SweepScale { quick: true, ..SweepScale::default() });
        let cell = Cell::from_key("app=nope/policy=hpa").expect("parseable key");
        assert!(runner.run_cell(&cell, 1).is_err());
        let cell = Cell::from_key("policy=nope").expect("parseable key");
        assert!(runner.run_cell(&cell, 1).is_err());
    }
}
