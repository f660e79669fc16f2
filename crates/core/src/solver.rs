//! The configuration solver (§3.5).
//!
//! Minimizes eq. (5): `Loss(r) = Σᵢ rᵢ + ρ · max(0, L̂(w, r) − SLO)` by Adam
//! gradient descent over the per-service CPU quotas `r`, differentiating the
//! *trained latency prediction model* `L̂` with respect to its quota inputs.
//! Quotas are projected into Algorithm-1 bounds after every step, and the
//! loop stops once the loss delta falls below a tolerance — the paper's
//! synchronous, lightweight solve (3.4–6.8 s on their testbed; microseconds
//! here since the model is small).
//!
//! The optimization runs in scaled space (quotas divided by the feature
//! scaler's divisor, latency normalized by the SLO), which keeps ρ meaningful
//! across applications.

use graf_nn::{Adam, Matrix, Param};

use crate::latency_model::LatencyModel;
use crate::sample_collector::Bounds;

/// Solver hyper-parameters.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Penalty coefficient ρ of eq. (5), applied to the normalized violation.
    pub rho: f64,
    /// Adam learning rate in scaled-quota space.
    pub lr: f64,
    /// Stop when `|Loss_t − Loss_{t−1}|` falls below this.
    pub tol: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Minimum iterations before the tolerance check applies.
    pub min_iters: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self { rho: 40.0, lr: 0.02, tol: 1e-6, max_iters: 1500, min_iters: 25 }
    }
}

/// A solved resource configuration.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// Optimal per-service quotas, millicores.
    pub quotas_mc: Vec<f64>,
    /// Predicted p99 at the solution, ms.
    pub predicted_ms: f64,
    /// Gradient-descent iterations used.
    pub iterations: usize,
    /// Final loss value (scaled space).
    pub loss: f64,
}

/// Finds the minimal-total-CPU configuration satisfying the latency SLO.
///
/// `workloads` are the per-service workloads from the workload analyzer;
/// `slo_ms` the target; `bounds` the Algorithm-1 box. The solve starts from
/// the upper bounds (a known-feasible point) and walks downhill.
///
/// Quickstart — fit a tiny model on a synthetic latency surface, then solve:
///
/// ```
/// use graf_core::{
///     solve, Bounds, FeatureScaler, LatencyModel, NetKind, Sample, SolverConfig, TrainConfig,
/// };
/// use graf_sim::rng::DetRng;
///
/// // Two chained services; p99 rises as quota approaches the workload.
/// let mut rng = DetRng::new(7);
/// let mut samples = Vec::new();
/// for _ in 0..80 {
///     let w = rng.uniform(20.0, 100.0);
///     let quotas = vec![rng.uniform(150.0, 1500.0), rng.uniform(400.0, 2800.0)];
///     let p99 = 2.0
///         + 1200.0 / (quotas[0] - w).max(15.0)
///         + 3600.0 / (quotas[1] - 3.0 * w).max(15.0);
///     samples.push(Sample { api_rates: vec![w], workloads: vec![w, w], quotas_mc: quotas, p99_ms: p99 });
/// }
/// let scaler = FeatureScaler::fit(
///     samples.iter().map(|s| (s.workloads.as_slice(), s.quotas_mc.as_slice())),
/// );
/// let ds = LatencyModel::dataset_from_samples(&scaler, &samples);
/// let split = ds.split(0.8, 0.1, 2);
/// let mut model =
///     LatencyModel::new(NetKind::Gnn, &[(0, 1)], 2, scaler, split.train.label_mean(), 5);
/// model.train(&split, &TrainConfig { epochs: 8, evals: 2, ..Default::default() });
///
/// let bounds = Bounds { lower: vec![150.0, 400.0], upper: vec![1500.0, 2800.0] };
/// let r = solve(&mut model, &[60.0, 60.0], 25.0, &bounds, &SolverConfig::default());
/// assert!(r.iterations > 0 && r.predicted_ms.is_finite());
/// for (q, (&l, &h)) in r.quotas_mc.iter().zip(bounds.lower.iter().zip(&bounds.upper)) {
///     assert!(*q >= l && *q <= h, "solution stays inside the Algorithm-1 box");
/// }
/// ```
pub fn solve(
    model: &mut LatencyModel,
    workloads: &[f64],
    slo_ms: f64,
    bounds: &Bounds,
    cfg: &SolverConfig,
) -> SolveResult {
    solve_observed(model, workloads, slo_ms, bounds, cfg, &graf_obs::Obs::disabled())
}

/// [`solve`] with instrumentation: records a `graf.solver.solve` span
/// (iterations, final loss, SLO violation, predicted latency; wall-clock
/// duration) and the `graf.solver.iterations` counter, and attributes wall
/// time to the `solver.solve` phase with `solver.predict_grad` (fused model
/// forward/backward) and `solver.descent` (Adam step + box projection)
/// children, one work unit per iteration. Identical numerics — nothing
/// recorded feeds back into the descent, and a disabled handle costs one
/// branch per instrumentation point.
pub fn solve_observed(
    model: &mut LatencyModel,
    workloads: &[f64],
    slo_ms: f64,
    bounds: &Bounds,
    cfg: &SolverConfig,
    obs: &graf_obs::Obs,
) -> SolveResult {
    let _solve_scope = obs.enter("solver.solve");
    let mut span = obs.span("graf.solver.solve");
    let n = workloads.len();
    assert_eq!(n, model.num_services(), "one workload per service");
    assert_eq!(n, bounds.lower.len());
    assert!(slo_ms > 0.0);

    // graf-lint: allow(hot-alloc, one-time setup before the descent loop)
    let lo: Vec<f64> = bounds.lower.iter().map(|&v| model.scaler.scale_quota(v)).collect();
    // graf-lint: allow(hot-alloc, one-time setup before the descent loop)
    let hi: Vec<f64> = bounds.upper.iter().map(|&v| model.scaler.scale_quota(v)).collect();

    // Variables: scaled quotas, starting from the feasible top of the box.
    // graf-lint: allow(hot-alloc, one-time setup before the descent loop)
    let mut r = Param::new(Matrix::row_vector(hi.clone()));
    let mut opt = Adam::new(cfg.lr);

    let mut prev_loss = f64::INFINITY;
    let mut iterations = 0;
    let mut last_loss = 0.0;
    // Per-iteration buffers hoisted out of the descent loop; each pass is one
    // fused forward through the model, plus a backward only when the SLO
    // penalty is active (reusing the retained forward trace).
    // graf-lint: allow(hot-alloc, hoisted buffer reused every iteration)
    let mut quotas_mc = vec![0.0; n];
    // graf-lint: allow(hot-alloc, hoisted buffer reused every iteration)
    let mut g_ms: Vec<f64> = Vec::with_capacity(n);
    for it in 0..cfg.max_iters {
        iterations = it + 1;
        obs.work(1);
        for (q, &v) in quotas_mc.iter_mut().zip(r.value.data()) {
            *q = model.scaler.unscale_quota(v);
        }
        let (pred, has_grad) = {
            let _grad_scope = obs.enter("solver.predict_grad");
            model.predict_ms_with_grad(workloads, &quotas_mc, slo_ms, &mut g_ms)
        };
        let violation = (pred - slo_ms).max(0.0) / slo_ms;
        let total: f64 = r.value.data().iter().sum();
        last_loss = total + cfg.rho * violation;

        let _descent_scope = obs.enter("solver.descent");
        // Gradient: d/dr_scaled [Σ r_scaled] = 1; the penalty term chains
        // through the network when active (`g_ms` = d pred_ms / d r_mc).
        if has_grad {
            for (i, &gm) in g_ms.iter().enumerate() {
                // d r_mc / d r_scaled = quota_div.
                r.grad.set(0, i, 1.0 + cfg.rho / slo_ms * gm * model.scaler.quota_div);
            }
        } else {
            for i in 0..n {
                r.grad.set(0, i, 1.0);
            }
        }
        opt.step(&mut [&mut r]);
        // Project into the Algorithm-1 box.
        for i in 0..n {
            let v = r.value.get(0, i).clamp(lo[i], hi[i]);
            r.value.set(0, i, v);
        }

        if it + 1 >= cfg.min_iters && (prev_loss - last_loss).abs() < cfg.tol {
            break;
        }
        prev_loss = last_loss;
    }

    let scaler = model.scaler;
    // graf-lint: allow(hot-alloc, result construction after the loop exits)
    let quotas_mc: Vec<f64> = r.value.data().iter().map(|&v| scaler.unscale_quota(v)).collect();
    let predicted_ms = model.predict_ms(workloads, &quotas_mc);
    if span.is_recording() {
        span.attr("iterations", iterations)
            .attr("loss", last_loss)
            .attr("predicted_ms", predicted_ms)
            .attr("violation", (predicted_ms - slo_ms).max(0.0) / slo_ms)
            .attr("quota_total_mc", quotas_mc.iter().sum::<f64>());
        obs.counter_add("graf.solver.iterations", &[], iterations as u64);
    }
    SolveResult { quotas_mc, predicted_ms, iterations, loss: last_loss }
}

/// §6's "Integer Optimization for instances scaling" extension: refine a
/// continuous solution into instance counts better than plain `ceil`.
///
/// The paper rounds every quota up to a whole number of instances (eq. 7),
/// over-provisioning by up to one CPU unit per microservice, and notes that
/// integer optimization could reclaim that slack. Full integer programming is
/// NP-hard; this refinement runs a greedy descent over instance counts:
/// starting from the `ceil` solution, repeatedly remove the single instance
/// whose removal keeps the model's predicted latency within the SLO, until no
/// removal survives. Each step queries the trained model once, so the
/// refinement costs `O(total instances × services)` predictions.
///
/// Returns per-service instance counts and the predicted latency at the
/// refined configuration.
///
/// `bounds` are the Algorithm-1 quota bounds: refinement never drops a
/// service below `ceil(lower/unit)` instances — below the box the model has
/// never seen data and extrapolates blindly into the starvation region.
pub fn integer_refine(
    model: &LatencyModel,
    workloads: &[f64],
    continuous_mc: &[f64],
    bounds: &Bounds,
    cpu_unit_mc: f64,
    slo_ms: f64,
) -> (Vec<usize>, f64) {
    assert!(cpu_unit_mc > 0.0);
    let n = continuous_mc.len();
    let floor: Vec<usize> =
        bounds.lower.iter().map(|&l| (l / cpu_unit_mc).ceil().max(1.0) as usize).collect();
    let mut counts: Vec<usize> = continuous_mc
        .iter()
        .zip(&floor)
        .map(|(&q, &f)| ((q / cpu_unit_mc).ceil() as usize).max(f))
        .collect();
    let quotas = |c: &[usize]| c.iter().map(|&k| k as f64 * cpu_unit_mc).collect::<Vec<f64>>();
    let mut pred = model.predict_ms(workloads, &quotas(&counts));
    loop {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            if counts[i] <= floor[i] {
                continue;
            }
            counts[i] -= 1;
            let p = model.predict_ms(workloads, &quotas(&counts));
            counts[i] += 1;
            if p <= slo_ms && best.is_none_or(|(_, bp)| p < bp) {
                best = Some((i, p));
            }
        }
        match best {
            Some((i, p)) => {
                counts[i] -= 1;
                pred = p;
            }
            None => break,
        }
    }
    (counts, pred)
}

/// Evaluates the solver loss surface at a given configuration — used by the
/// Figure-12 heat-map bench.
pub fn loss_at(
    model: &LatencyModel,
    workloads: &[f64],
    quotas_mc: &[f64],
    slo_ms: f64,
    rho: f64,
) -> f64 {
    let pred = model.predict_ms(workloads, quotas_mc);
    let total: f64 = quotas_mc.iter().map(|&q| model.scaler.scale_quota(q)).sum();
    total + rho * (pred - slo_ms).max(0.0) / slo_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureScaler;
    use crate::latency_model::{NetKind, TrainConfig};
    use crate::sample_collector::Sample;
    use graf_sim::rng::DetRng;

    /// Trains a small model on a synthetic convex latency surface and returns
    /// it with its bounds.
    fn trained_model(seed: u64) -> (LatencyModel, Bounds, Vec<f64>) {
        let mut rng = DetRng::new(seed);
        let works = [1.0, 3.0];
        // Per-service quota ranges as Algorithm 1 would produce them: the
        // lower bound keeps the single service's own latency under the SLO,
        // excluding the hyperbolic starvation corner the model never trains
        // on (§3.7).
        let ranges = [(150.0, 1500.0), (400.0, 2800.0)];
        let mut samples = Vec::new();
        for _ in 0..700 {
            let w = rng.uniform(20.0, 100.0);
            let quotas: Vec<f64> = ranges.iter().map(|&(lo, hi)| rng.uniform(lo, hi)).collect();
            let mut p99 = 2.0;
            for i in 0..2 {
                let offered = w * works[i];
                let head = (quotas[i] - offered).max(15.0);
                p99 += 1200.0 * works[i] / head + works[i];
            }
            samples.push(Sample {
                api_rates: vec![w],
                workloads: vec![w, w],
                quotas_mc: quotas,
                p99_ms: p99 * rng.lognormal_mean_cv(1.0, 0.05),
            });
        }
        let scaler = FeatureScaler::fit(
            samples.iter().map(|s| (s.workloads.as_slice(), s.quotas_mc.as_slice())),
        );
        let ds = LatencyModel::dataset_from_samples(&scaler, &samples);
        let split = ds.split(0.8, 0.1, 2);
        let mut model =
            LatencyModel::new(NetKind::Gnn, &[(0, 1)], 2, scaler, split.train.label_mean(), seed);
        let cfg = TrainConfig { epochs: 80, evals: 10, ..Default::default() };
        model.train(&split, &cfg);
        let bounds = Bounds { lower: vec![150.0, 400.0], upper: vec![1500.0, 2800.0] };
        (model, bounds, vec![60.0, 60.0])
    }

    #[test]
    fn solver_stays_in_bounds_and_meets_predicted_slo() {
        let (mut model, bounds, w) = trained_model(3);
        let res = solve(&mut model, &w, 120.0, &bounds, &SolverConfig::default());
        for i in 0..2 {
            assert!(
                res.quotas_mc[i] >= bounds.lower[i] - 1e-6
                    && res.quotas_mc[i] <= bounds.upper[i] + 1e-6,
                "quota {i} within bounds: {:?}",
                res.quotas_mc
            );
        }
        assert!(
            res.predicted_ms <= 120.0 * 1.15,
            "solution approximately satisfies the SLO: {res:?}"
        );
        assert!(res.iterations >= 25);
    }

    #[test]
    fn tighter_slo_costs_more_cpu() {
        let (mut model, bounds, w) = trained_model(4);
        // The box's lower corner sits near ~28 ms predicted at this load, so
        // both SLOs below are binding and discriminate.
        let loose = solve(&mut model, &w, 25.0, &bounds, &SolverConfig::default());
        let tight = solve(&mut model, &w, 12.0, &bounds, &SolverConfig::default());
        let sum = |r: &SolveResult| r.quotas_mc.iter().sum::<f64>();
        assert!(
            sum(&tight) > sum(&loose),
            "tight SLO {:?} must use more CPU than loose {:?}",
            tight.quotas_mc,
            loose.quotas_mc
        );
    }

    #[test]
    fn higher_workload_costs_more_cpu() {
        let (mut model, bounds, _) = trained_model(5);
        let low = solve(&mut model, &[30.0, 30.0], 18.0, &bounds, &SolverConfig::default());
        let high = solve(&mut model, &[90.0, 90.0], 18.0, &bounds, &SolverConfig::default());
        let sum = |r: &SolveResult| r.quotas_mc.iter().sum::<f64>();
        assert!(sum(&high) > sum(&low), "{:?} vs {:?}", high.quotas_mc, low.quotas_mc);
    }

    #[test]
    fn heavier_service_gets_more_cpu() {
        // Service 1 does 3× the work of service 0 in the synthetic surface.
        let (mut model, bounds, w) = trained_model(6);
        let res = solve(&mut model, &w, 15.0, &bounds, &SolverConfig::default());
        assert!(
            res.quotas_mc[1] > res.quotas_mc[0],
            "solver shifts CPU to the bottleneck: {:?}",
            res.quotas_mc
        );
    }

    #[test]
    fn unreachable_slo_saturates_at_upper_bounds() {
        let (mut model, bounds, w) = trained_model(7);
        let res = solve(&mut model, &w, 0.5, &bounds, &SolverConfig::default());
        // With an impossible 0.5 ms SLO the penalty dominates: quotas stay
        // pinned high in the box instead of descending to the floor.
        for i in 0..2 {
            let mid = 0.5 * (bounds.lower[i] + bounds.upper[i]);
            assert!(
                res.quotas_mc[i] > mid,
                "quota {i} stays in the upper half of the box: {:?}",
                res.quotas_mc
            );
        }
    }

    /// Pins the descent bit for bit: iteration counts, quotas and the
    /// predicted latency at a slack SLO (forward-only iterations) and at two
    /// binding ones (every iteration also back-propagates). A kernel change
    /// that moves any rounding fails here.
    #[test]
    fn solve_results_are_pinned_bit_for_bit() {
        let (mut model, bounds, w) = trained_model(4);
        let golden: [(f64, usize, [u64; 2], u64); 3] = [
            (120.0, 45, [0x4062c00000000000, 0x4079000000000000], 0x403b05fca8a4eb5e),
            (25.0, 1500, [0x40851c25e34db0e8, 0x40857d8b05c3ba9b], 0x402ff8239e77ad2b),
            (12.0, 1500, [0x407dffeaf391c805, 0x409538d347e21c3c], 0x402734e62a05c5fa),
        ];
        for (slo, iterations, quotas, predicted) in golden {
            let r = solve(&mut model, &w, slo, &bounds, &SolverConfig::default());
            let bits: Vec<u64> = r.quotas_mc.iter().map(|q| q.to_bits()).collect();
            assert_eq!(r.iterations, iterations, "iterations at SLO {slo}");
            assert_eq!(bits, quotas, "quota bits at SLO {slo}: {:?}", r.quotas_mc);
            assert_eq!(r.predicted_ms.to_bits(), predicted, "prediction at SLO {slo}");
        }
    }

    #[test]
    fn integer_refine_never_exceeds_ceil_and_meets_predicted_slo() {
        let (mut model, bounds, w) = trained_model(9);
        let res = solve(&mut model, &w, 16.0, &bounds, &SolverConfig::default());
        let unit = 100.0;
        let ceil_counts: Vec<usize> =
            res.quotas_mc.iter().map(|q| (q / unit).ceil() as usize).collect();
        let (counts, pred) = integer_refine(&model, &w, &res.quotas_mc, &bounds, unit, 16.0);
        for i in 0..counts.len() {
            let floor = (bounds.lower[i] / unit).ceil() as usize;
            assert!(
                counts[i] <= ceil_counts[i].max(floor),
                "refine only removes: {counts:?} vs {ceil_counts:?}"
            );
            assert!(counts[i] >= floor, "never below the Algorithm-1 floor");
        }
        assert!(
            pred <= 16.0 * 1.0001 || counts == ceil_counts,
            "refined config predicted in SLO: {pred}"
        );
    }

    #[test]
    fn integer_refine_reclaims_slack_when_slo_is_loose() {
        let (model, bounds, w) = trained_model(10);
        // A deliberately over-provisioned continuous solution with a loose
        // SLO: the greedy pass must strip whole instances.
        let continuous = vec![900.0, 1900.0];
        let (counts, pred) = integer_refine(&model, &w, &continuous, &bounds, 100.0, 60.0);
        let total: usize = counts.iter().sum();
        assert!(total < 9 + 19, "instances removed: {counts:?}");
        assert!(pred <= 60.0);
    }

    #[test]
    fn loss_surface_matches_solve_objective() {
        let (model, _, w) = trained_model(8);
        let l1 = loss_at(&model, &w, &[500.0, 1500.0], 100.0, 40.0);
        let l2 = loss_at(&model, &w, &[2500.0, 2500.0], 100.0, 40.0);
        assert!(l1.is_finite() && l2.is_finite());
        // Overprovisioning beyond need raises the resource term.
        assert!(l2 > l1 || l1 > 0.0);
    }
}
