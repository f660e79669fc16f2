//! The common interface of latency-prediction networks.

use graf_nn::{Adam, AsymmetricHuber, Matrix};
use graf_obs::Obs;
use graf_sim::rng::DetRng;

/// A network mapping per-service `(workload, quota)` features to predicted
/// end-to-end tail latency.
///
/// Input format: one row per sample, `num_nodes × feature_dim` columns in
/// node-major order (node 0's features first).
pub trait LatencyNet {
    /// Number of graph nodes (microservices).
    fn num_nodes(&self) -> usize;

    /// Features per node (2 in the paper: workload, quota).
    fn feature_dim(&self) -> usize;

    /// Predicts latency for a batch (eval mode, dropout off).
    ///
    /// Like every eval forward it retains its trace, which a following
    /// [`LatencyNet::grad_kept_into`] back-propagates.
    fn predict(&self, x: &Matrix) -> Vec<f64>;

    /// [`LatencyNet::predict`] writing the predictions into `out` (cleared
    /// and refilled, capacity reused), so the solver's per-iteration forward
    /// is allocation-free in steady state.
    fn predict_keep_into(&mut self, x: &Matrix, out: &mut Vec<f64>);

    /// Gradient of the summed prediction with respect to the input features
    /// of the latest eval forward, written into `dx` (reshaped to that
    /// batch's shape). It reuses the retained trace and computes no
    /// parameter gradient: one forward plus this is the solver's fused
    /// predict-and-differentiate step (§3.5).
    ///
    /// # Panics
    /// Panics if no eval forward ran since construction or the last
    /// [`LatencyNet::train_step`].
    fn grad_kept_into(&mut self, dx: &mut Matrix);

    /// One training step: forward in train mode, asymmetric-Hüber loss,
    /// backward, Adam update. Returns the batch loss.
    ///
    /// Instrumented implementations attribute the step's wall time to
    /// phases of `obs` (`train.forward_backward`, `train.reduce`,
    /// `train.optimizer`); others ignore it. Instrumentation never alters
    /// numerics: a disabled handle costs one branch per scope.
    fn train_step(
        &mut self,
        x: &Matrix,
        y: &[f64],
        loss: &AsymmetricHuber,
        opt: &mut Adam,
        rng: &mut DetRng,
        obs: &Obs,
    ) -> f64;

    /// Evaluation loss without updating parameters.
    fn eval_loss(&self, x: &Matrix, y: &[f64], loss: &AsymmetricHuber) -> f64 {
        let pred = self.predict(x);
        loss.batch(&pred, y).0
    }

    /// Gradient of the summed prediction with respect to `x` (eval mode),
    /// shaped like `x`: a fresh forward plus [`LatencyNet::grad_kept_into`].
    /// Allocating convenience wrapper.
    fn grad_input(&mut self, x: &Matrix) -> Matrix {
        let mut pred = Vec::new();
        self.predict_keep_into(x, &mut pred);
        let mut dx = Matrix::default();
        self.grad_kept_into(&mut dx);
        dx
    }

    /// Sets the worker-thread count used by [`LatencyNet::train_step`].
    /// Implementations without a parallel path ignore it.
    fn set_threads(&mut self, _threads: usize) {}

    /// `(reused, allocated)` scratch-buffer counts since construction, for
    /// telemetry (allocation-avoidance counters). Default: zeros.
    fn scratch_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Total scalar parameter count.
    fn num_params(&self) -> usize;

    /// Clones the network behind the trait object (used to snapshot the
    /// best-validation checkpoint during training, §3.4).
    fn boxed_clone(&self) -> Box<dyn LatencyNet + Send>;
}
