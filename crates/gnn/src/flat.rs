//! The "GRAF without MPNN" ablation model (§5.1, Figure 11).
//!
//! Identical readout capacity, but applied directly to the concatenated raw
//! node features — no message passing, no graph structure. The paper shows it
//! trains faster but generalizes worse; [`crate::MicroserviceGnn`] should
//! beat it on held-out data.

use std::cell::RefCell;

use graf_nn::{Adam, AsymmetricHuber, Matrix, Mlp, MlpGrads, MlpTrace, Mode, Workspace};
use graf_obs::Obs;
use graf_sim::rng::DetRng;

use crate::net::LatencyNet;

/// Reusable forward/backward buffers (trace, scratch pool, gradient sink).
#[derive(Default)]
struct FlatScratch {
    trace: MlpTrace,
    out: Matrix,
    dy: Matrix,
    dx: Matrix,
    ws: Workspace,
    grads: MlpGrads,
    /// Whether `trace` holds an eval forward under the current parameters.
    kept: bool,
}

/// A plain MLP over concatenated node features.
pub struct FlatMlp {
    num_nodes: usize,
    feature_dim: usize,
    mlp: Mlp,
    scratch: RefCell<FlatScratch>,
}

impl Clone for FlatMlp {
    fn clone(&self) -> Self {
        Self {
            num_nodes: self.num_nodes,
            feature_dim: self.feature_dim,
            mlp: self.mlp.clone(),
            scratch: RefCell::new(FlatScratch::default()),
        }
    }
}

impl FlatMlp {
    /// Creates the ablation model with the same readout shape as the GNN
    /// (two hidden layers of `hidden` units, dropout `dropout`).
    pub fn new(
        num_nodes: usize,
        feature_dim: usize,
        hidden: usize,
        dropout: f64,
        rng: &mut DetRng,
    ) -> Self {
        let mlp = Mlp::new(&[num_nodes * feature_dim, hidden, hidden, 1], dropout, rng);
        Self { num_nodes, feature_dim, mlp, scratch: RefCell::new(FlatScratch::default()) }
    }
}

impl FlatMlp {
    /// Eval-mode forward of `x`, retaining its trace for
    /// [`LatencyNet::grad_kept_into`].
    fn forward_eval(&self, x: &Matrix) {
        let mut sc = self.scratch.borrow_mut();
        let sc = &mut *sc;
        self.mlp.forward_into(x, &mut Mode::Eval, &mut sc.trace, &mut sc.out);
        sc.kept = true;
    }
}

impl LatencyNet for FlatMlp {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        self.forward_eval(x);
        self.scratch.borrow().out.data().to_vec()
    }

    fn predict_keep_into(&mut self, x: &Matrix, out: &mut Vec<f64>) {
        self.forward_eval(x);
        out.clear();
        out.extend_from_slice(self.scratch.get_mut().out.data());
    }

    fn grad_kept_into(&mut self, dx: &mut Matrix) {
        let sc = self.scratch.get_mut();
        assert!(sc.kept, "grad_kept_into needs a preceding eval forward");
        sc.dy.reshape_zeroed(sc.out.rows(), 1);
        sc.dy.data_mut().fill(1.0);
        self.mlp.backward_input(&sc.trace, &sc.dy, &mut sc.ws, dx, None);
    }

    fn train_step(
        &mut self,
        x: &Matrix,
        y: &[f64],
        loss: &AsymmetricHuber,
        opt: &mut Adam,
        rng: &mut DetRng,
        _obs: &Obs,
    ) -> f64 {
        assert_eq!(x.rows(), y.len(), "batch size mismatch");
        let sc = self.scratch.get_mut();
        sc.kept = false; // parameters change below: kept trace is stale
        self.mlp.forward_into(x, &mut Mode::Train(rng), &mut sc.trace, &mut sc.out);
        sc.dy.reshape_zeroed(x.rows(), 1);
        let l = loss.batch_into(sc.out.data(), y, sc.dy.data_mut());
        sc.grads.prepare(&self.mlp);
        self.mlp.backward_with(&sc.trace, &sc.dy, &mut sc.grads, &mut sc.ws, &mut sc.dx);
        self.mlp.accumulate_grads(&sc.grads);
        // Split step: no `Vec<&mut Param>` temporary on the training path.
        opt.begin_step();
        let opt = &mut *opt;
        self.mlp.for_each_param_mut(|p| opt.update(p));
        l
    }

    fn scratch_stats(&self) -> (u64, u64) {
        self.scratch.borrow().ws.stats()
    }

    fn num_params(&self) -> usize {
        self.mlp.num_params()
    }

    fn boxed_clone(&self) -> Box<dyn LatencyNet + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_prediction() {
        let mut rng = DetRng::new(1);
        let m = FlatMlp::new(3, 2, 16, 0.0, &mut rng);
        assert_eq!(m.num_nodes(), 3);
        assert_eq!(m.feature_dim(), 2);
        let x = Matrix::from_fn(4, 6, |r, c| (r + c) as f64 * 0.1);
        assert_eq!(m.predict(&x).len(), 4);
    }

    #[test]
    fn trains_on_simple_target() {
        let mut rng = DetRng::new(2);
        let mut m = FlatMlp::new(2, 2, 24, 0.0, &mut rng);
        let x = Matrix::from_fn(128, 4, |r, c| ((r * 7 + c * 3) % 13) as f64 / 13.0);
        let y: Vec<f64> = (0..128).map(|r| 1.0 + x.get(r, 0) * 2.0 + x.get(r, 3)).collect();
        let loss = AsymmetricHuber::default();
        let mut opt = Adam::new(3e-3);
        let mut train_rng = DetRng::new(3);
        let first = m.eval_loss(&x, &y, &loss);
        for _ in 0..400 {
            m.train_step(&x, &y, &loss, &mut opt, &mut train_rng, &Obs::disabled());
        }
        let last = m.eval_loss(&x, &y, &loss);
        assert!(last < first * 0.3, "{first} → {last}");
    }

    #[test]
    fn grad_input_has_input_shape() {
        let mut rng = DetRng::new(4);
        let mut m = FlatMlp::new(2, 2, 8, 0.0, &mut rng);
        let x = Matrix::from_fn(3, 4, |_, c| c as f64);
        let g = m.grad_input(&x);
        assert_eq!((g.rows(), g.cols()), (3, 4));
    }

    #[test]
    fn kept_trace_gradient_matches_fresh_gradient() {
        let mut rng = DetRng::new(5);
        let mut m = FlatMlp::new(2, 2, 8, 0.0, &mut rng);
        let x = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f64 * 0.1);
        let slow = m.grad_input(&x);
        let _ = m.predict(&x);
        let mut fast = Matrix::default();
        m.grad_kept_into(&mut fast);
        assert_eq!(slow.data(), fast.data());
    }
}
