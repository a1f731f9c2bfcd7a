//! First-order optimizers over a [`Params`] arena.
//!
//! The paper trains everything with Adam (Kingma & Ba, 2015); plain SGD is
//! provided for tests and ablations.

use uae_tensor::{Matrix, Params};

/// A gradient-descent optimizer stepping a whole [`Params`] arena.
pub trait Optimizer {
    /// Applies one update from the gradients currently in `params` and then
    /// leaves the gradients untouched (callers usually `zero_grads()` next).
    fn step(&mut self, params: &mut Params);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (for schedules or sweeps).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional classical momentum.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Matrix>,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    fn ensure_state(&mut self, params: &Params) {
        if self.velocity.len() != params.count() {
            self.velocity = params
                .ids()
                .map(|id| {
                    let (rows, cols) = params.shape(id);
                    Matrix::zeros(rows, cols)
                })
                .collect();
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut Params) {
        self.ensure_state(params);
        for id in params.ids().collect::<Vec<_>>() {
            if self.momentum > 0.0 {
                let (value, grad) = params.value_and_grad_mut(id);
                let vel = &mut self.velocity[id.index()];
                vel.scale_in_place(self.momentum);
                vel.add_scaled(grad, 1.0);
                value.add_scaled(vel, -self.lr);
            } else {
                let (value, grad) = params.value_and_grad_mut(id);
                value.add_scaled(grad, -self.lr);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam with bias correction (the paper's optimizer).
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

/// Complete serialisable state of an [`Adam`] optimizer.
///
/// Checkpointing a training run must capture the first/second moments and
/// the step counter alongside the parameters: resuming with fresh moments
/// is *not* bit-identical to an uninterrupted run (the bias correction and
/// effective step size differ for several epochs).
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    pub lr: f32,
    pub t: u64,
    /// First-moment estimates, one per parameter in arena order.
    pub m: Vec<Matrix>,
    /// Second-moment estimates, one per parameter in arena order.
    pub v: Vec<Matrix>,
}

impl Adam {
    /// Adam with the standard hyper-parameters (β₁ = 0.9, β₂ = 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    fn ensure_state(&mut self, params: &Params) {
        if self.m.len() != params.count() {
            let zeros = |params: &Params| {
                params
                    .ids()
                    .map(|id| {
                        let (rows, cols) = params.shape(id);
                        Matrix::zeros(rows, cols)
                    })
                    .collect::<Vec<_>>()
            };
            self.m = zeros(params);
            self.v = zeros(params);
        }
    }

    /// Snapshots the full optimizer state (for checkpointing).
    pub fn snapshot(&self) -> AdamState {
        AdamState {
            lr: self.lr,
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores a snapshotted state; the next `step` continues the original
    /// moment/bias-correction trajectory exactly.
    pub fn restore(&mut self, state: AdamState) {
        self.lr = state.lr;
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut Params) {
        self.ensure_state(params);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for id in params.ids().collect::<Vec<_>>() {
            let i = id.index();
            let (value, g) = params.value_and_grad_mut(id);
            let m = &mut self.m[i];
            m.scale_in_place(self.beta1);
            m.add_scaled(g, 1.0 - self.beta1);
            let v = &mut self.v[i];
            v.scale_in_place(self.beta2);
            for (vj, gj) in v.data_mut().iter_mut().zip(g.data()) {
                *vj += (1.0 - self.beta2) * gj * gj;
            }
            let lr = self.lr;
            let eps = self.eps;
            for ((p, &mj), &vj) in value
                .data_mut()
                .iter_mut()
                .zip(self.m[i].data())
                .zip(self.v[i].data())
            {
                let m_hat = mj / bc1;
                let v_hat = vj / bc2;
                *p -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_tensor::{Rng, Tape};

    /// Fits y = σ(w·x) to a linearly separable toy problem and checks the
    /// loss strictly decreases and reaches a low value.
    fn fit_logistic(opt: &mut dyn Optimizer, steps: usize) -> (f32, f32) {
        let mut rng = Rng::seed_from_u64(10);
        let mut params = Params::new();
        let w = params.add("w", Matrix::randn(2, 1, 0.1, &mut rng));
        let x = Matrix::from_vec(4, 2, vec![1., 0., 0., 1., -1., 0., 0., -1.]);
        let pos = [1.0f32, 1.0, 0.0, 0.0];
        let neg = [0.0f32, 0.0, 1.0, 1.0];
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..steps {
            let mut tape = Tape::new();
            let xv = tape.input(x.clone());
            let wv = tape.param(&params, w);
            let z = tape.matmul(xv, wv);
            let loss = tape.weighted_bce(z, &pos, &neg, 4.0, false);
            last = tape.value(loss).item();
            if step == 0 {
                first = last;
            }
            params.zero_grads();
            tape.backward(loss, &mut params);
            opt.step(&mut params);
        }
        (first, last)
    }

    #[test]
    fn sgd_decreases_loss() {
        let mut opt = Sgd::new(0.5);
        let (first, last) = fit_logistic(&mut opt, 200);
        assert!(last < first * 0.5, "first={first} last={last}");
        assert!(last < 0.2, "last={last}");
    }

    #[test]
    fn sgd_momentum_decreases_loss() {
        let mut opt = Sgd::with_momentum(0.1, 0.9);
        let (first, last) = fit_logistic(&mut opt, 200);
        assert!(
            last < first * 0.5 && last < 0.2,
            "first={first} last={last}"
        );
    }

    #[test]
    fn adam_decreases_loss_fast() {
        let mut opt = Adam::new(0.1);
        let (first, last) = fit_logistic(&mut opt, 100);
        assert!(last < first * 0.2, "first={first} last={last}");
        assert!(last < 0.1, "last={last}");
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
    }

    #[test]
    fn adam_snapshot_restore_continues_bit_identically() {
        let run = |split: Option<usize>| -> Vec<f32> {
            let mut rng = Rng::seed_from_u64(3);
            let mut params = Params::new();
            let w = params.add("w", Matrix::randn(2, 2, 1.0, &mut rng));
            let mut opt = Adam::new(0.05);
            for step in 0..8 {
                if split == Some(step) {
                    // Tear the optimizer down and rebuild it from a snapshot.
                    let state = opt.snapshot();
                    opt = Adam::new(123.0); // wrong lr, must be overwritten
                    opt.restore(state);
                }
                for (i, g) in params.grad_mut(w).data_mut().iter_mut().enumerate() {
                    *g = (step as f32 + 1.0) * (i as f32 - 1.5);
                }
                opt.step(&mut params);
            }
            params.value(w).data().to_vec()
        };
        let straight = run(None);
        let resumed = run(Some(4));
        for (a, b) in straight.iter().zip(&resumed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn adam_handles_param_arena_growth_gracefully() {
        // State is rebuilt if the arena changes size between steps.
        let mut rng = Rng::seed_from_u64(1);
        let mut params = Params::new();
        let a = params.add("a", Matrix::randn(1, 1, 1.0, &mut rng));
        let mut opt = Adam::new(0.1);
        params.grad_mut(a).data_mut()[0] = 1.0;
        opt.step(&mut params);
        let _b = params.add("b", Matrix::randn(2, 2, 1.0, &mut rng));
        params.zero_grads();
        opt.step(&mut params); // must not panic
    }
}
