//! Fully connected layers and MLP stacks.
//!
//! Each layer's forward math is written exactly once, generic over the
//! [`Exec`] execution context: instantiated with a [`Tape`](uae_tensor::Tape)
//! it records autodiff nodes for training, instantiated with
//! [`ValueExec`](uae_tensor::ValueExec) the same code evaluates tape-free on
//! [`Matrix`](uae_tensor::Matrix) values. Both engines dispatch through the
//! same kernels, so the two paths are bit-identical by construction.

use uae_tensor::{ActKind, Exec, Init, Params};

/// Activation applied between (or after) linear layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (logits out).
    None,
    Relu,
    Tanh,
    Sigmoid,
}

impl Activation {
    /// Applies the activation in the given execution context.
    pub fn apply<E: Exec>(self, exec: &mut E, x: E::V) -> E::V {
        match self {
            Activation::None => x,
            Activation::Relu => exec.relu(&x),
            Activation::Tanh => exec.tanh(&x),
            Activation::Sigmoid => exec.sigmoid(&x),
        }
    }

    /// The engine-level selector for the fused [`Exec::linear_act`] op.
    pub fn kind(self) -> ActKind {
        match self {
            Activation::None => ActKind::None,
            Activation::Relu => ActKind::Relu,
            Activation::Tanh => ActKind::Tanh,
            Activation::Sigmoid => ActKind::Sigmoid,
        }
    }
}

/// A dense layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: uae_tensor::ParamId,
    b: uae_tensor::ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a new layer's parameters in `params`, with Xavier
    /// initialisation.
    pub fn new(name: &str, in_dim: usize, out_dim: usize, params: &mut Params) -> Self {
        Linear::with_init(name, in_dim, out_dim, Init::XavierUniform, params)
    }

    /// As [`Linear::new`] but with He initialisation (use before ReLU).
    pub fn new_he(name: &str, in_dim: usize, out_dim: usize, params: &mut Params) -> Self {
        Linear::with_init(name, in_dim, out_dim, Init::HeNormal, params)
    }

    fn with_init(name: &str, in_dim: usize, out_dim: usize, w: Init, params: &mut Params) -> Self {
        Linear {
            w: params.register(format!("{name}.w"), in_dim, out_dim, w),
            b: params.register(format!("{name}.b"), 1, out_dim, Init::Zeros),
            in_dim,
            out_dim,
        }
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Pushes `W` and `b` into the context once, for repeated
    /// [`Linear::forward_with`] calls (per-timestep layer applications would
    /// otherwise snapshot both matrices every step).
    pub fn param_vars<E: Exec>(&self, exec: &mut E, params: &Params) -> LinearVars<E::V> {
        LinearVars {
            w: exec.param(params, self.w),
            b: exec.param(params, self.b),
        }
    }

    /// `x·W + b` for a `batch × in_dim` input (fused single-kernel op).
    pub fn forward<E: Exec>(&self, exec: &mut E, params: &Params, x: &E::V) -> E::V {
        let vars = self.param_vars(exec, params);
        self.forward_with(exec, &vars, x)
    }

    /// As [`Linear::forward`] against pre-pushed parameter handles.
    pub fn forward_with<E: Exec>(&self, exec: &mut E, vars: &LinearVars<E::V>, x: &E::V) -> E::V {
        exec.linear(x, &vars.w, &vars.b)
    }
}

/// Context handles for a [`Linear`]'s parameters, pushed once by
/// [`Linear::param_vars`].
#[derive(Debug, Clone)]
pub struct LinearVars<V> {
    w: V,
    b: V,
}

/// A multi-layer perceptron with a hidden activation and a final activation.
///
/// The paper's implementation detail fixes hidden layers at `(256, 128, 64)`;
/// the harness scales these down proportionally with dataset size.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl Mlp {
    /// Builds an MLP mapping `in_dim` through `hidden` to `out_dim`.
    pub fn new(
        name: &str,
        in_dim: usize,
        hidden: &[usize],
        out_dim: usize,
        hidden_activation: Activation,
        output_activation: Activation,
        params: &mut Params,
    ) -> Self {
        let mut layers = Vec::with_capacity(hidden.len() + 1);
        let mut prev = in_dim;
        for (i, &h) in hidden.iter().enumerate() {
            let layer = if hidden_activation == Activation::Relu {
                Linear::new_he(&format!("{name}.{i}"), prev, h, params)
            } else {
                Linear::new(&format!("{name}.{i}"), prev, h, params)
            };
            layers.push(layer);
            prev = h;
        }
        layers.push(Linear::new(&format!("{name}.out"), prev, out_dim, params));
        Mlp {
            layers,
            hidden_activation,
            output_activation,
        }
    }

    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("MLP has layers").out_dim()
    }

    fn activation_at(&self, i: usize, last: usize) -> Activation {
        if i < last {
            self.hidden_activation
        } else {
            self.output_activation
        }
    }

    /// Pushes every layer's parameters into the context once, for repeated
    /// [`Mlp::forward_with`] calls.
    pub fn param_vars<E: Exec>(&self, exec: &mut E, params: &Params) -> MlpVars<E::V> {
        MlpVars {
            layers: self
                .layers
                .iter()
                .map(|l| l.param_vars(exec, params))
                .collect(),
        }
    }

    /// Forward pass in the given execution context.
    pub fn forward<E: Exec>(&self, exec: &mut E, params: &Params, x: &E::V) -> E::V {
        let vars = self.param_vars(exec, params);
        self.forward_with(exec, &vars, x)
    }

    /// As [`Mlp::forward`] against pre-pushed parameter handles. Each layer
    /// runs the fusable [`Exec::linear_act`] composite, so a fusing engine
    /// applies the activation in the GEMM output pass.
    pub fn forward_with<E: Exec>(&self, exec: &mut E, vars: &MlpVars<E::V>, x: &E::V) -> E::V {
        let last = self.layers.len() - 1;
        let mut h = exec.linear_act(
            x,
            &vars.layers[0].w,
            &vars.layers[0].b,
            self.activation_at(0, last).kind(),
        );
        for (i, lv) in vars.layers.iter().enumerate().skip(1) {
            h = exec.linear_act(&h, &lv.w, &lv.b, self.activation_at(i, last).kind());
        }
        h
    }
}

/// Context handles for an [`Mlp`]'s parameters, pushed once by
/// [`Mlp::param_vars`].
#[derive(Debug, Clone)]
pub struct MlpVars<V> {
    layers: Vec<LinearVars<V>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_tensor::gradcheck::check_params;
    use uae_tensor::{Matrix, Params, Rng, Tape};

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut rng = Rng::seed_from_u64(1);
        let mut params = Params::new();
        let lin = Linear::new("l", 3, 2, &mut params);
        params.init(&mut rng);
        assert_eq!((lin.in_dim(), lin.out_dim()), (3, 2));
        // Set a recognisable bias.
        let b = params.ids().nth(1).unwrap();
        params
            .value_mut(b)
            .data_mut()
            .copy_from_slice(&[10.0, 20.0]);
        let mut tape = Tape::new();
        let x = tape.input(Matrix::zeros(4, 3));
        let y = lin.forward(&mut tape, &params, &x);
        assert_eq!(tape.value(y).shape(), (4, 2));
        // x = 0 ⇒ output = bias broadcast.
        for r in 0..4 {
            assert_eq!(tape.value(y).row(r), &[10.0, 20.0]);
        }
    }

    #[test]
    fn mlp_shapes_compose() {
        let mut rng = Rng::seed_from_u64(2);
        let mut params = Params::new();
        let mlp = Mlp::new(
            "m",
            5,
            &[8, 4],
            1,
            Activation::Relu,
            Activation::None,
            &mut params,
        );
        params.init(&mut rng);
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 1);
        let mut tape = Tape::new();
        let x = tape.input(Matrix::randn(7, 5, 1.0, &mut rng));
        let y = mlp.forward(&mut tape, &params, &x);
        assert_eq!(tape.value(y).shape(), (7, 1));
    }

    #[test]
    fn mlp_gradients_check_numerically() {
        let mut rng = Rng::seed_from_u64(3);
        let mut params = Params::new();
        let mlp = Mlp::new(
            "m",
            3,
            &[4],
            1,
            Activation::Tanh,
            Activation::None,
            &mut params,
        );
        params.init(&mut rng);
        let x = Matrix::randn(6, 3, 0.8, &mut rng);
        let pos: Vec<f32> = (0..6).map(|i| (i % 2) as f32).collect();
        let neg: Vec<f32> = pos.iter().map(|p| 1.0 - p).collect();
        let check = check_params(&mut params, 5e-3, |tape, params| {
            let xv = tape.input(x.clone());
            let z = mlp.forward(tape, params, &xv);
            tape.weighted_bce(z, &pos, &neg, 6.0, false)
        });
        assert!(check.passes(3e-2), "max_rel_err={}", check.max_rel_err);
    }

    #[test]
    fn sigmoid_output_activation_bounds_output() {
        let mut rng = Rng::seed_from_u64(4);
        let mut params = Params::new();
        let mlp = Mlp::new(
            "m",
            2,
            &[],
            1,
            Activation::Relu,
            Activation::Sigmoid,
            &mut params,
        );
        params.init(&mut rng);
        let mut tape = Tape::new();
        let x = tape.input(Matrix::randn(10, 2, 5.0, &mut rng));
        let y = mlp.forward(&mut tape, &params, &x);
        assert!(tape
            .value(y)
            .data()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }
}
