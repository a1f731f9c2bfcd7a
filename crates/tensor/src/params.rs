//! Trainable parameter storage.
//!
//! A [`Params`] arena separates a model's *structure* from its *values*.
//! Layer constructors [`register`](Params::register) each parameter's name,
//! shape and [`Init`] scheme and draw nothing. The values then come from
//! one of two places: [`Params::init`] draws them in registration order for
//! training, and [`Params::bind`] points them at stored weights (a served
//! `.uaem` arena) without drawing or copying.
//!
//! Gradient buffers exist only once training needs them: the first
//! `Tape::backward`, [`Params::zero_grads`] or optimizer step allocates
//! them, so a served arena holds names, shapes and values only. The
//! autodiff tape references parameters by [`ParamId`]; `Tape::backward`
//! accumulates into the gradients, and the optimizers in `uae-nn` update
//! the values from them.

use crate::matrix::Matrix;
use crate::rng::Rng;

/// Opaque handle to one parameter matrix inside a [`Params`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The arena index (useful for optimizer state keyed by parameter).
    pub fn index(self) -> usize {
        self.0
    }
}

/// How [`Params::init`] draws a registered parameter's initial values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Init {
    /// All zeros (biases); draws nothing.
    Zeros,
    /// Xavier/Glorot uniform `U(±√(6/(rows+cols)))`: the default for
    /// sigmoid/tanh-heavy nets (GRUs, output heads).
    XavierUniform,
    /// He/Kaiming normal `N(0, √(2/rows))`: for ReLU MLP stacks.
    HeNormal,
    /// `N(0, 0.05)`: embedding tables (the paper uses dim-8 embeddings; CTR
    /// practice initialises them near zero).
    Embedding,
}

impl Init {
    /// A `rows × cols` matrix drawn from this scheme, sequentially from
    /// `rng`.
    fn draw(self, rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
        match self {
            Init::Zeros => Matrix::zeros(rows, cols),
            Init::XavierUniform => {
                Matrix::rand_uniform(rows, cols, (6.0 / (rows + cols) as f32).sqrt(), rng)
            }
            Init::HeNormal => Matrix::randn(rows, cols, (2.0 / rows as f32).sqrt(), rng),
            Init::Embedding => Matrix::randn(rows, cols, 0.05, rng),
        }
    }
}

/// One registered parameter: what [`Params::init`] and [`Params::bind`]
/// need to give it a value.
#[derive(Debug, Clone)]
struct Spec {
    name: String,
    rows: usize,
    cols: usize,
    init: Init,
}

/// An arena of named trainable parameters.
///
/// `values` covers a prefix of `specs`: the parameters registered since
/// the last [`Params::init`] or [`Params::bind`] have no value yet.
#[derive(Debug, Clone, Default)]
pub struct Params {
    specs: Vec<Spec>,
    values: Vec<Matrix>,
    /// Empty until training first needs gradients; then one per value.
    grads: Vec<Matrix>,
}

impl Params {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with a given value and returns its handle.
    /// Every earlier registration must already have its value.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        assert_eq!(
            self.values.len(),
            self.specs.len(),
            "Params::add after a register without init/bind"
        );
        let id = self.register(name, value.rows(), value.cols(), Init::Zeros);
        self.values.push(value);
        id
    }

    /// Registers a parameter's name, shape and init scheme, and returns its
    /// handle. It has no value until [`Params::init`] or [`Params::bind`].
    pub fn register(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        init: Init,
    ) -> ParamId {
        self.specs.push(Spec {
            name: name.into(),
            rows,
            cols,
            init,
        });
        ParamId(self.specs.len() - 1)
    }

    /// Draws the value of every parameter registered without one, in
    /// registration order, from its [`Init`] scheme.
    pub fn init(&mut self, rng: &mut Rng) {
        for s in &self.specs[self.values.len()..] {
            self.values.push(s.init.draw(s.rows, s.cols, rng));
        }
    }

    /// Gives every parameter of a freshly registered arena the value
    /// `value(id)` returns, in registration order, stopping at the first
    /// error. Nothing is drawn: serving points the values at stored weights.
    /// Each value must have its parameter's registered shape.
    pub fn bind<E>(
        &mut self,
        mut value: impl FnMut(ParamId) -> Result<Matrix, E>,
    ) -> Result<(), E> {
        assert!(
            self.values.is_empty(),
            "Params::bind on an arena with values"
        );
        for i in 0..self.specs.len() {
            let m = value(ParamId(i))?;
            assert_eq!(m.shape(), self.shape(ParamId(i)), "bound value shape");
            self.values.push(m);
        }
        Ok(())
    }

    /// Number of registered parameter matrices.
    pub fn count(&self) -> usize {
        self.specs.len()
    }

    /// Total number of trainable scalars.
    pub fn num_scalars(&self) -> usize {
        self.specs.iter().map(|s| s.rows * s.cols).sum()
    }

    /// The registered `(rows, cols)` of a parameter.
    pub fn shape(&self, id: ParamId) -> (usize, usize) {
        let s = &self.specs[id.0];
        (s.rows, s.cols)
    }

    /// The current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        self.values
            .get(id.0)
            .expect("parameter has no value: call Params::init or Params::bind")
    }

    /// Mutable access to the value (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        self.values
            .get_mut(id.0)
            .expect("parameter has no value: call Params::init or Params::bind")
    }

    /// Freezes every parameter value into a shared, read-only region (see
    /// [`Matrix::freeze`]): the clones handed out by the tape-free engine's
    /// `param` become O(1) handle copies instead of per-batch memcpys, as
    /// they already are for values bound to a `.uaem` arena. Training after
    /// freezing still works — mutation copies-on-write.
    pub fn freeze(&mut self) {
        for v in &mut self.values {
            v.freeze();
        }
    }

    /// One gradient buffer per value, allocated as zeros on first use.
    fn grads_mut(&mut self) -> &mut [Matrix] {
        let have = self.grads.len();
        self.grads.extend(
            self.values[have..]
                .iter()
                .map(|v| Matrix::zeros(v.rows(), v.cols())),
        );
        &mut self.grads
    }

    /// The accumulated gradient of a parameter. Gradients exist once a
    /// backward pass, [`Params::zero_grads`] or an optimizer step has run.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        self.grads
            .get(id.0)
            .expect("no gradient yet: run a backward pass or zero_grads first")
    }

    /// Mutable access to the gradient buffer (allocated on first use).
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.grads_mut()[id.0]
    }

    /// The name given at registration.
    pub fn name(&self, id: ParamId) -> &str {
        &self.specs[id.0].name
    }

    /// All parameter handles, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.specs.len()).map(ParamId)
    }

    /// Zeroes every gradient buffer (call before each backward pass).
    pub fn zero_grads(&mut self) {
        for g in self.grads_mut() {
            g.fill_zero();
        }
    }

    /// Simultaneous access to one parameter's value and gradient.
    pub fn value_and_grad_mut(&mut self, id: ParamId) -> (&mut Matrix, &Matrix) {
        self.grads_mut();
        // Split borrows across the two vectors.
        (&mut self.values[id.0], &self.grads[id.0])
    }

    /// Global L2 norm of all gradients (0 before any exist).
    pub fn grad_norm(&self) -> f32 {
        self.grads
            .iter()
            .map(Matrix::squared_norm)
            .sum::<f32>()
            .sqrt()
    }

    /// True when every parameter value is finite (no NaN / ±∞) — the
    /// integrity gate the fault-tolerant runtime applies before accepting a
    /// checkpoint and after every optimizer step.
    pub fn values_all_finite(&self) -> bool {
        self.values
            .iter()
            .all(|m| m.data().iter().all(|x| x.is_finite()))
    }

    /// True when every accumulated gradient entry is finite.
    pub fn grads_all_finite(&self) -> bool {
        self.grads
            .iter()
            .all(|m| m.data().iter().all(|x| x.is_finite()))
    }

    /// Scales all gradients so their global norm is at most `max_norm`.
    ///
    /// Returns the pre-clipping norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for g in &mut self.grads {
                g.scale_in_place(scale);
            }
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut p = Params::new();
        let a = p.add("w", Matrix::filled(2, 3, 1.0));
        let b = p.add("b", Matrix::zeros(1, 3));
        assert_eq!(p.count(), 2);
        assert_eq!(p.num_scalars(), 9);
        assert_eq!(p.name(a), "w");
        assert_eq!(p.value(b).shape(), (1, 3));
    }

    #[test]
    fn register_then_init_draws_in_registration_order() {
        let mut p = Params::new();
        let w = p.register("w", 3, 2, Init::XavierUniform);
        let b = p.register("b", 1, 2, Init::Zeros);
        let e = p.register("e", 4, 2, Init::Embedding);
        assert_eq!((p.count(), p.num_scalars()), (3, 16));
        assert_eq!(p.shape(e), (4, 2));
        p.init(&mut Rng::seed_from_u64(1));
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(p.value(w), &Init::XavierUniform.draw(3, 2, &mut rng));
        assert_eq!(p.value(b), &Matrix::zeros(1, 2));
        assert_eq!(p.value(e), &Init::Embedding.draw(4, 2, &mut rng));
    }

    #[test]
    fn bind_draws_nothing_and_gradients_wait_for_training() {
        let mut p = Params::new();
        let w = p.register("w", 1, 2, Init::HeNormal);
        p.bind(|_| Ok::<_, ()>(Matrix::from_vec(1, 2, vec![7.0, 8.0])))
            .unwrap();
        assert_eq!(p.value(w).data(), &[7.0, 8.0]);
        assert!(p.grads.is_empty(), "a bound arena must hold no gradients");
        assert_eq!(p.grad_norm(), 0.0);
        p.zero_grads();
        assert_eq!(p.grad(w).shape(), (1, 2));
    }

    #[test]
    fn xavier_respects_limit() {
        let m = Init::XavierUniform.draw(50, 70, &mut Rng::seed_from_u64(1));
        let limit = (6.0 / 120.0f32).sqrt();
        assert!(m.data().iter().all(|&x| x.abs() <= limit));
        // Not degenerate.
        assert!(m.squared_norm() > 0.0);
    }

    #[test]
    fn he_normal_std_tracks_fan_in() {
        let m = Init::HeNormal.draw(200, 200, &mut Rng::seed_from_u64(2));
        let std = (m.squared_norm() / m.len() as f32).sqrt();
        let expect = (2.0f32 / 200.0).sqrt();
        assert!((std - expect).abs() < 0.02 * expect.max(0.05));
    }

    #[test]
    fn embedding_init_is_small() {
        let m = Init::Embedding.draw(100, 8, &mut Rng::seed_from_u64(3));
        let std = (m.squared_norm() / m.len() as f32).sqrt();
        assert!(std < 0.1);
    }

    #[test]
    fn zero_grads_resets() {
        let mut p = Params::new();
        let a = p.add("w", Matrix::zeros(1, 2));
        p.grad_mut(a).data_mut()[0] = 5.0;
        p.zero_grads();
        assert_eq!(p.grad(a).data(), &[0.0, 0.0]);
    }

    #[test]
    fn clip_grad_norm_scales_down_only_when_needed() {
        let mut p = Params::new();
        let a = p.add("w", Matrix::zeros(1, 2));
        p.grad_mut(a).data_mut().copy_from_slice(&[3.0, 4.0]);
        let norm = p.clip_grad_norm(10.0);
        assert!((norm - 5.0).abs() < 1e-6);
        assert_eq!(p.grad(a).data(), &[3.0, 4.0]);
        let norm = p.clip_grad_norm(1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let clipped = p.grad(a).data();
        assert!((clipped[0] - 0.6).abs() < 1e-6);
        assert!((clipped[1] - 0.8).abs() < 1e-6);
    }
}
