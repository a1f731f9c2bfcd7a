//! # uae-nn
//!
//! Neural-network building blocks over the [`uae_tensor`] autodiff tape:
//! exactly the layers needed by the paper's models.
//!
//! * [`linear::Linear`] / [`linear::Mlp`] — dense stacks (all models).
//! * [`embedding::FieldEmbeddings`] — per-field categorical embeddings.
//! * [`hashed::HashedEmbedding`] / [`hashed::EmbeddingBank`] — bucketed
//!   multi-hash embeddings for high-cardinality fields, switchable per model.
//! * [`gru::GruCell`] — the sequence encoder of both UAE networks.
//! * [`attention::InteractingLayer`] — AutoInt's field self-attention.
//! * [`cross::CrossLayerV1`] / [`cross::CrossLayerV2`] — DCN / DCN-V2.
//! * [`optim::Adam`] / [`optim::Sgd`] — optimizers.
//!
//! Every constructor registers its parameters' names, shapes and
//! [`Init`](uae_tensor::Init) schemes and draws nothing; `Params::init`
//! draws the values for training and `Params::bind` points them at stored
//! weights for serving.

pub mod attention;
pub mod cross;
pub mod embedding;
pub mod gru;
pub mod hashed;
pub mod linear;
pub mod optim;

pub use attention::InteractingLayer;
pub use cross::{CrossLayerV1, CrossLayerV2};
pub use embedding::FieldEmbeddings;
pub use gru::GruCell;
pub use hashed::{mix64, EmbeddingBank, HashConfig, HashedEmbedding, DEFAULT_HASH_SEED};
pub use linear::{Activation, Linear, LinearVars, Mlp, MlpVars};
pub use optim::{Adam, AdamState, Optimizer, Sgd};
