//! Factorization Machines (Rendle, ICDM 2010) and DeepFM (Guo et al., IJCAI
//! 2017).

use uae_data::{FeatureSchema, FlatBatch};
use uae_nn::{Activation, Mlp};
use uae_tensor::{Exec, Params};

use crate::encoder::{Encoder, LinearTerm};
use crate::recommender::{ModelConfig, RecommenderForward};

/// Second-order FM interaction over per-field embeddings:
/// `0.5 · Σ_k [(Σ_f v_fk)² − Σ_f v_fk²]`, returned as `batch × 1`.
pub(crate) fn fm_second_order<E: Exec>(exec: &mut E, fields: &[E::V]) -> E::V {
    assert!(!fields.is_empty());
    // Σ_f e_f and Σ_f e_f².
    let mut sum = fields[0].clone();
    let mut sum_sq = exec.square(&fields[0]);
    for f in &fields[1..] {
        sum = exec.add(&sum, f);
        let sq = exec.square(f);
        sum_sq = exec.add(&sum_sq, &sq);
    }
    let sq_sum = exec.square(&sum);
    let diff = exec.sub(&sq_sum, &sum_sq);
    let rs = exec.row_sum(&diff);
    exec.scale(&rs, 0.5)
}

/// Plain factorization machine: global bias + first-order terms + pairwise
/// embedding interactions.
pub struct Fm {
    linear: LinearTerm,
    encoder: Encoder,
}

impl Fm {
    pub fn new(schema: &FeatureSchema, config: &ModelConfig, params: &mut Params) -> Self {
        Fm {
            linear: LinearTerm::new("fm.lin", schema, config.hash_spec(), params),
            encoder: Encoder::new(
                "fm.emb",
                schema,
                config.embed_dim,
                config.hash_spec(),
                params,
            ),
        }
    }
}

impl RecommenderForward for Fm {
    fn name(&self) -> &'static str {
        "FM"
    }

    fn forward_exec<E: Exec>(&self, exec: &mut E, params: &Params, batch: &FlatBatch) -> E::V {
        let lin = self.linear.forward(exec, params, batch);
        let enc = self.encoder.encode(exec, params, batch);
        let second = fm_second_order(exec, &enc.fields);
        exec.add(&lin, &second)
    }
}

/// DeepFM: the FM above plus a deep MLP over the shared embeddings.
pub struct DeepFm {
    linear: LinearTerm,
    encoder: Encoder,
    deep: Mlp,
}

impl DeepFm {
    pub fn new(schema: &FeatureSchema, config: &ModelConfig, params: &mut Params) -> Self {
        let encoder = Encoder::new(
            "deepfm.emb",
            schema,
            config.embed_dim,
            config.hash_spec(),
            params,
        );
        let deep = Mlp::new(
            "deepfm.deep",
            encoder.full_dim(),
            &config.hidden,
            1,
            Activation::Relu,
            Activation::None,
            params,
        );
        DeepFm {
            linear: LinearTerm::new("deepfm.lin", schema, config.hash_spec(), params),
            encoder,
            deep,
        }
    }
}

impl RecommenderForward for DeepFm {
    fn name(&self) -> &'static str {
        "DeepFM"
    }

    fn forward_exec<E: Exec>(&self, exec: &mut E, params: &Params, batch: &FlatBatch) -> E::V {
        let lin = self.linear.forward(exec, params, batch);
        let enc = self.encoder.encode(exec, params, batch);
        let second = fm_second_order(exec, &enc.fields);
        let deep = self.deep.forward(exec, params, &enc.full);
        let fm = exec.add(&lin, &second);
        exec.add(&fm, &deep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_tensor::{Matrix, Tape};

    #[test]
    fn second_order_matches_manual_pairwise_sum() {
        // Two samples, three fields, k = 2.
        let mut tape = Tape::new();
        let f0 = tape.input(Matrix::from_vec(2, 2, vec![1., 2., 0.5, -1.]));
        let f1 = tape.input(Matrix::from_vec(2, 2, vec![3., -1., 2., 0.]));
        let f2 = tape.input(Matrix::from_vec(2, 2, vec![0., 1., 1., 1.]));
        let out = fm_second_order(&mut tape, &[f0, f1, f2]);
        // Manual: Σ_{i<j} <v_i, v_j> per sample.
        let vals = [
            [[1.0f32, 2.0], [3.0, -1.0], [0.0, 1.0]],
            [[0.5, -1.0], [2.0, 0.0], [1.0, 1.0]],
        ];
        for (s, v) in vals.iter().enumerate() {
            let mut expect = 0.0;
            for i in 0..3 {
                for j in (i + 1)..3 {
                    expect += v[i][0] * v[j][0] + v[i][1] * v[j][1];
                }
            }
            assert!(
                (tape.value(out).get(s, 0) - expect).abs() < 1e-5,
                "sample {s}: got {} want {expect}",
                tape.value(out).get(s, 0)
            );
        }
    }

    #[test]
    fn second_order_single_field_is_zero() {
        let mut tape = Tape::new();
        let f0 = tape.input(Matrix::from_vec(1, 3, vec![1., -2., 3.]));
        let out = fm_second_order(&mut tape, &[f0]);
        assert!(tape.value(out).item().abs() < 1e-6);
    }
}
