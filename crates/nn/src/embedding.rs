//! Per-field embedding tables for categorical features.
//!
//! CTR-style models represent a sample as `F` categorical fields plus a dense
//! vector. [`FieldEmbeddings`] owns one table per field; its forward pass
//! gathers each field's rows and (optionally) concatenates them to a
//! `batch × (F·dim)` matrix, which the reshape convention of
//! `uae_tensor::Tape` reinterprets as a packed `(batch, F, dim)` tensor for
//! AutoInt's self-attention. The forward pass is generic over
//! [`Exec`], so one implementation serves both training and tape-free
//! scoring.

use uae_tensor::{Exec, Init, ParamId, Params};

/// One embedding table per categorical field, all with the same dimension.
#[derive(Debug, Clone)]
pub struct FieldEmbeddings {
    tables: Vec<ParamId>,
    cardinalities: Vec<usize>,
    dim: usize,
}

impl FieldEmbeddings {
    /// Registers tables for fields with the given cardinalities.
    pub fn new(name: &str, cardinalities: &[usize], dim: usize, params: &mut Params) -> Self {
        let tables = cardinalities
            .iter()
            .enumerate()
            .map(|(f, &card)| {
                params.register(
                    format!("{name}.field{f}"),
                    card.max(1),
                    dim,
                    Init::Embedding,
                )
            })
            .collect();
        FieldEmbeddings {
            tables,
            cardinalities: cardinalities.to_vec(),
            dim,
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.tables.len()
    }

    /// Output width of [`FieldEmbeddings::forward_concat`].
    pub fn concat_dim(&self) -> usize {
        self.dim * self.tables.len()
    }

    /// Per-field table parameter ids, in field order — for the fused
    /// [`Exec::gather_concat`] encode path.
    pub fn tables(&self) -> &[ParamId] {
        &self.tables
    }

    /// Gathers one field: `ids[i]` is the category of sample `i` for `field`.
    pub fn forward_field<E: Exec>(
        &self,
        exec: &mut E,
        params: &Params,
        field: usize,
        ids: &[usize],
    ) -> E::V {
        debug_assert!(ids.iter().all(|&id| id < self.cardinalities[field].max(1)));
        exec.gather(params, self.tables[field], ids)
    }

    /// Gathers every field and concatenates: `batch × (F·dim)`.
    ///
    /// `ids_by_field[f][i]` is sample `i`'s category for field `f`.
    pub fn forward_concat<E: Exec>(
        &self,
        exec: &mut E,
        params: &Params,
        ids_by_field: &[Vec<usize>],
    ) -> E::V {
        assert_eq!(ids_by_field.len(), self.tables.len(), "field count");
        let parts: Vec<E::V> = ids_by_field
            .iter()
            .enumerate()
            .map(|(f, ids)| self.forward_field(exec, params, f, ids))
            .collect();
        exec.concat_cols(&parts.iter().collect::<Vec<_>>())
    }

    /// Gathers every field separately (for FM-style interactions).
    pub fn forward_fields<E: Exec>(
        &self,
        exec: &mut E,
        params: &Params,
        ids_by_field: &[Vec<usize>],
    ) -> Vec<E::V> {
        assert_eq!(ids_by_field.len(), self.tables.len(), "field count");
        ids_by_field
            .iter()
            .enumerate()
            .map(|(f, ids)| self.forward_field(exec, params, f, ids))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_tensor::{Matrix, Rng, Tape};

    #[test]
    fn concat_layout_is_field_major_per_sample() {
        let mut rng = Rng::seed_from_u64(1);
        let mut params = Params::new();
        let emb = FieldEmbeddings::new("e", &[3, 2], 2, &mut params);
        params.init(&mut rng);
        assert_eq!(emb.num_fields(), 2);
        assert_eq!(emb.concat_dim(), 4);
        // Overwrite tables with recognisable values.
        let ids: Vec<_> = params.ids().collect();
        *params.value_mut(ids[0]) = Matrix::from_vec(3, 2, vec![0., 1., 10., 11., 20., 21.]);
        *params.value_mut(ids[1]) = Matrix::from_vec(2, 2, vec![100., 101., 200., 201.]);
        let mut tape = Tape::new();
        let out = emb.forward_concat(&mut tape, &params, &[vec![2, 0], vec![1, 1]]);
        assert_eq!(tape.value(out).shape(), (2, 4));
        assert_eq!(tape.value(out).row(0), &[20., 21., 200., 201.]);
        assert_eq!(tape.value(out).row(1), &[0., 1., 200., 201.]);
    }

    #[test]
    fn gradient_flows_only_to_gathered_rows() {
        let mut rng = Rng::seed_from_u64(2);
        let mut params = Params::new();
        let emb = FieldEmbeddings::new("e", &[4], 3, &mut params);
        params.init(&mut rng);
        let table = params.ids().next().unwrap();
        let mut tape = Tape::new();
        let out = emb.forward_fields(&mut tape, &params, &[vec![1, 3]]);
        let s = tape.sum_all(out[0]);
        params.zero_grads();
        tape.backward(s, &mut params);
        let g = params.grad(table);
        assert_eq!(g.row(0), &[0.0; 3]);
        assert_eq!(g.row(1), &[1.0; 3]);
        assert_eq!(g.row(2), &[0.0; 3]);
        assert_eq!(g.row(3), &[1.0; 3]);
    }

    #[test]
    fn reshape_to_fields_matches_concat_layout() {
        // batch×(F·d) reshaped to (batch·F)×d must put sample b's field f at
        // row b·F+f — the packing AutoInt relies on.
        let mut rng = Rng::seed_from_u64(3);
        let mut params = Params::new();
        let emb = FieldEmbeddings::new("e", &[5, 5, 5], 2, &mut params);
        params.init(&mut rng);
        let ids = vec![vec![0, 1], vec![2, 3], vec![4, 0]];
        let mut tape = Tape::new();
        let cat = emb.forward_concat(&mut tape, &params, &ids);
        let packed = tape.reshape(cat, 2 * 3, 2);
        let fields = emb.forward_fields(&mut tape, &params, &ids);
        for b in 0..2 {
            for (f, field) in fields.iter().enumerate() {
                assert_eq!(
                    tape.value(packed).row(b * 3 + f),
                    tape.value(*field).row(b),
                    "b={b} f={f}"
                );
            }
        }
    }
}
