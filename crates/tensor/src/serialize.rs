//! Binary save/load of trained parameters.
//!
//! A production attention model is trained offline and shipped to the
//! training pipeline of the downstream recommender (the paper's Fig. 4
//! pipeline), so parameters must round-trip through storage. The format is
//! a tiny self-describing little-endian layout — no serde dependency:
//!
//! ```text
//! magic "UAEP" | version u32 | count u32 |
//!   per parameter: name_len u32 | name bytes | rows u32 | cols u32 | f32 data
//! ```

use crate::matrix::Matrix;
use crate::params::Params;

const MAGIC: &[u8; 4] = b"UAEP";
const VERSION: u32 = 1;

/// Errors raised while decoding a parameter blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Not a parameter blob (bad magic).
    BadMagic,
    /// Produced by an incompatible version of this library.
    BadVersion(u32),
    /// The blob ended mid-record.
    Truncated,
    /// A name was not valid UTF-8.
    BadName,
    /// The decoded parameters do not match the receiving arena's shapes.
    ShapeMismatch {
        name: String,
        expected: (usize, usize),
        found: (usize, usize),
    },
    /// Parameter-count mismatch when loading into an existing arena.
    CountMismatch { expected: usize, found: usize },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a UAE parameter blob"),
            DecodeError::BadVersion(v) => write!(f, "unsupported blob version {v}"),
            DecodeError::Truncated => write!(f, "truncated parameter blob"),
            DecodeError::BadName => write!(f, "parameter name is not UTF-8"),
            DecodeError::ShapeMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "parameter {name:?}: expected {}x{}, blob has {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            DecodeError::CountMismatch { expected, found } => {
                write!(f, "expected {expected} parameters, blob has {found}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serialises every parameter (values only; gradients are transient).
pub fn save_params(params: &Params) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(params.count() as u32).to_le_bytes());
    for id in params.ids() {
        let name = params.name(id).as_bytes();
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name);
        let value = params.value(id);
        out.extend_from_slice(&(value.rows() as u32).to_le_bytes());
        out.extend_from_slice(&(value.cols() as u32).to_le_bytes());
        for &x in value.data() {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.bytes.len() - self.pos {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// One decoded record.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedParam {
    pub name: String,
    pub value: Matrix,
}

/// Decodes a blob into named matrices.
pub fn decode_params(bytes: &[u8]) -> Result<Vec<DecodedParam>, DecodeError> {
    let mut cur = Cursor { bytes, pos: 0 };
    if cur.take(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = cur.u32()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let count = cur.u32()? as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = cur.u32()? as usize;
        let name = std::str::from_utf8(cur.take(name_len)?)
            .map_err(|_| DecodeError::BadName)?
            .to_string();
        let rows = cur.u32()? as usize;
        let cols = cur.u32()? as usize;
        let len = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(4))
            .ok_or(DecodeError::Truncated)?;
        let raw = cur.take(len)?;
        let data: Vec<f32> = raw
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        out.push(DecodedParam {
            name,
            value: Matrix::from_vec(rows, cols, data),
        });
    }
    Ok(out)
}

/// Loads a blob into an existing arena (same architecture): every parameter
/// must match by position, name and shape. Gradients are zeroed.
pub fn load_params(params: &mut Params, bytes: &[u8]) -> Result<(), DecodeError> {
    let decoded = decode_params(bytes)?;
    if decoded.len() != params.count() {
        return Err(DecodeError::CountMismatch {
            expected: params.count(),
            found: decoded.len(),
        });
    }
    for (id, record) in params.ids().collect::<Vec<_>>().into_iter().zip(&decoded) {
        let expected = params.shape(id);
        if record.value.shape() != expected || params.name(id) != record.name {
            return Err(DecodeError::ShapeMismatch {
                name: record.name.clone(),
                expected,
                found: record.value.shape(),
            });
        }
    }
    for (id, record) in params.ids().collect::<Vec<_>>().into_iter().zip(decoded) {
        *params.value_mut(id) = record.value;
    }
    params.zero_grads();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn arena() -> Params {
        let mut rng = Rng::seed_from_u64(9);
        let mut p = Params::new();
        p.add("layer.w", Matrix::randn(3, 4, 1.0, &mut rng));
        p.add("layer.b", Matrix::randn(1, 4, 1.0, &mut rng));
        p.add("emb", Matrix::randn(10, 2, 1.0, &mut rng));
        p
    }

    #[test]
    fn round_trip_restores_exact_values() {
        let original = arena();
        let blob = save_params(&original);
        let mut target = arena(); // same architecture, different values
                                  // Perturb so the load visibly changes something.
        for id in target.ids().collect::<Vec<_>>() {
            target.value_mut(id).scale_in_place(3.0);
        }
        load_params(&mut target, &blob).expect("load");
        for (a, b) in original.ids().zip(target.ids()) {
            assert_eq!(original.value(a).data(), target.value(b).data());
        }
    }

    #[test]
    fn decode_lists_names_and_shapes() {
        let blob = save_params(&arena());
        let decoded = decode_params(&blob).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0].name, "layer.w");
        assert_eq!(decoded[0].value.shape(), (3, 4));
        assert_eq!(decoded[2].name, "emb");
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        // Four wrong bytes: magic check fires first.
        assert_eq!(decode_params(b"nope"), Err(DecodeError::BadMagic));
        // Shorter than the magic: truncated.
        assert_eq!(decode_params(b"no"), Err(DecodeError::Truncated));
        assert_eq!(decode_params(b"XXXXaaaaaaaa"), Err(DecodeError::BadMagic));
        let mut blob = save_params(&arena());
        blob.truncate(blob.len() - 3);
        assert_eq!(decode_params(&blob), Err(DecodeError::Truncated));
        // Future version refused.
        let mut blob = save_params(&arena());
        blob[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(decode_params(&blob), Err(DecodeError::BadVersion(99)));
        // A hostile shape whose byte length overflows usize: a typed error,
        // not an arithmetic-overflow or `from_vec` length panic.
        let mut blob = Vec::new();
        blob.extend_from_slice(MAGIC);
        blob.extend_from_slice(&VERSION.to_le_bytes());
        blob.extend_from_slice(&1u32.to_le_bytes());
        blob.extend_from_slice(&1u32.to_le_bytes());
        blob.push(b'w');
        blob.extend_from_slice(&0x8000_0000u32.to_le_bytes());
        blob.extend_from_slice(&0x8000_0000u32.to_le_bytes());
        assert_eq!(decode_params(&blob), Err(DecodeError::Truncated));
    }

    #[test]
    fn load_refuses_mismatched_architecture() {
        let blob = save_params(&arena());
        let mut rng = Rng::seed_from_u64(1);
        // Wrong count.
        let mut small = Params::new();
        small.add("layer.w", Matrix::randn(3, 4, 1.0, &mut rng));
        assert!(matches!(
            load_params(&mut small, &blob),
            Err(DecodeError::CountMismatch { .. })
        ));
        // Wrong shape.
        let mut wrong = Params::new();
        wrong.add("layer.w", Matrix::randn(3, 5, 1.0, &mut rng));
        wrong.add("layer.b", Matrix::randn(1, 4, 1.0, &mut rng));
        wrong.add("emb", Matrix::randn(10, 2, 1.0, &mut rng));
        assert!(matches!(
            load_params(&mut wrong, &blob),
            Err(DecodeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn load_zeroes_gradients() {
        let blob = save_params(&arena());
        let mut target = arena();
        let id = target.ids().next().unwrap();
        target.grad_mut(id).data_mut()[0] = 123.0;
        load_params(&mut target, &blob).unwrap();
        assert_eq!(target.grad(id).data()[0], 0.0);
    }
}
