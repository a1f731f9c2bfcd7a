//! Dense row-major `f32` matrices.
//!
//! [`Matrix`] is the single value type flowing through the autodiff tape.
//! Vectors are 1×n or n×1 matrices; scalars are 1×1. A "batched 3-D" tensor
//! of shape `(batch, m, n)` is stored as a `(batch·m) × n` matrix and
//! interpreted by the batched ops in [`crate::tape`].

use std::sync::Arc;

use crate::arena;
use crate::backend;
use crate::mmap::MmapRegion;
use crate::rng::Rng;

/// Backing storage for a [`Matrix`]: a pooled heap buffer, a bump-allocated
/// lease from the per-batch inference arena (see [`crate::arena`]), or a
/// read-only window into a shared [`MmapRegion`]: a memory-mapped artifact
/// file ([`Matrix::from_mmap`]) or the aligned heap region a frozen matrix
/// lays its values into ([`Matrix::freeze`]). Which one a matrix gets is
/// decided once, in [`Matrix::uninit`], [`Matrix::freeze`] or
/// [`Matrix::from_mmap`]; everything else sees a plain `[f32]` through
/// `Deref`.
pub(crate) enum Store {
    Heap(Vec<f32>),
    Arena(arena::Lease),
    /// `len` f32s starting `offset` bytes into a shared, immutable region.
    /// The offset is 16-byte-aligned against a 16-byte-aligned base, so the
    /// pointer cast in `deref` is always in-bounds and aligned. Clones share
    /// the region; the first mutable access copies-on-write.
    Mapped {
        region: Arc<MmapRegion>,
        offset: usize,
        len: usize,
    },
}

impl Default for Store {
    fn default() -> Self {
        Store::Heap(Vec::new())
    }
}

impl std::ops::Deref for Store {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        match self {
            Store::Heap(v) => v,
            Store::Arena(l) => l.slice(),
            Store::Mapped {
                region,
                offset,
                len,
            } => unsafe {
                // SAFETY: bounds and 16-byte alignment were validated in
                // `Matrix::from_mmap`, which `Matrix::freeze` also builds
                // through; the region is immutable and outlives this store
                // via the Arc.
                std::slice::from_raw_parts(region.bytes().as_ptr().add(*offset) as *const f32, *len)
            },
        }
    }
}

impl std::ops::DerefMut for Store {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        if matches!(self, Store::Mapped { .. }) {
            // Copy-on-write: the first mutable access to a frozen or mapped
            // buffer materializes a private heap copy, so mutation can never
            // be observed through the other handles (or write to the map).
            let v = {
                let src: &[f32] = self;
                let mut v = backend::take_uninit(src.len());
                v.copy_from_slice(src);
                v
            };
            *self = Store::Heap(v);
        }
        match self {
            Store::Heap(v) => v,
            Store::Arena(l) => l.slice_mut(),
            Store::Mapped { .. } => unreachable!("shared store survived copy-on-write"),
        }
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// A dense row-major matrix of `f32`.
///
/// Allocations come from (and return to, on drop) the thread-local scratch
/// pool in [`crate::backend`] — or, inside an [`crate::arena::scoped`]
/// inference region, from the per-batch bump arena — so tape-heavy loops and
/// serve scoring reuse buffers instead of hitting the allocator for every op.
///
/// ```
/// use uae_tensor::Matrix;
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Matrix::col_vector(&[5.0, 6.0]);
/// let c = a.matmul(&b); // rides the blocked kernels + worker pool
/// assert_eq!(c.shape(), (2, 1));
/// assert_eq!(c.data(), &[17.0, 39.0]);
/// let d = c.map(|v| v * 0.5);
/// assert_eq!(d.get(1, 0), 19.5);
/// ```
#[derive(Debug)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Store,
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && *self.data == *other.data
    }
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        // Frozen and mapped weights clone as O(1) handle copies: cloning
        // bumps the region refcount, no data moves.
        if let Store::Mapped {
            region,
            offset,
            len,
        } = &self.data
        {
            return Matrix {
                rows: self.rows,
                cols: self.cols,
                data: Store::Mapped {
                    region: Arc::clone(region),
                    offset: *offset,
                    len: *len,
                },
            };
        }
        let mut out = Matrix::uninit(self.rows, self.cols);
        out.data.copy_from_slice(&self.data);
        out
    }

    fn clone_from(&mut self, source: &Self) {
        if matches!(source.data, Store::Mapped { .. }) || self.data.len() != source.data.len() {
            *self = source.clone();
        } else {
            self.rows = source.rows;
            self.cols = source.cols;
            self.data.copy_from_slice(&source.data);
        }
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        match std::mem::take(&mut self.data) {
            Store::Heap(v) => backend::recycle(v),
            Store::Arena(lease) => drop(lease),
            Store::Mapped { region, .. } => drop(region),
        }
    }
}

impl Matrix {
    /// A matrix whose contents are unspecified (stale but initialized
    /// floats). Callers must overwrite every element. This is the single
    /// allocation chokepoint: inside an [`crate::arena::scoped`] region the
    /// buffer is bump-allocated; otherwise it comes from the scratch pool.
    pub(crate) fn uninit(rows: usize, cols: usize) -> Self {
        let data = match arena::alloc(rows * cols) {
            Some(lease) => Store::Arena(lease),
            None => Store::Heap(backend::take_uninit(rows * cols)),
        };
        Matrix { rows, cols, data }
    }

    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let mut out = Matrix::uninit(rows, cols);
        out.data.fill(0.0);
        out
    }

    /// A matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        let mut out = Matrix::uninit(rows, cols);
        out.data.fill(value);
        out
    }

    /// Builds a matrix from row-major data. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: {} values for a {rows}x{cols} matrix",
            data.len()
        );
        Matrix {
            rows,
            cols,
            data: Store::Heap(data),
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` in row-major order.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut out = Matrix::uninit(rows, cols);
        for r in 0..rows {
            for (c, o) in out.data[r * cols..(r + 1) * cols].iter_mut().enumerate() {
                *o = f(r, c);
            }
        }
        out
    }

    /// A single-row matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        let mut out = Matrix::uninit(1, values.len());
        out.data.copy_from_slice(values);
        out
    }

    /// A single-column matrix from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        let mut out = Matrix::uninit(values.len(), 1);
        out.data.copy_from_slice(values);
        out
    }

    /// A 1×1 matrix.
    pub fn scalar(value: f32) -> Self {
        Matrix::from_vec(1, 1, vec![value])
    }

    /// Gaussian-initialised matrix with the given standard deviation.
    /// Draws are sequential in row-major order, so results are independent
    /// of pooling and thread configuration.
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut Rng) -> Self {
        let mut out = Matrix::uninit(rows, cols);
        for o in out.data.iter_mut() {
            *o = rng.normal_with(0.0, std as f64) as f32;
        }
        out
    }

    /// Uniform-initialised matrix on `[-limit, limit]` (sequential draws).
    pub fn rand_uniform(rows: usize, cols: usize, limit: f32, rng: &mut Rng) -> Self {
        let mut out = Matrix::uninit(rows, cols);
        for o in out.data.iter_mut() {
            *o = rng.range_f64(-limit as f64, limit as f64) as f32;
        }
        out
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Lays the values into a fresh 16-byte-aligned heap [`MmapRegion`] and
    /// points the matrix at it, the same read-only shared store a mapped
    /// artifact gives, so later `clone()`s are O(1) handle copies instead of
    /// deep copies. A frozen matrix is still mutable: the first mutable
    /// access quietly copies-on-write back to a private heap buffer.
    /// Freezing a parameter set once (see [`crate::Params::freeze`]) stops
    /// `ValueExec::param` from memcpy-ing every weight matrix on every
    /// batch.
    pub fn freeze(&mut self) {
        // Mapped matrices are already zero-copy-cloneable; freezing them
        // again would only copy the region.
        if self.is_shared() {
            return;
        }
        let region = MmapRegion::heap(self.len() * 4, |buf| {
            for (dst, x) in buf.chunks_exact_mut(4).zip(self.data()) {
                dst.copy_from_slice(&x.to_ne_bytes());
            }
        });
        // Dropping the old store returns a heap buffer to the pool.
        *self = Matrix::from_mmap(Arc::new(region), 0, self.rows, self.cols)
            .expect("a fresh aligned region holds the whole matrix");
    }

    /// Whether the backing store is a shared (frozen or memory-mapped)
    /// region, i.e. `clone()` is an O(1) handle copy.
    #[inline]
    pub fn is_shared(&self) -> bool {
        matches!(self.data, Store::Mapped { .. })
    }

    /// Builds a matrix whose data is a pointer-cast view into `region` at
    /// byte `offset` — the `.uaem` v3 zero-copy load path. The offset must
    /// be 16-byte-aligned (so SIMD loads on the mapped weights are legal)
    /// and `rows * cols` `f32`s must fit inside the region.
    pub fn from_mmap(
        region: Arc<MmapRegion>,
        offset: usize,
        rows: usize,
        cols: usize,
    ) -> Result<Matrix, &'static str> {
        let len = rows
            .checked_mul(cols)
            .ok_or("mapped matrix shape overflows")?;
        let bytes = len.checked_mul(4).ok_or("mapped matrix size overflows")?;
        if !offset.is_multiple_of(16) {
            return Err("mapped matrix offset not 16-byte aligned");
        }
        let end = offset
            .checked_add(bytes)
            .ok_or("mapped matrix extent overflows")?;
        if end > region.len() {
            return Err("mapped matrix extends past end of region");
        }
        Ok(Matrix {
            rows,
            cols,
            data: Store::Mapped {
                region,
                offset,
                len,
            },
        })
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The value of a 1×1 matrix.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() on a non-scalar matrix");
        self.data[0]
    }

    /// A view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · rhs` (blocked, parallel backend kernels).
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::uninit(self.rows, rhs.cols);
        backend::matmul(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        out
    }

    /// `self · rhs + bias` with `bias` a `1 × rhs.cols` row broadcast over
    /// output rows — the fused dense-layer forward.
    pub fn matmul_bias(&self, rhs: &Matrix, bias: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul_bias: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            bias.shape(),
            (1, rhs.cols),
            "matmul_bias: bias must be 1x{}",
            rhs.cols
        );
        let mut out = Matrix::uninit(self.rows, rhs.cols);
        backend::matmul_bias(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &bias.data,
            &mut out.data,
        );
        out
    }

    /// `selfᵀ · rhs` without materialising the transpose.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::uninit(self.cols, rhs.cols);
        backend::matmul_tn(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        out
    }

    /// `Σ_s a_sᵀ · b_s` over `segments` (each pair with equal row counts,
    /// which may differ between pairs), added latest segment first. Bitwise
    /// equal to per-segment [`Matrix::matmul_tn`] followed by `add_assign`s
    /// in that order — how a per-step tape accumulates a weight shared by
    /// every step — but one parallel region for the whole sum.
    pub fn matmul_tn_segmented(segments: &[(&Matrix, &Matrix)]) -> Matrix {
        let (a0, b0) = segments.first().expect("matmul_tn_segmented: no segments");
        for (a, b) in segments {
            assert_eq!(a.rows, b.rows, "matmul_tn_segmented: segment row mismatch");
            assert_eq!(
                (a.cols, b.cols),
                (a0.cols, b0.cols),
                "matmul_tn_segmented: widths"
            );
        }
        let mut out = Matrix::uninit(a0.cols, b0.cols);
        let mut scratch = Matrix::uninit(a0.cols, b0.cols);
        let slices: Vec<(&[f32], &[f32])> =
            segments.iter().map(|(a, b)| (a.data(), b.data())).collect();
        backend::matmul_tn_segmented(a0.cols, b0.cols, &slices, &mut out.data, &mut scratch.data);
        out
    }

    /// `self · rhsᵀ` without materialising the transpose.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::uninit(self.rows, rhs.rows);
        backend::matmul_nt(
            self.rows,
            self.cols,
            rhs.rows,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        out
    }

    /// The explicit transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::uninit(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise map into a new (pooled or arena-backed) matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut out = Matrix::uninit(self.rows, self.cols);
        backend::map_elems(&self.data, &mut out.data, &f);
        out
    }

    /// Element-wise combination of two same-shape matrices.
    pub fn zip_map(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32 + Sync) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip_map shape mismatch");
        let mut out = Matrix::uninit(self.rows, self.cols);
        backend::zip_map_elems(&self.data, &rhs.data, &mut out.data, &f);
        out
    }

    /// Applies `f` to every element in place (no allocation).
    pub fn apply(&mut self, f: impl Fn(f32) -> f32) {
        for a in self.data.iter_mut() {
            *a = f(*a);
        }
    }

    /// `self[i] = f(self[i], rhs[i])` element-wise in place (no allocation).
    pub fn zip_apply(&mut self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape(), rhs.shape(), "zip_apply shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a = f(*a, b);
        }
    }

    /// `self += rhs` element-wise.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// `self += scale · rhs` element-wise (AXPY).
    pub fn add_scaled(&mut self, rhs: &Matrix, scale: f32) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += scale * b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_in_place(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared Frobenius norm.
    pub fn squared_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Horizontal concatenation of matrices with equal row counts.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = parts[0].rows;
        for p in parts {
            assert_eq!(p.rows, rows, "concat_cols row mismatch");
        }
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::uninit(rows, cols);
        for r in 0..rows {
            let dst = &mut out.data[r * cols..(r + 1) * cols];
            let mut offset = 0;
            for p in parts {
                dst[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Vertical concatenation of matrices with equal column counts.
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut out = Matrix::uninit(rows, cols);
        let mut offset = 0;
        for p in parts {
            assert_eq!(p.cols, cols, "concat_rows col mismatch");
            out.data[offset..offset + p.data.len()].copy_from_slice(&p.data);
            offset += p.data.len();
        }
        out
    }

    /// Copies columns `[start, end)` into a new matrix.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.cols, "slice_cols out of range");
        let width = end - start;
        let mut out = Matrix::uninit(self.rows, width);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Gathers the listed rows into a new matrix.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::uninit(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < self.rows, "gather_rows index {idx} >= {}", self.rows);
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Maximum absolute element-wise difference to another matrix.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f32 {
        assert_eq!(self.shape(), rhs.shape());
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, vals: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, vals.to_vec())
    }

    #[test]
    fn matmul_small_known_result() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c, m(2, 2, &[58., 64., 139., 154.]));
    }

    #[test]
    fn matmul_bias_matches_matmul_plus_broadcast() {
        let mut rng = Rng::seed_from_u64(9);
        let a = Matrix::randn(5, 3, 1.0, &mut rng);
        let b = Matrix::randn(3, 4, 1.0, &mut rng);
        let bias = Matrix::randn(1, 4, 1.0, &mut rng);
        let fused = a.matmul_bias(&b, &bias);
        let mut reference = a.matmul(&b);
        for r in 0..5 {
            for (o, &bv) in reference.row_mut(r).iter_mut().zip(bias.row(0)) {
                *o += bv;
            }
        }
        assert!(fused.max_abs_diff(&reference) < 1e-5);
    }

    #[test]
    fn clone_after_pool_recycling_is_exact() {
        // Churn the pool so clones draw recycled (stale) buffers, then check
        // the copy is still exact.
        for i in 0..10 {
            let m = Matrix::filled(7, 11, i as f32);
            let c = m.clone();
            assert_eq!(m, c);
        }
    }

    #[test]
    fn frozen_clone_shares_then_copies_on_write() {
        let mut a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        a.freeze();
        assert!(a.is_shared());
        let mut b = a.clone();
        assert!(b.is_shared(), "clone of a frozen matrix must share");
        assert_eq!(a, b);
        // Mutating the clone must detach it without touching the original.
        b.set(0, 0, 99.0);
        assert!(!b.is_shared(), "mutable access must copy-on-write");
        assert!(a.is_shared());
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(b.get(0, 0), 99.0);
        // Freezing twice is a no-op; reads never detach.
        a.freeze();
        assert_eq!(a.row(1), &[4., 5., 6.]);
        assert!(a.is_shared());
    }

    #[test]
    fn frozen_matrix_computes_identically() {
        let mut rng = Rng::seed_from_u64(11);
        let a = Matrix::randn(4, 6, 1.0, &mut rng);
        let b = Matrix::randn(6, 3, 1.0, &mut rng);
        let plain = a.matmul(&b);
        let mut fa = a.clone();
        let mut fb = b.clone();
        fa.freeze();
        fb.freeze();
        assert_eq!(
            fa.matmul(&fb),
            plain,
            "frozen operands must be bitwise identical"
        );
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = Rng::seed_from_u64(1);
        let a = Matrix::randn(4, 3, 1.0, &mut rng);
        let b = Matrix::randn(4, 5, 1.0, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = Rng::seed_from_u64(2);
        let a = Matrix::randn(4, 3, 1.0, &mut rng);
        let b = Matrix::randn(5, 3, 1.0, &mut rng);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose(), m(3, 2, &[1., 4., 2., 5., 3., 6.]));
    }

    #[test]
    fn concat_and_slice_cols_round_trip() {
        let a = m(2, 2, &[1., 2., 5., 6.]);
        let b = m(2, 1, &[3., 7.]);
        let c = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(c, m(2, 3, &[1., 2., 3., 5., 6., 7.]));
        assert_eq!(c.slice_cols(0, 2), a);
        assert_eq!(c.slice_cols(2, 3), b);
    }

    #[test]
    fn concat_rows_stacks() {
        let a = m(1, 2, &[1., 2.]);
        let b = m(2, 2, &[3., 4., 5., 6.]);
        assert_eq!(
            Matrix::concat_rows(&[&a, &b]),
            m(3, 2, &[1., 2., 3., 4., 5., 6.])
        );
    }

    #[test]
    fn gather_rows_picks_and_repeats() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g, m(3, 2, &[5., 6., 1., 2., 5., 6.]));
    }

    #[test]
    fn sum_mean_norm() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.squared_norm(), 30.0);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = m(1, 3, &[1., 2., 3.]);
        let b = m(1, 3, &[10., 20., 30.]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a, m(1, 3, &[6., 12., 18.]));
    }

    #[test]
    fn zip_map_applies_pairwise() {
        let a = m(1, 3, &[1., 2., 3.]);
        let b = m(1, 3, &[4., 5., 6.]);
        assert_eq!(a.zip_map(&b, |x, y| x * y), m(1, 3, &[4., 10., 18.]));
    }

    #[test]
    fn item_requires_scalar() {
        assert_eq!(Matrix::scalar(3.5).item(), 3.5);
    }

    #[test]
    #[should_panic(expected = "non-scalar")]
    fn item_panics_on_matrix() {
        let _ = Matrix::zeros(2, 1).item();
    }

    #[test]
    fn randn_respects_std() {
        let mut rng = Rng::seed_from_u64(3);
        let a = Matrix::randn(100, 100, 0.1, &mut rng);
        let mean = a.mean();
        let var = a.squared_norm() / a.len() as f32 - mean * mean;
        assert!(mean.abs() < 0.01);
        assert!((var.sqrt() - 0.1).abs() < 0.01);
    }

    fn mapped_fixture(floats: &[f32]) -> (std::path::PathBuf, Arc<MmapRegion>) {
        let path = std::env::temp_dir().join(format!(
            "uae_matrix_mmap_{}_{}",
            std::process::id(),
            floats.len()
        ));
        let mut bytes = Vec::with_capacity(floats.len() * 4);
        for v in floats {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let region = Arc::new(MmapRegion::map(&path).unwrap());
        (path, region)
    }

    #[test]
    fn mapped_matrix_reads_and_computes_like_heap() {
        let data = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let (path, region) = mapped_fixture(&data);
        let mapped = Matrix::from_mmap(region, 0, 2, 3).unwrap();
        let heap = Matrix::from_vec(2, 3, data.to_vec());
        assert_eq!(mapped, heap);
        let v = Matrix::col_vector(&[1.0, 1.0, 1.0]);
        assert_eq!(mapped.matmul(&v), heap.matmul(&v));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_matrix_clone_is_handle_copy_and_mutation_copies_on_write() {
        let data = [9.0f32, 8.0, 7.0, 6.0];
        let (path, region) = mapped_fixture(&data);
        let a = Matrix::from_mmap(region, 0, 2, 2).unwrap();
        assert!(a.is_shared());
        let mut b = a.clone();
        assert!(b.is_shared());
        b.data_mut()[0] = 100.0;
        // Mutating the clone detached it; the original still sees the file.
        assert_eq!(a.data()[0], 9.0);
        assert_eq!(b.data()[0], 100.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_matrix_freeze_is_noop() {
        let (path, region) = mapped_fixture(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut a = Matrix::from_mmap(region, 0, 5, 1).unwrap();
        a.freeze();
        assert!(a.is_shared());
        assert_eq!(a.data(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn from_mmap_validates_alignment_and_bounds() {
        let (path, region) = mapped_fixture(&[0.0; 8]);
        assert!(Matrix::from_mmap(Arc::clone(&region), 4, 2, 2).is_err());
        assert!(Matrix::from_mmap(Arc::clone(&region), 16, 2, 3).is_err());
        assert!(Matrix::from_mmap(Arc::clone(&region), 0, usize::MAX, 2).is_err());
        assert!(Matrix::from_mmap(region, 16, 2, 2).is_ok());
        std::fs::remove_file(&path).unwrap();
    }
}
