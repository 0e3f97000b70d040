//! Dense, contiguous, row-major f32 tensors with cheap `Arc` sharing.
//!
//! [`Tensor`] is the value type flowing through the autograd graph. Clones
//! are O(1); mutation copies on write via [`Arc::make_mut`].

use std::sync::Arc;

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::shape::Shape;

/// A dense row-major f32 tensor.
#[derive(Clone)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Vec<f32>>,
}

impl Tensor {
    /// Creates a tensor from a shape and matching data buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn new(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        Tensor {
            shape,
            data: Arc::new(data),
        }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor::new(shape, vec![0.0; n])
    }

    /// All-ones tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor::new(shape, vec![value; n])
    }

    /// Rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor::new(Shape::scalar(), vec![value])
    }

    /// I.i.d. uniform samples in `[lo, hi)` from a seeded ChaCha stream.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, seed: u64) -> Self {
        let shape = shape.into();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data = (0..shape.numel()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor::new(shape, data)
    }

    /// I.i.d. normal samples (Box-Muller) from a seeded ChaCha stream.
    pub fn rand_normal(shape: impl Into<Shape>, mean: f32, std: f32, seed: u64) -> Self {
        let shape = shape.into();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mean + std * r * theta.cos());
            if data.len() < n {
                data.push(mean + std * r * theta.sin());
            }
        }
        Tensor::new(shape, data)
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Read-only view of the backing buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (copy-on-write if shared).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Copies the buffer into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<f32> {
        self.data.to_vec()
    }

    /// The single value of a one-element tensor.
    ///
    /// # Panics
    /// Panics if `numel() != 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires a one-element tensor");
        self.data[0]
    }

    /// Same data viewed under a different shape with equal element count.
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {} to {}",
            self.shape,
            shape
        );
        Tensor {
            shape,
            data: Arc::clone(&self.data),
        }
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync + Send) -> Tensor {
        let data: Vec<f32> = self.data.iter().map(|&x| f(x)).collect();
        Tensor::new(self.shape.clone(), data)
    }

    /// Combines two same-shape tensors elementwise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync + Send) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip_with shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        let data: Vec<f32> =
            self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Tensor::new(self.shape.clone(), data)
    }

    /// Elementwise sum (same shape).
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference (same shape).
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise product (same shape).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise quotient (same shape).
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a / b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place accumulate: `self += other` (same shape).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (d, &s) in self.data_mut().iter_mut().zip(other.data.iter()) {
            *d += s;
        }
    }

    /// Sum of all elements, as one sequential left fold at every size, so
    /// the bits never depend on a thread count or a partition.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    /// Maximum element (NaN-ignoring; -inf for empty).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (NaN-ignoring; +inf for empty).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Matrix transpose of the last two dims (copies).
    pub fn transpose_last(&self) -> Tensor {
        let rank = self.shape.rank();
        assert!(rank >= 2, "transpose_last requires rank >= 2");
        let rows = self.shape.dim(rank - 2);
        let cols = self.shape.dim(rank - 1);
        let (batch, _) = self.shape.split_trailing(2);
        let mut out = vec![0.0f32; self.numel()];
        let src = self.data();
        let mat = rows * cols;
        for b in 0..batch {
            let s = &src[b * mat..(b + 1) * mat];
            let d = &mut out[b * mat..(b + 1) * mat];
            for r in 0..rows {
                for c in 0..cols {
                    d[c * rows + r] = s[r * cols + c];
                }
            }
        }
        Tensor::new(self.shape.transpose_last(), out)
    }

    /// Batched matrix product.
    ///
    /// Supports `[.., m, k] x [k, n]` (shared right operand) and
    /// `[b.., m, k] x [b.., k, n]` (matching batch dims).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        crate::kernels::gemm::matmul(self, other)
    }

    /// Concatenates tensors along `axis`. All other dims must match.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Tensor {
        assert!(!tensors.is_empty(), "concat of zero tensors");
        let rank = tensors[0].shape.rank();
        assert!(axis < rank, "concat axis out of range");
        for t in tensors {
            assert_eq!(t.shape.rank(), rank, "concat rank mismatch");
            for d in 0..rank {
                if d != axis {
                    assert_eq!(
                        t.shape.dim(d),
                        tensors[0].shape.dim(d),
                        "concat dim {} mismatch",
                        d
                    );
                }
            }
        }
        let lead: usize = tensors[0].shape.dims()[..axis].iter().product();
        let trail: usize = tensors[0].shape.dims()[axis + 1..].iter().product();
        let total_axis: usize = tensors.iter().map(|t| t.shape.dim(axis)).sum();
        let mut dims = tensors[0].shape.dims().to_vec();
        dims[axis] = total_axis;
        let mut out = Vec::with_capacity(lead * total_axis * trail);
        for l in 0..lead {
            for t in tensors {
                let span = t.shape.dim(axis) * trail;
                let start = l * span;
                out.extend_from_slice(&t.data()[start..start + span]);
            }
        }
        Tensor::new(dims, out)
    }

    /// Splits along `axis` into chunks of the given extents (inverse of
    /// [`Tensor::concat`]).
    pub fn split(&self, axis: usize, extents: &[usize]) -> Vec<Tensor> {
        let rank = self.shape.rank();
        assert!(axis < rank);
        assert_eq!(
            extents.iter().sum::<usize>(),
            self.shape.dim(axis),
            "split extents must sum to axis extent"
        );
        let lead: usize = self.shape.dims()[..axis].iter().product();
        let trail: usize = self.shape.dims()[axis + 1..].iter().product();
        let axis_total = self.shape.dim(axis);
        let mut outputs: Vec<Vec<f32>> = extents
            .iter()
            .map(|&e| Vec::with_capacity(lead * e * trail))
            .collect();
        let src = self.data();
        for l in 0..lead {
            let mut off = l * axis_total * trail;
            for (o, &e) in outputs.iter_mut().zip(extents.iter()) {
                o.extend_from_slice(&src[off..off + e * trail]);
                off += e * trail;
            }
        }
        outputs
            .into_iter()
            .zip(extents.iter())
            .map(|(data, &e)| {
                let mut dims = self.shape.dims().to_vec();
                dims[axis] = e;
                Tensor::new(dims, data)
            })
            .collect()
    }

    /// Index of the maximum element along the last dim, per row.
    pub fn argmax_last(&self) -> Vec<usize> {
        let (_rows, cols) = self.shape.split_trailing(1);
        self.data
            .chunks_exact(cols)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor(shape={}, ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "data={:?})", self.data())
        } else {
            write!(
                f,
                "mean={:.4}, min={:.4}, max={:.4})",
                self.mean(),
                self.min(),
                self.max()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.at(&[0, 2]), 3.0);
        assert_eq!(t.at(&[1, 0]), 4.0);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn bad_data_len_panics() {
        Tensor::new([2, 2], vec![1.0; 3]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::new([2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::new([2, 2], vec![10., 20., 30., 40.]);
        assert_eq!(a.add(&b).to_vec(), vec![11., 22., 33., 44.]);
        assert_eq!(b.sub(&a).to_vec(), vec![9., 18., 27., 36.]);
        assert_eq!(a.mul(&b).to_vec(), vec![10., 40., 90., 160.]);
        assert_eq!(b.div(&a).to_vec(), vec![10., 10., 10., 10.]);
        assert_eq!(a.scale(2.0).to_vec(), vec![2., 4., 6., 8.]);
    }

    #[test]
    fn sum_is_the_sequential_left_fold_at_a_large_size() {
        // Mixed magnitudes, so any other association order changes the bits.
        let t = Tensor::rand_uniform([65_541], -1.0, 1.0, 21)
            .map(|v| v * 10f32.powi((v.to_bits() % 7) as i32 - 3));
        let fold = t.data().iter().fold(0.0f32, |acc, &v| acc + v);
        assert_eq!(t.sum().to_bits(), fold.to_bits());
        let (evens, odds) = t.data().iter().enumerate().fold((0.0f32, 0.0f32), |(e, o), (i, &v)| {
            if i % 2 == 0 {
                (e + v, o)
            } else {
                (e, o + v)
            }
        });
        assert_ne!((evens + odds).to_bits(), fold.to_bits(), "the input must detect a reorder");
    }

    #[test]
    fn reductions() {
        let a = Tensor::new([4], vec![1., -2., 3., 6.]);
        assert_eq!(a.sum(), 8.0);
        assert_eq!(a.mean(), 2.0);
        assert_eq!(a.max(), 6.0);
        assert_eq!(a.min(), -2.0);
    }

    #[test]
    fn transpose_last_2d() {
        let a = Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let t = a.transpose_last();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.to_vec(), vec![1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn transpose_last_batched() {
        let a = Tensor::new([2, 2, 2], vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let t = a.transpose_last();
        assert_eq!(t.to_vec(), vec![1., 3., 2., 4., 5., 7., 6., 8.]);
    }

    #[test]
    fn reshape_shares_data() {
        let a = Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = a.reshape([3, 2]);
        assert_eq!(b.at(&[2, 1]), 6.0);
    }

    #[test]
    fn concat_axis1() {
        let a = Tensor::new([2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::new([2, 1], vec![9., 8.]);
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.to_vec(), vec![1., 2., 9., 3., 4., 8.]);
    }

    #[test]
    fn concat_axis0() {
        let a = Tensor::new([1, 2], vec![1., 2.]);
        let b = Tensor::new([2, 2], vec![3., 4., 5., 6.]);
        let c = Tensor::concat(&[&a, &b], 0);
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.to_vec(), vec![1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn split_inverts_concat() {
        let a = Tensor::new([2, 3], vec![1., 2., 9., 3., 4., 8.]);
        let parts = a.split(1, &[2, 1]);
        assert_eq!(parts[0].to_vec(), vec![1., 2., 3., 4.]);
        assert_eq!(parts[1].to_vec(), vec![9., 8.]);
    }

    #[test]
    fn argmax_last_rows() {
        let a = Tensor::new([2, 3], vec![0.1, 0.9, 0.2, 5.0, -1.0, 2.0]);
        assert_eq!(a.argmax_last(), vec![1, 0]);
    }

    #[test]
    fn seeded_rand_is_deterministic() {
        let a = Tensor::rand_normal([32], 0.0, 1.0, 42);
        let b = Tensor::rand_normal([32], 0.0, 1.0, 42);
        let c = Tensor::rand_normal([32], 0.0, 1.0, 43);
        assert_eq!(a.to_vec(), b.to_vec());
        assert_ne!(a.to_vec(), c.to_vec());
    }

    #[test]
    fn rand_normal_moments() {
        let a = Tensor::rand_normal([100_000], 0.0, 1.0, 7);
        assert!(a.mean().abs() < 0.02, "mean {}", a.mean());
        let var = a.map(|x| x * x).mean() - a.mean() * a.mean();
        assert!((var - 1.0).abs() < 0.03, "var {}", var);
    }

    #[test]
    fn copy_on_write_isolated() {
        let a = Tensor::zeros([4]);
        let mut b = a.clone();
        b.data_mut()[0] = 5.0;
        assert_eq!(a.data()[0], 0.0);
        assert_eq!(b.data()[0], 5.0);
    }
}
