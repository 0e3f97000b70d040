//! 2D pooling kernels (NCHW).

use crate::tensor::Tensor;

/// Max-pool with square window `k`, stride `k` (non-overlapping).
///
/// Returns `(pooled, argmax)` where `argmax[i]` is the flat input offset that
/// produced output element `i` (needed for the backward scatter).
pub fn maxpool2d(x: &Tensor, k: usize) -> (Tensor, Vec<u32>) {
    let d = x.dims();
    assert_eq!(d.len(), 4, "maxpool2d expects NCHW");
    let (b, c, h, w) = (d[0], d[1], d[2], d[3]);
    assert!(h % k == 0 && w % k == 0, "maxpool2d requires divisible extents");
    let ho = h / k;
    let wo = w / k;
    let out_len = ho * wo;
    let mut out = vec![0.0f32; b * c * out_len];
    let mut idx = vec![0u32; b * c * out_len];
    let src = x.data();

    out.chunks_mut(out_len)
        .zip(idx.chunks_mut(out_len))
        .enumerate()
        .for_each(|(map, (o, ix))| {
            let base = map * h * w;
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_at = 0usize;
                    for ky in 0..k {
                        for kx in 0..k {
                            let off = base + (oy * k + ky) * w + ox * k + kx;
                            if src[off] > best {
                                best = src[off];
                                best_at = off;
                            }
                        }
                    }
                    o[oy * wo + ox] = best;
                    ix[oy * wo + ox] = best_at as u32;
                }
            }
        });
    (Tensor::new([b, c, ho, wo], out), idx)
}

/// Backward of [`maxpool2d`]: routes each output gradient to its argmax.
pub fn maxpool2d_backward(grad_out: &Tensor, idx: &[u32], input_numel: usize) -> Vec<f32> {
    assert_eq!(grad_out.numel(), idx.len());
    let mut grad_in = vec![0.0f32; input_numel];
    for (&i, &g) in idx.iter().zip(grad_out.data().iter()) {
        grad_in[i as usize] += g;
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_maxima() {
        let x = Tensor::new(
            [1, 1, 4, 4],
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        );
        let (y, idx) = maxpool2d(&x, 2);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.to_vec(), vec![4., 8., 12., 16.]);
        assert_eq!(idx, vec![5, 7, 13, 15]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::new([1, 1, 2, 2], vec![1., 9., 2., 3.]);
        let (_, idx) = maxpool2d(&x, 2);
        let go = Tensor::new([1, 1, 1, 1], vec![5.0]);
        let gi = maxpool2d_backward(&go, &idx, 4);
        assert_eq!(gi, vec![0., 5., 0., 0.]);
    }

    #[test]
    fn pools_handle_multichannel_batches() {
        let x = Tensor::rand_uniform([2, 3, 4, 4], -1.0, 1.0, 11);
        let (y, idx) = maxpool2d(&x, 2);
        assert_eq!(y.dims(), &[2, 3, 2, 2]);
        assert_eq!(idx.len(), 2 * 3 * 4);
        // Every argmax offset must fall inside its own window's map.
        for (i, &off) in idx.iter().enumerate() {
            let map = i / 4;
            let lo = map * 16;
            assert!((off as usize) >= lo && (off as usize) < lo + 16);
        }
    }
}
