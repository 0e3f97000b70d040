//! 2D convolution kernels (NCHW) via im2col / col2im.
//!
//! `conv2d` lowers each image to a column matrix and multiplies by the
//! flattened weights — one GEMM per batch element, parallel over the
//! batch, so the convolution rides the packed-SGEMM fast path (and with
//! it the SIMD micro-kernel backends). Output-channel counts below the
//! packed kernel's `m >= 4` dispatch floor (segmentation heads with few
//! classes) are lowered through the transposed product
//! `out^T = col^T · W^T` instead, whose `m` is the large spatial extent —
//! so small-`Cout` head convs stop bypassing the tuned kernels.
//! `conv_transpose2d` is the adjoint: a GEMM followed by `col2im`.
//!
//! [`conv2d_direct`] is the textbook quadruple-loop reference: the
//! differential oracle's ground truth for the im2col lowering, and the
//! path `conv2d` takes in naive kernel mode (`APF_NAIVE_KERNELS`).

use rayon::prelude::*;

use crate::kernels::gemm::{gemm, gemm_packed, PACK_FLOPS};
use crate::tensor::Tensor;

/// Geometry of one conv: `out = (in + 2*pad - kernel) / stride + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    pub kernel: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvGeom {
    /// Output spatial extent for an input extent.
    ///
    /// # Panics
    /// Panics if the geometry does not evenly cover the input.
    pub fn out_extent(&self, input: usize) -> usize {
        let padded = input + 2 * self.pad;
        assert!(
            padded >= self.kernel,
            "conv kernel {} larger than padded input {}",
            self.kernel,
            padded
        );
        (padded - self.kernel) / self.stride + 1
    }

    /// Input spatial extent produced by a transposed conv from `input`.
    pub fn transpose_out_extent(&self, input: usize) -> usize {
        (input - 1) * self.stride + self.kernel - 2 * self.pad
    }
}

/// Lowers `img` (`[C, H, W]`) into columns (`[C*K*K, Ho*Wo]`).
pub fn im2col(img: &[f32], c: usize, h: usize, w: usize, g: ConvGeom, out: &mut [f32]) {
    let ho = g.out_extent(h);
    let wo = g.out_extent(w);
    let k = g.kernel;
    assert_eq!(img.len(), c * h * w);
    assert_eq!(out.len(), c * k * k * ho * wo);
    let cols = ho * wo;
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = ((ch * k + ky) * k + kx) * cols;
                for oy in 0..ho {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    for ox in 0..wo {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        let v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            img[(ch * h + iy as usize) * w + ix as usize]
                        } else {
                            0.0
                        };
                        out[row + oy * wo + ox] = v;
                    }
                }
            }
        }
    }
}

/// Scatter-adds columns (`[C*K*K, Ho*Wo]`) back into `img` (`[C, H, W]`).
/// The adjoint of [`im2col`].
pub fn col2im(cols_mat: &[f32], c: usize, h: usize, w: usize, g: ConvGeom, img: &mut [f32]) {
    let ho = g.out_extent(h);
    let wo = g.out_extent(w);
    let k = g.kernel;
    assert_eq!(img.len(), c * h * w);
    assert_eq!(cols_mat.len(), c * k * k * ho * wo);
    let cols = ho * wo;
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = ((ch * k + ky) * k + kx) * cols;
                for oy in 0..ho {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..wo {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        img[(ch * h + iy as usize) * w + ix as usize] += cols_mat[row + oy * wo + ox];
                    }
                }
            }
        }
    }
}

/// Forward conv2d: `x [B,Cin,H,W] * w [Cout,Cin,K,K] + b [Cout]` -> `[B,Cout,Ho,Wo]`.
///
/// Fast mode lowers via im2col + SGEMM (see `conv_gemm` for the
/// small-`Cout` transposed variant); naive kernel mode takes
/// [`conv2d_direct`].
pub fn conv2d(x: &Tensor, weight: &Tensor, bias: Option<&Tensor>, g: ConvGeom) -> Tensor {
    if crate::kernels::naive_kernels() {
        return conv2d_direct(x, weight, bias, g);
    }
    let [b, cin, h, w] = dims4(x);
    let wd = weight.dims();
    assert_eq!(wd.len(), 4, "conv2d weight must be [Cout,Cin,K,K]");
    let (cout, wcin, k) = (wd[0], wd[1], wd[2]);
    assert_eq!(wcin, cin, "conv2d channel mismatch");
    assert_eq!(wd[3], k, "conv2d kernel must be square");
    assert_eq!(k, g.kernel);
    let ho = g.out_extent(h);
    let wo = g.out_extent(w);

    let col_rows = cin * k * k;
    let cols = ho * wo;
    let mut out = vec![0.0f32; b * cout * cols];
    let img_len = cin * h * w;
    let out_len = cout * cols;

    out.par_chunks_mut(out_len).enumerate().for_each(|(i, ob)| {
        let mut col = vec![0.0f32; col_rows * cols];
        im2col(&x.data()[i * img_len..(i + 1) * img_len], cin, h, w, g, &mut col);
        conv_gemm(weight.data(), &col, ob, cout, col_rows, cols);
        if let Some(bias) = bias {
            for (co, &bv) in bias.data().iter().enumerate().take(cout) {
                for v in &mut ob[co * cols..(co + 1) * cols] {
                    *v += bv;
                }
            }
        }
    });
    Tensor::new([b, cout, ho, wo], out)
}

/// The `out = W · col` product of the im2col lowering, with a transposed
/// escape hatch: when `Cout` is below the packed kernel's `m >= 4`
/// dispatch floor but the problem is big enough to want packing, compute
/// `out^T = col^T · W^T` instead — there `m` is the spatial extent
/// (`cols`), so the packed path applies. The O(k·n + m·n) transposes are
/// noise next to the O(m·k·n) product at these sizes. Summation stays
/// ascending over `k` either way (the packed kernel's KC-order), so the
/// result agrees with the plain product within the usual reassociation
/// bound.
fn conv_gemm(w: &[f32], col: &[f32], ob: &mut [f32], m: usize, k: usize, n: usize) {
    if m < 4 && m * k * n >= PACK_FLOPS && m > 0 {
        let mut colt = vec![0.0f32; k * n];
        transpose(col, k, n, &mut colt);
        let mut wt = vec![0.0f32; m * k];
        transpose(w, m, k, &mut wt);
        let mut obt = vec![0.0f32; m * n];
        gemm_packed(&colt, &wt, &mut obt, n, k, m);
        transpose(&obt, n, m, ob);
    } else {
        gemm(w, col, ob, m, k, n);
    }
}

/// Direct (quadruple-loop) convolution — the im2col lowering's
/// differential ground truth and the naive-mode dispatch target. Same
/// accumulation order as the lowered product (channels, then kernel rows,
/// then kernel columns, ascending; bias added last), so the two agree
/// within reassociation rounding.
pub fn conv2d_direct(x: &Tensor, weight: &Tensor, bias: Option<&Tensor>, g: ConvGeom) -> Tensor {
    let [b, cin, h, w] = dims4(x);
    let wd = weight.dims();
    assert_eq!(wd.len(), 4, "conv2d weight must be [Cout,Cin,K,K]");
    let (cout, wcin, k) = (wd[0], wd[1], wd[2]);
    assert_eq!(wcin, cin, "conv2d channel mismatch");
    assert_eq!(wd[3], k, "conv2d kernel must be square");
    assert_eq!(k, g.kernel);
    let ho = g.out_extent(h);
    let wo = g.out_extent(w);
    let img_len = cin * h * w;
    let out_len = cout * ho * wo;
    let mut out = vec![0.0f32; b * out_len];
    out.par_chunks_mut(out_len).enumerate().for_each(|(bi, ob)| {
        let img = &x.data()[bi * img_len..(bi + 1) * img_len];
        for co in 0..cout {
            let wgt = &weight.data()[co * cin * k * k..(co + 1) * cin * k * k];
            let bv = bias.map_or(0.0, |bb| bb.data()[co]);
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut s = 0.0f32;
                    for ci in 0..cin {
                        for ky in 0..k {
                            let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                s += img[(ci * h + iy as usize) * w + ix as usize]
                                    * wgt[(ci * k + ky) * k + kx];
                            }
                        }
                    }
                    ob[(co * ho + oy) * wo + ox] = s + bv;
                }
            }
        }
    });
    Tensor::new([b, cout, ho, wo], out)
}

/// Backward conv2d. Returns `(grad_x, grad_w, grad_b)`.
pub fn conv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    g: ConvGeom,
) -> (Tensor, Tensor, Tensor) {
    let [b, cin, h, w] = dims4(x);
    let cout = weight.dims()[0];
    let k = g.kernel;
    let ho = g.out_extent(h);
    let wo = g.out_extent(w);
    let cols = ho * wo;
    let col_rows = cin * k * k;
    let img_len = cin * h * w;
    let out_len = cout * cols;

    // Per-batch partials, reduced after the parallel loop to avoid locking.
    let partials: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = (0..b)
        .into_par_iter()
        .map(|i| {
            let xi = &x.data()[i * img_len..(i + 1) * img_len];
            let goi = &grad_out.data()[i * out_len..(i + 1) * out_len];

            let mut col = vec![0.0f32; col_rows * cols];
            im2col(xi, cin, h, w, g, &mut col);

            // grad_w += grad_out [Cout, cols] x col^T [cols, col_rows]
            let mut colt = vec![0.0f32; cols * col_rows];
            transpose(&col, col_rows, cols, &mut colt);
            let mut gw = vec![0.0f32; cout * col_rows];
            gemm(goi, &colt, &mut gw, cout, cols, col_rows);

            // grad_b += sum over spatial
            let mut gb = vec![0.0f32; cout];
            for co in 0..cout {
                gb[co] = goi[co * cols..(co + 1) * cols].iter().sum();
            }

            // grad_col = W^T [col_rows, Cout] x grad_out [Cout, cols]
            let mut wt = vec![0.0f32; col_rows * cout];
            transpose(weight.data(), cout, col_rows, &mut wt);
            let mut gcol = vec![0.0f32; col_rows * cols];
            gemm(&wt, goi, &mut gcol, col_rows, cout, cols);
            let mut gx = vec![0.0f32; img_len];
            col2im(&gcol, cin, h, w, g, &mut gx);

            (gx, gw, gb)
        })
        .collect();

    let mut grad_x = vec![0.0f32; b * img_len];
    let mut grad_w = vec![0.0f32; weight.numel()];
    let mut grad_b = vec![0.0f32; cout];
    for (i, (gx, gw, gb)) in partials.into_iter().enumerate() {
        grad_x[i * img_len..(i + 1) * img_len].copy_from_slice(&gx);
        for (d, s) in grad_w.iter_mut().zip(gw.iter()) {
            *d += s;
        }
        for (d, s) in grad_b.iter_mut().zip(gb.iter()) {
            *d += s;
        }
    }
    (
        Tensor::new(x.shape().clone(), grad_x),
        Tensor::new(weight.shape().clone(), grad_w),
        Tensor::new([cout], grad_b),
    )
}

/// Forward transposed conv2d (a.k.a. deconvolution):
/// `x [B,Cin,H,W] * w [Cin,Cout,K,K] + b [Cout]` -> `[B,Cout,Ho,Wo]`
/// with `Ho = (H-1)*stride + K - 2*pad`.
pub fn conv_transpose2d(x: &Tensor, weight: &Tensor, bias: Option<&Tensor>, g: ConvGeom) -> Tensor {
    let [b, cin, h, w] = dims4(x);
    let wd = weight.dims();
    assert_eq!(wd.len(), 4, "conv_transpose2d weight must be [Cin,Cout,K,K]");
    assert_eq!(wd[0], cin, "conv_transpose2d channel mismatch");
    let cout = wd[1];
    let k = wd[2];
    assert_eq!(k, g.kernel);
    let ho = g.transpose_out_extent(h);
    let wo = g.transpose_out_extent(w);

    let col_rows = cout * k * k;
    let cols = h * w;
    let img_len = cin * cols;
    let out_len = cout * ho * wo;

    // W viewed [Cin, Cout*K*K]; tmp = W^T x_b : [Cout*K*K, H*W]; out = col2im(tmp).
    let mut wt = vec![0.0f32; col_rows * cin];
    transpose(weight.data(), cin, col_rows, &mut wt);

    let mut out = vec![0.0f32; b * out_len];
    out.par_chunks_mut(out_len).enumerate().for_each(|(i, ob)| {
        let xi = &x.data()[i * img_len..(i + 1) * img_len];
        let mut tmp = vec![0.0f32; col_rows * cols];
        gemm(&wt, xi, &mut tmp, col_rows, cin, cols);
        col2im(&tmp, cout, ho, wo, g, ob);
        if let Some(bias) = bias {
            let spatial = ho * wo;
            for (co, &bv) in bias.data().iter().enumerate().take(cout) {
                for v in &mut ob[co * spatial..(co + 1) * spatial] {
                    *v += bv;
                }
            }
        }
    });
    Tensor::new([b, cout, ho, wo], out)
}

/// Backward transposed conv2d. Returns `(grad_x, grad_w, grad_b)`.
pub fn conv_transpose2d_backward(
    x: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    g: ConvGeom,
) -> (Tensor, Tensor, Tensor) {
    let [b, cin, h, w] = dims4(x);
    let cout = weight.dims()[1];
    let k = g.kernel;
    let ho = g.transpose_out_extent(h);
    let wo = g.transpose_out_extent(w);
    let cols = h * w;
    let col_rows = cout * k * k;
    let img_len = cin * cols;
    let out_len = cout * ho * wo;

    let partials: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = (0..b)
        .into_par_iter()
        .map(|i| {
            let xi = &x.data()[i * img_len..(i + 1) * img_len];
            let goi = &grad_out.data()[i * out_len..(i + 1) * out_len];

            // grad wrt tmp = im2col(grad_out): [Cout*K*K, H*W]
            let mut gcol = vec![0.0f32; col_rows * cols];
            im2col(goi, cout, ho, wo, g, &mut gcol);

            // grad_x = W [Cin, Cout*K*K] x gcol
            let mut gx = vec![0.0f32; img_len];
            gemm(weight.data(), &gcol, &mut gx, cin, col_rows, cols);

            // grad_W = x_b [Cin, H*W] x gcol^T [H*W, Cout*K*K]
            let mut gcolt = vec![0.0f32; cols * col_rows];
            transpose(&gcol, col_rows, cols, &mut gcolt);
            let mut gw = vec![0.0f32; cin * col_rows];
            gemm(xi, &gcolt, &mut gw, cin, cols, col_rows);

            let spatial = ho * wo;
            let mut gb = vec![0.0f32; cout];
            for co in 0..cout {
                gb[co] = goi[co * spatial..(co + 1) * spatial].iter().sum();
            }
            (gx, gw, gb)
        })
        .collect();

    let mut grad_x = vec![0.0f32; b * img_len];
    let mut grad_w = vec![0.0f32; weight.numel()];
    let mut grad_b = vec![0.0f32; cout];
    for (i, (gx, gw, gb)) in partials.into_iter().enumerate() {
        grad_x[i * img_len..(i + 1) * img_len].copy_from_slice(&gx);
        for (d, s) in grad_w.iter_mut().zip(gw.iter()) {
            *d += s;
        }
        for (d, s) in grad_b.iter_mut().zip(gb.iter()) {
            *d += s;
        }
    }
    (
        Tensor::new(x.shape().clone(), grad_x),
        Tensor::new(weight.shape().clone(), grad_w),
        Tensor::new([cout], grad_b),
    )
}

/// Dense transpose of an `[r, c]` matrix into `out` (`[c, r]`).
pub fn transpose(a: &[f32], r: usize, c: usize, out: &mut [f32]) {
    assert_eq!(a.len(), r * c);
    assert_eq!(out.len(), r * c);
    for i in 0..r {
        for j in 0..c {
            out[j * r + i] = a[i * c + j];
        }
    }
}

fn dims4(t: &Tensor) -> [usize; 4] {
    let d = t.dims();
    assert_eq!(d.len(), 4, "expected NCHW tensor, got shape {}", t.shape());
    [d[0], d[1], d[2], d[3]]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct conv for verification — the promoted public reference.
    fn conv_naive(x: &Tensor, w: &Tensor, bias: Option<&Tensor>, g: ConvGeom) -> Tensor {
        conv2d_direct(x, w, bias, g)
    }

    fn close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!((x - y).abs() < tol, "{} vs {}", x, y);
        }
    }

    #[test]
    fn geom_extents() {
        let g = ConvGeom { kernel: 3, stride: 1, pad: 1 };
        assert_eq!(g.out_extent(8), 8);
        let g2 = ConvGeom { kernel: 2, stride: 2, pad: 0 };
        assert_eq!(g2.out_extent(8), 4);
        assert_eq!(g2.transpose_out_extent(4), 8);
    }

    #[test]
    fn conv2d_matches_naive() {
        let g = ConvGeom { kernel: 3, stride: 1, pad: 1 };
        let x = Tensor::rand_uniform([2, 3, 6, 5], -1.0, 1.0, 1);
        let w = Tensor::rand_uniform([4, 3, 3, 3], -1.0, 1.0, 2);
        let b = Tensor::rand_uniform([4], -1.0, 1.0, 3);
        close(&conv2d(&x, &w, Some(&b), g), &conv_naive(&x, &w, Some(&b), g), 1e-4);
    }

    #[test]
    fn conv2d_strided_matches_naive() {
        let g = ConvGeom { kernel: 2, stride: 2, pad: 0 };
        let x = Tensor::rand_uniform([1, 2, 8, 8], -1.0, 1.0, 4);
        let w = Tensor::rand_uniform([3, 2, 2, 2], -1.0, 1.0, 5);
        close(&conv2d(&x, &w, None, g), &conv_naive(&x, &w, None, g), 1e-4);
    }

    #[test]
    fn small_cout_head_conv_takes_transposed_packed_path() {
        // cout=2 < 4 with work >= PACK_FLOPS: conv_gemm must route through
        // the transposed packed product and still match the direct conv.
        // (2 * 27 * 256 = 13824 >= 8192.)
        let g = ConvGeom { kernel: 3, stride: 1, pad: 1 };
        let x = Tensor::rand_uniform([1, 3, 16, 16], -1.0, 1.0, 11);
        let w = Tensor::rand_uniform([2, 3, 3, 3], -1.0, 1.0, 12);
        let b = Tensor::rand_uniform([2], -0.5, 0.5, 13);
        close(&conv2d(&x, &w, Some(&b), g), &conv2d_direct(&x, &w, Some(&b), g), 1e-4);
    }

    #[test]
    fn naive_mode_dispatches_to_direct() {
        // In naive mode conv2d must produce conv2d_direct's exact bits
        // (it *is* conv2d_direct), proving SIMD cannot leak into a
        // naive-mode run through the conv path.
        let g = ConvGeom { kernel: 2, stride: 2, pad: 0 };
        let x = Tensor::rand_uniform([2, 2, 8, 8], -1.0, 1.0, 14);
        let w = Tensor::rand_uniform([3, 2, 2, 2], -1.0, 1.0, 15);
        crate::kernels::force_kernel_mode(Some(crate::kernels::KernelMode::Naive));
        let got = conv2d(&x, &w, None, g);
        crate::kernels::force_kernel_mode(None);
        let want = conv2d_direct(&x, &w, None, g);
        assert_eq!(
            got.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> : the defining adjoint property.
        let g = ConvGeom { kernel: 3, stride: 2, pad: 1 };
        let (c, h, w) = (2, 7, 6);
        let ho = g.out_extent(h);
        let wo = g.out_extent(w);
        let x = Tensor::rand_uniform([c, h, w], -1.0, 1.0, 6);
        let y = Tensor::rand_uniform([c * 9, ho * wo], -1.0, 1.0, 7);
        let mut cx = vec![0.0; c * 9 * ho * wo];
        im2col(x.data(), c, h, w, g, &mut cx);
        let lhs: f32 = cx.iter().zip(y.data().iter()).map(|(a, b)| a * b).sum();
        let mut xy = vec![0.0; c * h * w];
        col2im(y.data(), c, h, w, g, &mut xy);
        let rhs: f32 = x.data().iter().zip(xy.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{} vs {}", lhs, rhs);
    }

    #[test]
    fn conv_transpose_2x_upsamples() {
        // kernel 2, stride 2: each input pixel expands to a 2x2 block.
        let g = ConvGeom { kernel: 2, stride: 2, pad: 0 };
        let x = Tensor::new([1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let w = Tensor::new([1, 1, 2, 2], vec![1., 1., 1., 1.]);
        let y = conv_transpose2d(&x, &w, None, g);
        assert_eq!(y.dims(), &[1, 1, 4, 4]);
        assert_eq!(
            y.to_vec(),
            vec![1., 1., 2., 2., 1., 1., 2., 2., 3., 3., 4., 4., 3., 3., 4., 4.]
        );
    }

    #[test]
    fn conv_transpose_is_conv_adjoint() {
        // <conv(x), y> == <x, convT(y)> when convT uses the same weights
        // (with [Cout,Cin,K,K] reinterpreted as [Cin->Cout] layout).
        let g = ConvGeom { kernel: 3, stride: 2, pad: 1 };
        let x = Tensor::rand_uniform([1, 2, 9, 9], -1.0, 1.0, 8);
        let w = Tensor::rand_uniform([3, 2, 3, 3], -1.0, 1.0, 9);
        let y_shape_h = g.out_extent(9);
        let y = Tensor::rand_uniform([1, 3, y_shape_h, y_shape_h], -1.0, 1.0, 10);
        let cx = conv2d(&x, &w, None, g);
        let lhs: f32 = cx.data().iter().zip(y.data().iter()).map(|(a, b)| a * b).sum();
        // Reorder [Cout,Cin,K,K] -> [Cout(in role Cin), Cin(out role), K, K] is identity here:
        // conv_transpose2d expects [Cin,Cout,K,K] with Cin = conv's Cout.
        let mut wt = vec![0.0f32; w.numel()];
        // w[co, ci, ky, kx] -> wt[co, ci, K-1-ky, K-1-kx]? No flip needed for the
        // adjoint through im2col/col2im with identical geometry: conv's adjoint
        // maps grad_out -> grad_in exactly as conv2d_backward does. Verify via
        // conv2d_backward instead, which is the form the autograd uses.
        wt.copy_from_slice(w.data());
        let (gx, _, _) = conv2d_backward(&x, &w, &y, g);
        let rhs: f32 = x.data().iter().zip(gx.data().iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2, "{} vs {}", lhs, rhs);
    }

    #[test]
    fn transpose_round_trip() {
        let a: Vec<f32> = (0..12).map(|x| x as f32).collect();
        let mut t = vec![0.0; 12];
        transpose(&a, 3, 4, &mut t);
        let mut back = vec![0.0; 12];
        transpose(&t, 4, 3, &mut back);
        assert_eq!(a, back);
    }
}
