//! Token/grid/window rearrangements as gather index builders.
//!
//! Every layout change in the models — splitting attention heads, folding a
//! Z-ordered token sequence into a 2D grid for a convolutional decoder,
//! (shifted) window partitioning for Swin — is expressed as one
//! `gather_rows` over a precomputed index vector. That keeps the autograd
//! op set tiny (one scatter-add backward covers them all) and makes each
//! layout bijection independently testable.

use std::sync::Arc;

use apf_core::morton::{morton_decode, morton_encode};
use apf_tensor::prelude::*;

/// `[B, L, H*Dh]` -> `[B*H, L, Dh]` (split heads for attention).
pub fn split_heads(g: &mut Graph, x: Var, b: usize, l: usize, h: usize, dh: usize) -> Var {
    let x = g.reshape(x, [b * l * h, dh]);
    let mut idx = Vec::with_capacity(b * h * l);
    for bi in 0..b {
        for hi in 0..h {
            for li in 0..l {
                idx.push(((bi * l + li) * h + hi) as u32);
            }
        }
    }
    g.gather_rows(x, Arc::new(idx), [b * h, l, dh])
}

/// `[B*H, L, Dh]` -> `[B, L, H*Dh]` (merge heads after attention).
pub fn merge_heads(g: &mut Graph, x: Var, b: usize, l: usize, h: usize, dh: usize) -> Var {
    let x = g.reshape(x, [b * h * l, dh]);
    let mut idx = Vec::with_capacity(b * l * h);
    for bi in 0..b {
        for li in 0..l {
            for hi in 0..h {
                idx.push(((bi * h + hi) * l + li) as u32);
            }
        }
    }
    g.gather_rows(x, Arc::new(idx), [b, l, h * dh])
}

/// How a token sequence maps onto a `side x side` grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridOrder {
    /// Token `i` sits at `(i % side, i / side)` — uniform ViT patch order.
    RowMajor,
    /// Token `i` sits at `morton_decode(i)` — preserves the 2D locality of
    /// a Z-ordered APF sequence, so a conv decoder sees nearby patches as
    /// nearby pixels.
    Morton,
}

impl GridOrder {
    /// Grid cell of token `i`.
    #[inline]
    pub fn cell(&self, i: usize, side: usize) -> (usize, usize) {
        match self {
            GridOrder::RowMajor => (i % side, i / side),
            GridOrder::Morton => {
                let (x, y) = morton_decode(i as u64);
                (x as usize, y as usize)
            }
        }
    }

    /// Token index of grid cell `(x, y)`.
    #[inline]
    pub fn token(&self, x: usize, y: usize, side: usize) -> usize {
        match self {
            GridOrder::RowMajor => y * side + x,
            GridOrder::Morton => morton_encode(x as u32, y as u32) as usize,
        }
    }
}

/// `[B, L, D]` tokens -> `[B, D, side, side]` feature map (`L = side²`).
pub fn tokens_to_grid(g: &mut Graph, x: Var, b: usize, side: usize, d: usize, order: GridOrder) -> Var {
    let l = side * side;
    // Rows of size 1: full elementwise permutation.
    let x = g.reshape(x, [b * l * d, 1]);
    let mut idx = Vec::with_capacity(b * d * l);
    for bi in 0..b {
        for di in 0..d {
            for y in 0..side {
                for xx in 0..side {
                    let t = order.token(xx, y, side);
                    idx.push(((bi * l + t) * d + di) as u32);
                }
            }
        }
    }
    g.gather_rows(x, Arc::new(idx), [b, d, side, side])
}

/// `[B, D, side, side]` feature map -> `[B, L, D]` tokens (inverse of
/// [`tokens_to_grid`]).
pub fn grid_to_tokens(g: &mut Graph, x: Var, b: usize, side: usize, d: usize, order: GridOrder) -> Var {
    let l = side * side;
    let x = g.reshape(x, [b * d * l, 1]);
    let mut idx = Vec::with_capacity(b * l * d);
    for bi in 0..b {
        for t in 0..l {
            let (cx, cy) = order.cell(t, side);
            for di in 0..d {
                idx.push(((bi * d + di) * l + cy * side + cx) as u32);
            }
        }
    }
    g.gather_rows(x, Arc::new(idx), [b, l, d])
}

/// Extracts per-token patch predictions from a decoded pseudo-image:
/// `[B, C, side*p, side*p]` -> `[B, L, C*p*p]` where token `i` covers the
/// `p x p` block at its grid cell. `C` is typically 1 (binary masks).
pub fn image_to_token_patches(
    g: &mut Graph,
    x: Var,
    b: usize,
    c: usize,
    side: usize,
    p: usize,
    order: GridOrder,
) -> Var {
    let full = side * p;
    let l = side * side;
    let x = g.reshape(x, [b * c * full * full, 1]);
    let mut idx = Vec::with_capacity(b * l * c * p * p);
    for bi in 0..b {
        for t in 0..l {
            let (cx, cy) = order.cell(t, side);
            for ci in 0..c {
                for py in 0..p {
                    for px in 0..p {
                        let gy = cy * p + py;
                        let gx = cx * p + px;
                        idx.push((((bi * c + ci) * full + gy) * full + gx) as u32);
                    }
                }
            }
        }
    }
    g.gather_rows(x, Arc::new(idx), [b, l, c * p * p])
}

/// Window partition for Swin attention: `[B, L, D]` tokens on a `side x
/// side` grid -> `[B*nw, wsz*wsz, D]` windows of side `wsz`, optionally
/// cyclically shifted by `shift` pixels (the "shifted window" of Swin).
#[allow(clippy::too_many_arguments)]
pub fn window_partition(
    g: &mut Graph,
    x: Var,
    b: usize,
    side: usize,
    d: usize,
    wsz: usize,
    shift: usize,
    order: GridOrder,
) -> Var {
    assert!(side.is_multiple_of(wsz), "window size must divide grid side");
    let l = side * side;
    let nw = (side / wsz) * (side / wsz);
    let x = g.reshape(x, [b * l, d]);
    let mut idx = Vec::with_capacity(b * l);
    for bi in 0..b {
        for wy in 0..side / wsz {
            for wx in 0..side / wsz {
                for iy in 0..wsz {
                    for ix in 0..wsz {
                        // Cyclic shift: window (wx, wy) reads from the
                        // shifted grid.
                        let gy = (wy * wsz + iy + shift) % side;
                        let gx = (wx * wsz + ix + shift) % side;
                        let t = order.token(gx, gy, side);
                        idx.push((bi * l + t) as u32);
                    }
                }
            }
        }
    }
    g.gather_rows(x, Arc::new(idx), [b * nw, wsz * wsz, d])
}

/// Inverse of [`window_partition`].
#[allow(clippy::too_many_arguments)]
pub fn window_reverse(
    g: &mut Graph,
    x: Var,
    b: usize,
    side: usize,
    d: usize,
    wsz: usize,
    shift: usize,
    order: GridOrder,
) -> Var {
    let l = side * side;
    let x = g.reshape(x, [b * l, d]);
    let mut idx = vec![0u32; b * l];
    let mut src = 0u32;
    for bi in 0..b {
        for wy in 0..side / wsz {
            for wx in 0..side / wsz {
                for iy in 0..wsz {
                    for ix in 0..wsz {
                        let gy = (wy * wsz + iy + shift) % side;
                        let gx = (wx * wsz + ix + shift) % side;
                        let t = order.token(gx, gy, side);
                        idx[bi * l + t] = src;
                        src += 1;
                    }
                }
            }
        }
    }
    g.gather_rows(x, Arc::new(idx), [b, l, d])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(b: usize, l: usize, d: usize) -> Tensor {
        Tensor::new([b, l, d], (0..b * l * d).map(|i| i as f32).collect::<Vec<_>>())
    }

    #[test]
    fn split_merge_heads_round_trip() {
        let (b, l, h, dh) = (2, 3, 2, 4);
        let t = seq_tensor(b, l, h * dh);
        let mut g = Graph::new();
        let x = g.constant(t.clone());
        let s = split_heads(&mut g, x, b, l, h, dh);
        assert_eq!(g.value(s).dims(), &[b * h, l, dh]);
        let m = merge_heads(&mut g, s, b, l, h, dh);
        assert_eq!(g.value(m).to_vec(), t.to_vec());
    }

    #[test]
    fn split_heads_places_correct_elements() {
        let (b, l, h, dh) = (1, 2, 2, 2);
        // token 0 = [0,1,2,3] (head0=[0,1], head1=[2,3]), token 1 = [4..8)
        let t = seq_tensor(b, l, h * dh);
        let mut g = Graph::new();
        let x = g.constant(t);
        let s = split_heads(&mut g, x, b, l, h, dh);
        // [B*H, L, Dh]: head 0 = [[0,1],[4,5]], head 1 = [[2,3],[6,7]]
        assert_eq!(g.value(s).to_vec(), vec![0., 1., 4., 5., 2., 3., 6., 7.]);
    }

    #[test]
    fn tokens_grid_round_trip_both_orders() {
        for order in [GridOrder::RowMajor, GridOrder::Morton] {
            let (b, side, d) = (2, 4, 3);
            let t = seq_tensor(b, side * side, d);
            let mut g = Graph::new();
            let x = g.constant(t.clone());
            let grid = tokens_to_grid(&mut g, x, b, side, d, order);
            assert_eq!(g.value(grid).dims(), &[b, d, side, side]);
            let back = grid_to_tokens(&mut g, grid, b, side, d, order);
            assert_eq!(g.value(back).to_vec(), t.to_vec());
        }
    }

    #[test]
    fn morton_grid_keeps_z_blocks_contiguous() {
        // Tokens 0..4 (first Z block) must land in the top-left 2x2 cell.
        let side = 4;
        let t = Tensor::new([1, 16, 1], (0..16).map(|i| i as f32).collect::<Vec<_>>());
        let mut g = Graph::new();
        let x = g.constant(t);
        let grid = tokens_to_grid(&mut g, x, 1, side, 1, GridOrder::Morton);
        let v = g.value(grid);
        let cell = |x: usize, y: usize| v.data()[y * side + x];
        assert_eq!(cell(0, 0), 0.0);
        assert_eq!(cell(1, 0), 1.0);
        assert_eq!(cell(0, 1), 2.0);
        assert_eq!(cell(1, 1), 3.0);
        assert_eq!(cell(2, 0), 4.0);
    }

    #[test]
    fn image_to_token_patches_extracts_blocks() {
        // 1 channel, side 2, p 2 -> full 4x4 image, 4 tokens of 4 px.
        let img: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let t = Tensor::new([1, 1, 4, 4], img);
        let mut g = Graph::new();
        let x = g.constant(t);
        let toks = image_to_token_patches(&mut g, x, 1, 1, 2, 2, GridOrder::RowMajor);
        assert_eq!(g.value(toks).dims(), &[1, 4, 4]);
        // Token 0 = top-left 2x2 block = [0,1,4,5].
        assert_eq!(&g.value(toks).to_vec()[..4], &[0., 1., 4., 5.]);
        // Token 3 = bottom-right block = [10,11,14,15].
        assert_eq!(&g.value(toks).to_vec()[12..], &[10., 11., 14., 15.]);
    }

    #[test]
    fn window_partition_reverse_round_trip() {
        for shift in [0usize, 1] {
            for order in [GridOrder::RowMajor, GridOrder::Morton] {
                let (b, side, d, wsz) = (2, 4, 3, 2);
                let t = seq_tensor(b, side * side, d);
                let mut g = Graph::new();
                let x = g.constant(t.clone());
                let w = window_partition(&mut g, x, b, side, d, wsz, shift, order);
                assert_eq!(g.value(w).dims(), &[b * 4, 4, d]);
                let back = window_reverse(&mut g, w, b, side, d, wsz, shift, order);
                assert_eq!(g.value(back).to_vec(), t.to_vec(), "shift={}", shift);
            }
        }
    }

    #[test]
    fn windows_group_spatial_neighbours() {
        // With row-major order, window 0 of a 4x4 grid with wsz=2 holds
        // tokens 0, 1, 4, 5.
        let t = Tensor::new([1, 16, 1], (0..16).map(|i| i as f32).collect::<Vec<_>>());
        let mut g = Graph::new();
        let x = g.constant(t);
        let w = window_partition(&mut g, x, 1, 4, 1, 2, 0, GridOrder::RowMajor);
        assert_eq!(&g.value(w).to_vec()[..4], &[0., 1., 4., 5.]);
    }
}
