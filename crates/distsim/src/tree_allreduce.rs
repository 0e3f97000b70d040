//! Binary-tree all-reduce (reduce-to-root + broadcast) as an analytic
//! cost model — the classic alternative to the ring, better for small
//! messages (O(log P) latency) and worse for large ones (the root link
//! carries full buffers). `repro --exp scaling` prints it next to
//! [`ring_allreduce_seconds`](crate::allreduce::ring_allreduce_seconds) at
//! Frontier scale.

use crate::gpu::Fabric;

/// Predicted seconds for a tree all-reduce of `bytes` over `gpus` devices:
/// `2 * log2(P)` hops each carrying the full buffer.
pub fn tree_allreduce_seconds(bytes: f64, gpus: usize, fabric: &Fabric) -> f64 {
    if gpus <= 1 {
        return 0.0;
    }
    let hops = 2.0 * (gpus as f64).log2().ceil();
    let bw = fabric.ring_bandwidth(gpus);
    let lat = fabric.ring_latency(gpus);
    hops * (bytes / bw + lat)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_tradeoff_ring_vs_tree() {
        let f = Fabric::frontier();
        // Small message, many GPUs: tree's O(log P) latency wins.
        let small = 1e3;
        let t_tree = tree_allreduce_seconds(small, 1024, &f);
        let t_ring = crate::allreduce::ring_allreduce_seconds(small, 1024, &f);
        assert!(t_tree < t_ring, "tree {} vs ring {}", t_tree, t_ring);
        // Large message: ring's (P-1)/P bandwidth term wins.
        let large = 1e9;
        let t_tree = tree_allreduce_seconds(large, 64, &f);
        let t_ring = crate::allreduce::ring_allreduce_seconds(large, 64, &f);
        assert!(t_ring < t_tree, "ring {} vs tree {}", t_ring, t_tree);
    }
}
