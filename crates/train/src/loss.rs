//! Loss functions (paper Eq. 7-9): weighted BCE + dice on logits, and
//! softmax cross-entropy for multi-class/classification tasks.

use apf_tensor::prelude::*;

/// Configuration of the combined segmentation loss
/// `L = w * BCE + (1 - w) * Dice`.
#[derive(Debug, Clone, Copy)]
pub struct ComboLossConfig {
    /// BCE weight `w` (paper: 0.5).
    pub bce_weight: f32,
    /// Dice smoothing term `epsilon` (paper: 1.0).
    pub epsilon: f32,
}

impl Default for ComboLossConfig {
    fn default() -> Self {
        ComboLossConfig { bce_weight: 0.5, epsilon: 1.0 }
    }
}

/// Soft dice loss on logits: `1 - (2*sum(p*y) + eps) / (sum p + sum y + eps)`
/// with `p = sigmoid(logits)`. Returns a scalar graph node.
pub fn dice_loss(g: &mut Graph, logits: Var, targets: Var, epsilon: f32) -> Var {
    assert_eq!(
        g.value(logits).shape(),
        g.value(targets).shape(),
        "dice_loss shape mismatch"
    );
    let p = g.sigmoid(logits);
    let inter = g.mul(p, targets);
    let inter = g.sum_all(inter);
    let num = g.scale(inter, 2.0);
    let num = g.add_scalar(num, epsilon);
    let psum = g.sum_all(p);
    let ysum = g.sum_all(targets);
    let den = g.add(psum, ysum);
    let den = g.add_scalar(den, epsilon);
    let ratio = g.div(num, den);
    let neg = g.scale(ratio, -1.0);
    g.add_scalar(neg, 1.0)
}

/// The paper's combined loss (Eq. 7): `w * BCE + (1 - w) * Dice`.
pub fn combo_loss(g: &mut Graph, logits: Var, targets: Var, cfg: ComboLossConfig) -> Var {
    let bce = g.bce_with_logits(logits, targets);
    let dice = dice_loss(g, logits, targets, cfg.epsilon);
    let wb = g.scale(bce, cfg.bce_weight);
    let wd = g.scale(dice, 1.0 - cfg.bce_weight);
    g.add(wb, wd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dice_loss_zero_for_perfect_confident_prediction() {
        let mut g = Graph::new();
        // Very large logits -> p ~ 1 where y = 1, p ~ 0 where y = 0.
        let logits = g.constant(Tensor::new([4], vec![20.0, -20.0, 20.0, -20.0]));
        let y = g.constant(Tensor::new([4], vec![1.0, 0.0, 1.0, 0.0]));
        let l = dice_loss(&mut g, logits, y, 1.0);
        assert!(g.value(l).item() < 0.01, "{}", g.value(l).item());
    }

    #[test]
    fn dice_loss_high_for_inverted_prediction() {
        let mut g = Graph::new();
        let logits = g.constant(Tensor::new([4], vec![-20.0, 20.0, -20.0, 20.0]));
        let y = g.constant(Tensor::new([4], vec![1.0, 0.0, 1.0, 0.0]));
        let l = dice_loss(&mut g, logits, y, 1.0);
        assert!(g.value(l).item() > 0.7, "{}", g.value(l).item());
    }

    #[test]
    fn dice_loss_in_unit_interval() {
        for seed in 0..5 {
            let mut g = Graph::new();
            let logits = g.constant(Tensor::rand_uniform([32], -3.0, 3.0, seed));
            let y = g.constant(Tensor::rand_uniform([32], 0.0, 1.0, seed + 100).map(f32::round));
            let l = dice_loss(&mut g, logits, y, 1.0);
            let v = g.value(l).item();
            assert!((0.0..=1.0).contains(&v), "dice loss {}", v);
        }
    }

    #[test]
    fn combo_loss_matches_manual_combination() {
        let logits = Tensor::rand_uniform([16], -2.0, 2.0, 1);
        let y = Tensor::rand_uniform([16], 0.0, 1.0, 2).map(f32::round);
        let cfg = ComboLossConfig { bce_weight: 0.3, epsilon: 1.0 };

        let mut g = Graph::new();
        let lv = g.constant(logits.clone());
        let yv = g.constant(y.clone());
        let combo = combo_loss(&mut g, lv, yv, cfg);

        let mut g2 = Graph::new();
        let lv2 = g2.constant(logits);
        let yv2 = g2.constant(y);
        let bce = g2.bce_with_logits(lv2, yv2);
        let dice = dice_loss(&mut g2, lv2, yv2, 1.0);
        let manual = 0.3 * g2.value(bce).item() + 0.7 * g2.value(dice).item();

        assert!((g.value(combo).item() - manual).abs() < 1e-5);
    }

    #[test]
    fn combo_loss_gradient_flows() {
        let mut g = Graph::new();
        let logits = g.leaf(Tensor::rand_uniform([8], -1.0, 1.0, 3));
        let y = g.constant(Tensor::rand_uniform([8], 0.0, 1.0, 4).map(f32::round));
        let l = combo_loss(&mut g, logits, y, ComboLossConfig::default());
        g.backward(l);
        let grad = g.grad(logits).unwrap();
        assert!(grad.norm() > 0.0);
        assert!(!grad.has_non_finite());
    }

    #[test]
    fn combo_loss_decreases_toward_target() {
        // One step of gradient descent on the loss must reduce it.
        let mut x = Tensor::rand_uniform([16], -1.0, 1.0, 5);
        let y = Tensor::rand_uniform([16], 0.0, 1.0, 6).map(f32::round);
        let loss_at = |x: &Tensor| {
            let mut g = Graph::new();
            let lv = g.constant(x.clone());
            let yv = g.constant(y.clone());
            let l = combo_loss(&mut g, lv, yv, ComboLossConfig::default());
            g.value(l).item()
        };
        let before = loss_at(&x);
        let mut g = Graph::new();
        let lv = g.leaf(x.clone());
        let yv = g.constant(y.clone());
        let l = combo_loss(&mut g, lv, yv, ComboLossConfig::default());
        g.backward(l);
        let grad = g.grad(lv).unwrap().clone();
        x = x.sub(&grad.scale(1.0));
        assert!(loss_at(&x) < before);
    }
}
