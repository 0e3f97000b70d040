//! Optimizers: AdamW (decoupled weight decay) with a step-decay schedule —
//! the paper's training setup (AdamW, lr 1e-4, decay 0.1 at milestones).

use apf_models::checkpoint::TrainState;
use apf_models::params::{ParamId, ParamSet};
use apf_tensor::tensor::Tensor;

/// AdamW hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdamWConfig {
    /// Initial learning rate (paper: 1e-4).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical epsilon.
    pub eps: f32,
    /// Decoupled weight decay coefficient.
    pub weight_decay: f32,
}

impl Default for AdamWConfig {
    fn default() -> Self {
        AdamWConfig {
            lr: 1e-4,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
        }
    }
}

/// Step decay: multiply the learning rate by `gamma` at each milestone
/// (paper: 0.1 at epochs [500, 750, 875]).
#[derive(Debug, Clone)]
pub struct StepDecay {
    /// Epochs at which the rate decays.
    pub milestones: Vec<usize>,
    /// Multiplicative decay factor.
    pub gamma: f32,
}

impl StepDecay {
    /// The paper's schedule.
    pub fn paper() -> Self {
        StepDecay { milestones: vec![500, 750, 875], gamma: 0.1 }
    }

    /// Learning-rate multiplier at `epoch`.
    pub fn factor(&self, epoch: usize) -> f32 {
        let passed = self.milestones.iter().filter(|&&m| epoch >= m).count();
        self.gamma.powi(passed as i32)
    }
}

/// AdamW optimizer with per-parameter moment state.
///
/// `Clone` is intentional: the fault-tolerant training loop snapshots the
/// optimizer alongside the parameters so a bad step (NaN/Inf loss) can be
/// rolled back exactly.
#[derive(Clone)]
pub struct AdamW {
    cfg: AdamWConfig,
    /// (m, v) per parameter slot, lazily initialized.
    state: Vec<Option<(Tensor, Tensor)>>,
    step: u64,
    schedule: Option<StepDecay>,
    epoch: usize,
    /// Multiplier applied on top of the schedule; halved by the NaN guard.
    lr_scale: f32,
}

impl AdamW {
    /// Creates the optimizer for a parameter set of known arity.
    pub fn new(cfg: AdamWConfig, param_count: usize) -> Self {
        AdamW {
            cfg,
            state: (0..param_count).map(|_| None).collect(),
            step: 0,
            schedule: None,
            epoch: 0,
            lr_scale: 1.0,
        }
    }

    /// Attaches a step-decay schedule.
    pub fn with_schedule(mut self, schedule: StepDecay) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Informs the optimizer of the current epoch (drives the schedule).
    pub fn set_epoch(&mut self, epoch: usize) {
        self.epoch = epoch;
    }

    /// Effective learning rate right now.
    pub fn current_lr(&self) -> f32 {
        let f = self.schedule.as_ref().map_or(1.0, |s| s.factor(self.epoch));
        self.cfg.lr * f * self.lr_scale
    }

    /// Multiplies the learning-rate scale (the NaN guard passes 0.5).
    pub fn scale_lr(&mut self, factor: f32) {
        self.lr_scale *= factor;
    }

    /// The current learning-rate scale.
    pub fn lr_scale(&self) -> f32 {
        self.lr_scale
    }

    /// Number of optimizer steps taken so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Read access to the per-parameter `(m, v)` moment slots.
    pub fn moments(&self) -> &[Option<(Tensor, Tensor)>] {
        &self.state
    }

    /// Packs the optimizer's state into a checkpointable [`TrainState`]:
    /// moment tensors as `opt.m.<i>` / `opt.v.<i>`, the step counter as
    /// `opt.step`, and the learning-rate scale as `opt.lr_scale`.
    pub fn export_state(&self) -> TrainState {
        let mut state = TrainState::default();
        for (i, slot) in self.state.iter().enumerate() {
            if let Some((m, v)) = slot {
                state.aux.push((format!("opt.m.{i}"), m.clone()));
                state.aux.push((format!("opt.v.{i}"), v.clone()));
            }
        }
        state.counters.push(("opt.step".to_string(), self.step));
        state.scalars.push(("opt.lr_scale".to_string(), self.lr_scale));
        state
    }

    /// Restores moment tensors, step counter, and learning-rate scale from
    /// a [`TrainState`] produced by [`AdamW::export_state`]. Entries for
    /// parameter indices beyond this optimizer's arity are ignored, as are
    /// unrelated aux tensors.
    pub fn import_state(&mut self, state: &TrainState) {
        for (name, tensor) in &state.aux {
            let (which, idx) = match name.strip_prefix("opt.m.") {
                Some(i) => ('m', i),
                None => match name.strip_prefix("opt.v.") {
                    Some(i) => ('v', i),
                    None => continue,
                },
            };
            let Ok(idx) = idx.parse::<usize>() else { continue };
            if idx >= self.state.len() {
                continue;
            }
            let slot = self.state[idx].get_or_insert_with(|| {
                (
                    Tensor::zeros(tensor.shape().clone()),
                    Tensor::zeros(tensor.shape().clone()),
                )
            });
            match which {
                'm' => slot.0 = tensor.clone(),
                _ => slot.1 = tensor.clone(),
            }
        }
        if let Some(step) = state.counter("opt.step") {
            self.step = step;
        }
        if let Some(scale) = state.scalar("opt.lr_scale") {
            self.lr_scale = scale;
        }
    }

    /// Applies one AdamW update for each `(id, grad)` pair.
    pub fn step(&mut self, params: &mut ParamSet, grads: &[(ParamId, Tensor)]) {
        self.step += 1;
        let t = self.step as f32;
        let bc1 = 1.0 - self.cfg.beta1.powf(t);
        let bc2 = 1.0 - self.cfg.beta2.powf(t);
        let lr = self.current_lr();
        let (b1, b2, eps, wd) = (self.cfg.beta1, self.cfg.beta2, self.cfg.eps, self.cfg.weight_decay);

        for (id, grad) in grads {
            let slot = &mut self.state[id.index()];
            let (m, v) = slot.get_or_insert_with(|| {
                (
                    Tensor::zeros(grad.shape().clone()),
                    Tensor::zeros(grad.shape().clone()),
                )
            });
            *m = m.scale(b1).add(&grad.scale(1.0 - b1));
            *v = v.scale(b2).add(&grad.zip_with(grad, |a, b| a * b).scale(1.0 - b2));
            let mhat = m.scale(1.0 / bc1);
            let vhat = v.scale(1.0 / bc2);
            let update = mhat.zip_with(&vhat, |mi, vi| mi / (vi.sqrt() + eps));

            let p = params.get_mut(*id);
            // Decoupled weight decay, then the Adam step.
            let decayed = p.scale(1.0 - lr * wd);
            *p = decayed.sub(&update.scale(lr));
        }
    }
}

/// Clips gradients to a maximum global L2 norm, in place.
///
/// Returns the pre-clip norm. When it exceeds `max_norm`, every gradient is
/// scaled by `max_norm / norm` so the joint update direction is preserved.
pub fn clip_grad_norm(grads: &mut [(ParamId, Tensor)], max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let sq_sum: f64 = grads
        .iter()
        .flat_map(|(_, g)| g.data().iter())
        .map(|&v| (v as f64) * (v as f64))
        .sum();
    let norm = sq_sum.sqrt() as f32;
    if norm > max_norm && norm.is_finite() {
        let scale = max_norm / norm;
        for (_, g) in grads.iter_mut() {
            *g = g.scale(scale);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_models::params::ParamSet;

    #[test]
    fn step_decay_factors() {
        let s = StepDecay::paper();
        assert_eq!(s.factor(0), 1.0);
        assert_eq!(s.factor(499), 1.0);
        assert!((s.factor(500) - 0.1).abs() < 1e-7);
        assert!((s.factor(800) - 0.01).abs() < 1e-8);
        assert!((s.factor(900) - 0.001).abs() < 1e-9);
    }

    #[test]
    fn adamw_reduces_quadratic_loss() {
        // Minimize ||x - 3||^2 with AdamW.
        let mut ps = ParamSet::new();
        let id = ps.add("x", Tensor::zeros([4]));
        let mut opt = AdamW::new(
            AdamWConfig { lr: 0.1, weight_decay: 0.0, ..Default::default() },
            ps.len(),
        );
        for _ in 0..200 {
            let x = ps.get(id).clone();
            let grad = x.map(|v| 2.0 * (v - 3.0));
            opt.step(&mut ps, &[(id, grad)]);
        }
        for &v in ps.get(id).data() {
            assert!((v - 3.0).abs() < 0.05, "converged to {}", v);
        }
    }

    #[test]
    fn weight_decay_shrinks_unused_params() {
        let mut ps = ParamSet::new();
        let id = ps.add("x", Tensor::ones([2]));
        let mut opt = AdamW::new(
            AdamWConfig { lr: 0.1, weight_decay: 0.5, ..Default::default() },
            ps.len(),
        );
        for _ in 0..20 {
            opt.step(&mut ps, &[(id, Tensor::zeros([2]))]);
        }
        assert!(ps.get(id).data()[0] < 0.5, "decay had no effect");
    }

    #[test]
    fn schedule_lowers_effective_lr() {
        let mut opt = AdamW::new(AdamWConfig::default(), 0)
            .with_schedule(StepDecay { milestones: vec![10], gamma: 0.1 });
        assert!((opt.current_lr() - 1e-4).abs() < 1e-9);
        opt.set_epoch(10);
        assert!((opt.current_lr() - 1e-5).abs() < 1e-10);
    }

    #[test]
    fn lr_scale_compounds_with_schedule() {
        let mut opt = AdamW::new(AdamWConfig::default(), 0)
            .with_schedule(StepDecay { milestones: vec![10], gamma: 0.1 });
        opt.scale_lr(0.5);
        opt.scale_lr(0.5);
        assert!((opt.lr_scale() - 0.25).abs() < 1e-9);
        assert!((opt.current_lr() - 2.5e-5).abs() < 1e-10);
        opt.set_epoch(10);
        assert!((opt.current_lr() - 2.5e-6).abs() < 1e-11);
    }

    #[test]
    fn cloned_optimizer_steps_identically() {
        let mut ps = ParamSet::new();
        let id = ps.add("x", Tensor::ones([3]));
        let mut a = AdamW::new(AdamWConfig { lr: 0.05, ..Default::default() }, ps.len());
        // Warm up so the moment state is non-trivial before the snapshot.
        for _ in 0..3 {
            a.step(&mut ps, &[(id, Tensor::ones([3]))]);
        }
        let mut b = a.clone();
        let mut ps_b = ps.clone();
        a.step(&mut ps, &[(id, Tensor::ones([3]))]);
        b.step(&mut ps_b, &[(id, Tensor::ones([3]))]);
        assert_eq!(ps.get(id).to_vec(), ps_b.get(id).to_vec());
        assert_eq!(a.step_count(), b.step_count());
    }

    #[test]
    fn clip_grad_norm_scales_only_when_needed() {
        let id = ParamSet::new().add("x", Tensor::zeros([1]));
        let mut grads = vec![(id, Tensor::new([4], vec![3.0, 0.0, 4.0, 0.0]))];
        // Norm 5 > 1: clipped to unit norm, direction preserved.
        let pre = clip_grad_norm(&mut grads, 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let clipped = grads[0].1.to_vec();
        assert!((clipped[0] - 0.6).abs() < 1e-6);
        assert!((clipped[2] - 0.8).abs() < 1e-6);
        // Norm 1 <= 10: untouched.
        let pre2 = clip_grad_norm(&mut grads, 10.0);
        assert!((pre2 - 1.0).abs() < 1e-6);
        assert_eq!(grads[0].1.to_vec(), clipped);
    }
}
