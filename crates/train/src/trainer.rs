//! Training loops: token-sequence segmentation, image segmentation, and
//! classification, with per-epoch history for the stability figures.

use std::sync::Arc;
use std::time::Instant;

use apf_core::patchify::reconstruct_mask;
use apf_models::params::{BoundParams, ParamId, ParamSet};
use apf_models::swin::SwinUnetr;
use apf_models::unetr::Unetr2d;
use apf_models::vit::{ViTClassifier, ViTSegmenter};
use apf_telemetry::{Histogram, Telemetry};
use apf_tensor::prelude::*;
use serde::Serialize;

use crate::data::TokenSegDataset;
use crate::loss::{combo_loss, ComboLossConfig};
use crate::metrics::{dice_score, top1_accuracy};
use crate::optim::{AdamW, AdamWConfig};

/// Any model mapping token sequences `[B, L, P²]` to per-token logits
/// `[B, L, P²]`.
pub trait TokenSegModel {
    /// The model's parameters.
    fn params(&self) -> &ParamSet;
    /// Mutable parameters (optimizer updates).
    fn params_mut(&mut self) -> &mut ParamSet;
    /// Forward pass.
    fn forward(&self, g: &mut Graph, bp: &BoundParams, tokens: Var, train: bool) -> Var;
}

impl TokenSegModel for Unetr2d {
    fn params(&self) -> &ParamSet {
        &self.params
    }
    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }
    fn forward(&self, g: &mut Graph, bp: &BoundParams, tokens: Var, train: bool) -> Var {
        Unetr2d::forward(self, g, bp, tokens, train)
    }
}

impl TokenSegModel for SwinUnetr {
    fn params(&self) -> &ParamSet {
        &self.params
    }
    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }
    fn forward(&self, g: &mut Graph, bp: &BoundParams, tokens: Var, train: bool) -> Var {
        SwinUnetr::forward(self, g, bp, tokens, train)
    }
}

impl TokenSegModel for ViTSegmenter {
    fn params(&self) -> &ParamSet {
        &self.params
    }
    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }
    fn forward(&self, g: &mut Graph, bp: &BoundParams, tokens: Var, _train: bool) -> Var {
        ViTSegmenter::forward(self, g, bp, tokens)
    }
}

/// Any model mapping one input tensor to class logits `[B, classes]`.
pub trait TokenClassifier {
    /// The model's parameters.
    fn params(&self) -> &ParamSet;
    /// Mutable parameters.
    fn params_mut(&mut self) -> &mut ParamSet;
    /// Forward pass (input layout is model-specific).
    fn forward(&self, g: &mut Graph, bp: &BoundParams, input: Var) -> Var;
}

impl TokenClassifier for ViTClassifier {
    fn params(&self) -> &ParamSet {
        &self.params
    }
    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }
    fn forward(&self, g: &mut Graph, bp: &BoundParams, input: Var) -> Var {
        ViTClassifier::forward(self, g, bp, input)
    }
}

impl TokenClassifier for apf_models::hipt::HiptLite {
    fn params(&self) -> &ParamSet {
        &self.params
    }
    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }
    fn forward(&self, g: &mut Graph, bp: &BoundParams, input: Var) -> Var {
        apf_models::hipt::HiptLite::forward(self, g, bp, input)
    }
}

/// Per-epoch training record (Fig. 4 series).
#[derive(Debug, Clone, Serialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f64,
    /// Mean validation loss.
    pub val_loss: f64,
    /// Mean validation dice (percent), if evaluated.
    pub val_dice: f64,
    /// Wall-clock seconds spent in this epoch's training pass.
    pub train_seconds: f64,
}

/// Collects `(id, grad)` pairs from a backward-run graph.
pub(crate) fn collect_grads(g: &mut Graph, bp: &BoundParams) -> Vec<(ParamId, Tensor)> {
    bp.iter()
        .filter_map(|(id, v)| g.take_grad(v).map(|t| (id, t)))
        .collect()
}

/// Collects `(id, grad)` pairs and steps the optimizer.
pub(crate) fn apply_grads(g: &mut Graph, bp: &BoundParams, params: &mut ParamSet, opt: &mut AdamW) {
    let grads = collect_grads(g, bp);
    opt.step(params, &grads);
}

/// Per-phase step timing handles (`apf_train_step_phase_seconds{phase=..}`).
/// Every handle is inert when built from [`Telemetry::disabled`], so the
/// uninstrumented path costs one branch per phase.
#[derive(Clone, Default)]
pub(crate) struct TrainTel {
    pub(crate) tel: Telemetry,
    pub(crate) batch_gen_s: Histogram,
    pub(crate) forward_s: Histogram,
    pub(crate) backward_s: Histogram,
    pub(crate) optimizer_s: Histogram,
    pub(crate) step_s: Histogram,
}

impl TrainTel {
    pub(crate) fn new(tel: Telemetry) -> Self {
        let phase = |p: &'static str| {
            tel.histogram_with(
                "apf_train_step_phase_seconds",
                vec![("phase", p.to_string())],
                "Wall-clock seconds per training-step phase",
            )
        };
        TrainTel {
            batch_gen_s: phase("batch_gen"),
            forward_s: phase("forward"),
            backward_s: phase("backward"),
            optimizer_s: phase("optimizer"),
            step_s: tel.histogram(
                "apf_train_step_seconds",
                "Wall-clock seconds per full gradient step",
            ),
            tel,
        }
    }
}

/// Trainer for token-sequence segmentation models.
pub struct SegTrainer<M: TokenSegModel> {
    /// The model being trained.
    pub model: M,
    opt: AdamW,
    loss_cfg: ComboLossConfig,
    epoch: usize,
    grad_clip: Option<f32>,
    tm: TrainTel,
}

impl<M: TokenSegModel> SegTrainer<M> {
    /// Creates a trainer with AdamW and the paper's combined loss.
    pub fn new(model: M, opt_cfg: AdamWConfig) -> Self {
        Self::with_telemetry(model, opt_cfg, Telemetry::disabled())
    }

    /// Like [`SegTrainer::new`], but records per-phase step timing
    /// (batch-gen / forward / backward / optimizer) into `tel`.
    pub fn with_telemetry(model: M, opt_cfg: AdamWConfig, tel: Telemetry) -> Self {
        let opt = AdamW::new(opt_cfg, model.params().len());
        SegTrainer {
            model,
            opt,
            loss_cfg: ComboLossConfig::default(),
            epoch: 0,
            grad_clip: None,
            tm: TrainTel::new(tel),
        }
    }

    /// Enables gradient clipping to a maximum global L2 norm.
    pub fn with_grad_clip(mut self, max_norm: f32) -> Self {
        assert!(max_norm > 0.0, "max_norm must be positive");
        self.grad_clip = Some(max_norm);
        self
    }

    /// One gradient step on a batch; returns the loss.
    pub fn step(&mut self, tokens: &Tensor, masks: &Tensor) -> f64 {
        let _step_span = self.tm.tel.span("train.step");
        let _step_timer = self.tm.step_s.start_timer();
        let mut g = Graph::new();
        let bp = self.model.params().bind(&mut g);
        let x = g.constant(tokens.clone());
        let y = g.constant(masks.clone());
        let loss = {
            let _span = self.tm.tel.span("train.forward");
            let _t = self.tm.forward_s.start_timer();
            let logits = self.model.forward(&mut g, &bp, x, true);
            combo_loss(&mut g, logits, y, self.loss_cfg)
        };
        let lv = {
            let _span = self.tm.tel.span("train.backward");
            let _t = self.tm.backward_s.start_timer();
            g.backward(loss);
            g.value(loss).item() as f64
        };
        {
            let _span = self.tm.tel.span("train.optimizer");
            let _t = self.tm.optimizer_s.start_timer();
            let mut grads = collect_grads(&mut g, &bp);
            if let Some(max_norm) = self.grad_clip {
                crate::optim::clip_grad_norm(&mut grads, max_norm);
            }
            self.opt.step(self.model.params_mut(), &grads);
        }
        lv
    }

    /// Saves model weights plus full optimizer state (AdamW moments, step
    /// counter, learning-rate scale) and the epoch counter to an APF2
    /// checkpoint. The write is atomic: a crash mid-save leaves the
    /// previous checkpoint intact.
    pub fn save_checkpoint(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut state = self.opt.export_state();
        state.counters.push(("epoch".to_string(), self.epoch as u64));
        apf_models::checkpoint::save_with_state(self.model.params(), &state, path)
    }

    /// Restores model weights, optimizer state, and the epoch counter from
    /// a checkpoint written by [`SegTrainer::save_checkpoint`]. Training
    /// resumed this way is bit-identical to never having stopped.
    ///
    /// # Errors
    /// Returns a [`CheckpointError`](apf_models::checkpoint::CheckpointError)
    /// if the file is missing, corrupt, or does not match the model.
    pub fn resume_from(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), apf_models::checkpoint::CheckpointError> {
        let state =
            apf_models::checkpoint::load_with_state(self.model.params_mut(), path)?;
        self.opt.import_state(&state);
        self.epoch = state.counter("epoch").unwrap_or(0) as usize;
        self.opt.set_epoch(self.epoch);
        Ok(())
    }

    /// Loss of a batch without updating (validation).
    pub fn eval_loss(&self, tokens: &Tensor, masks: &Tensor) -> f64 {
        let mut g = Graph::new();
        let bp = self.model.params().bind(&mut g);
        let x = g.constant(tokens.clone());
        let y = g.constant(masks.clone());
        let logits = self.model.forward(&mut g, &bp, x, false);
        let loss = combo_loss(&mut g, logits, y, self.loss_cfg);
        g.value(loss).item() as f64
    }

    /// Predicts token logits for one sample `[L, P²]` (adds a batch dim).
    pub fn predict(&self, tokens: &Tensor) -> Tensor {
        let dims = tokens.dims().to_vec();
        let mut g = Graph::new();
        let bp = self.model.params().bind(&mut g);
        let x = g.constant(tokens.reshape([1, dims[0], dims[1]]));
        let logits = self.model.forward(&mut g, &bp, x, false);
        let probs = g.sigmoid(logits);
        g.value(probs).reshape([dims[0], dims[1]])
    }

    /// Mean full-resolution dice over a dataset: predictions are painted
    /// back onto the image canvas through each sample's patch regions.
    pub fn evaluate_dice(&self, data: &TokenSegDataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for s in &data.samples {
            let probs = self.predict(&s.tokens);
            let pred = reconstruct_mask(&s.seq, &probs);
            total += dice_score(&pred, &s.full_mask, 0.5);
        }
        total / data.len() as f64
    }

    /// One full epoch over `train`, then evaluation on `val`.
    pub fn run_epoch(
        &mut self,
        train: &TokenSegDataset,
        val: &TokenSegDataset,
        batch_size: usize,
        eval_dice: bool,
    ) -> EpochStats {
        self.opt.set_epoch(self.epoch);
        let t0 = Instant::now();
        let mut train_loss = 0.0;
        let batches = train.epoch_batches(batch_size, self.epoch as u64);
        for b in &batches {
            let (x, y) = {
                let _span = self.tm.tel.span("train.batch_gen");
                let _t = self.tm.batch_gen_s.start_timer();
                train.batch(b)
            };
            train_loss += self.step(&x, &y);
        }
        train_loss /= batches.len().max(1) as f64;
        let train_seconds = t0.elapsed().as_secs_f64();

        let mut val_loss = 0.0;
        if !val.is_empty() {
            let vbatches = val.epoch_batches(batch_size, 0);
            for b in &vbatches {
                let (x, y) = val.batch(b);
                val_loss += self.eval_loss(&x, &y);
            }
            val_loss /= vbatches.len().max(1) as f64;
        }
        let val_dice = if eval_dice { self.evaluate_dice(val) } else { 0.0 };
        let stats = EpochStats {
            epoch: self.epoch,
            train_loss,
            val_loss,
            val_dice,
            train_seconds,
        };
        self.epoch += 1;
        stats
    }
}

/// Trainer for classifiers (ViT, HIPT, APF-ViT).
pub struct ClsTrainer<M: TokenClassifier> {
    /// The model being trained.
    pub model: M,
    opt: AdamW,
    epoch: usize,
}

impl<M: TokenClassifier> ClsTrainer<M> {
    /// Creates the trainer.
    pub fn new(model: M, opt_cfg: AdamWConfig) -> Self {
        let opt = AdamW::new(opt_cfg, model.params().len());
        ClsTrainer { model, opt, epoch: 0 }
    }

    /// One gradient step on a batch of inputs and integer labels.
    pub fn step(&mut self, inputs: &Tensor, labels: &[u32]) -> f64 {
        let mut g = Graph::new();
        let bp = self.model.params().bind(&mut g);
        let x = g.constant(inputs.clone());
        let logits = self.model.forward(&mut g, &bp, x);
        let loss = g.softmax_cross_entropy(logits, Arc::new(labels.to_vec()));
        g.backward(loss);
        let lv = g.value(loss).item() as f64;
        apply_grads(&mut g, &bp, self.model.params_mut(), &mut self.opt);
        self.opt.set_epoch(self.epoch);
        lv
    }

    /// Predicted classes for a batch.
    pub fn predict(&self, inputs: &Tensor) -> Vec<usize> {
        let mut g = Graph::new();
        let bp = self.model.params().bind(&mut g);
        let x = g.constant(inputs.clone());
        let logits = self.model.forward(&mut g, &bp, x);
        g.value(logits).argmax_last()
    }

    /// Top-1 accuracy over `(input, label)` pairs.
    pub fn evaluate(&self, batches: &[(Tensor, Vec<u32>)]) -> f64 {
        let mut preds = Vec::new();
        let mut truths = Vec::new();
        for (x, y) in batches {
            preds.extend(self.predict(x));
            truths.extend(y.iter().map(|&v| v as usize));
        }
        top1_accuracy(&preds, &truths)
    }

    /// Advances the epoch counter (drives LR schedules).
    pub fn next_epoch(&mut self) {
        self.epoch += 1;
        self.opt.set_epoch(self.epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
    use apf_imaging::paip::{PaipConfig, PaipGenerator};
    use apf_models::rearrange::GridOrder;
    use apf_models::unetr::UnetrConfig;
    use apf_models::vit::ViTConfig;

    fn tiny_dataset(n: usize) -> TokenSegDataset {
        let gen = PaipGenerator::new(PaipConfig::at_resolution(64));
        let pairs: Vec<_> = (0..n)
            .map(|i| {
                let s = gen.generate(i);
                (s.image, s.mask)
            })
            .collect();
        let patcher = AdaptivePatcher::new(
            PatcherConfig::for_resolution(64)
                .with_patch_size(4)
                .with_target_len(16),
        );
        TokenSegDataset::adaptive(&pairs, &patcher)
    }

    #[test]
    fn seg_trainer_loss_decreases() {
        let ds = tiny_dataset(4);
        let model = Unetr2d::new(UnetrConfig::tiny(4, 4, GridOrder::Morton), 1);
        let mut tr = SegTrainer::new(
            model,
            AdamWConfig { lr: 3e-3, ..Default::default() },
        );
        let (x, y) = ds.batch(&[0, 1, 2, 3]);
        let first = tr.step(&x, &y);
        let mut last = first;
        for _ in 0..15 {
            last = tr.step(&x, &y);
        }
        assert!(last < first, "loss {} -> {}", first, last);
    }

    #[test]
    fn run_epoch_reports_stats() {
        let ds = tiny_dataset(4);
        let train = ds.subset(&[0, 1, 2]);
        let val = ds.subset(&[3]);
        let model = Unetr2d::new(UnetrConfig::tiny(4, 4, GridOrder::Morton), 2);
        let mut tr = SegTrainer::new(model, AdamWConfig::default());
        let stats = tr.run_epoch(&train, &val, 2, true);
        assert_eq!(stats.epoch, 0);
        assert!(stats.train_loss > 0.0);
        assert!(stats.val_loss > 0.0);
        assert!((0.0..=100.0).contains(&stats.val_dice));
        assert!(stats.train_seconds > 0.0);
        let stats2 = tr.run_epoch(&train, &val, 2, false);
        assert_eq!(stats2.epoch, 1);
    }

    #[test]
    fn evaluate_dice_on_perfect_predictor_is_high() {
        // A dataset whose tokens ARE the mask: the identity map scores ~100.
        let gen = PaipGenerator::new(PaipConfig::at_resolution(64));
        let s = gen.generate(0);
        // Generous target_len so no patches are dropped (drops would punch
        // holes in the reconstruction and lower the dice of the identity).
        let patcher = AdaptivePatcher::new(
            PatcherConfig::for_resolution(64)
                .with_patch_size(4)
                .with_target_len(512),
        );
        let pairs = vec![(s.mask.clone(), s.mask.clone())];
        let ds = TokenSegDataset::adaptive(&pairs, &patcher);
        // predict() applies a sigmoid; feed mask-as-logits scaled up so
        // sigmoid saturates to the mask.
        struct Identity {
            params: ParamSet,
        }
        impl TokenSegModel for Identity {
            fn params(&self) -> &ParamSet {
                &self.params
            }
            fn params_mut(&mut self) -> &mut ParamSet {
                &mut self.params
            }
            fn forward(&self, g: &mut Graph, _bp: &BoundParams, tokens: Var, _t: bool) -> Var {
                let centered = g.add_scalar(tokens, -0.5);
                g.scale(centered, 50.0)
            }
        }
        let tr = SegTrainer::new(Identity { params: ParamSet::new() }, AdamWConfig::default());
        let dice = tr.evaluate_dice(&ds);
        // The identity cannot beat the patch-quantization ceiling (area
        // averaging + thresholding inside boundary leaves blurs a ~2 px
        // band), but it must exactly REACH that ceiling.
        let sample = &ds.samples[0];
        let quantized = reconstruct_mask(&sample.seq, &sample.mask_tokens);
        let ceiling = dice_score(&quantized, &sample.full_mask, 0.5);
        assert!(
            (dice - ceiling).abs() < 1.0,
            "identity dice {} != quantization ceiling {}",
            dice,
            ceiling
        );
        assert!(dice > 50.0, "identity dice unreasonably low: {}", dice);
    }

    #[test]
    fn resume_from_checkpoint_is_bit_identical() {
        // Train 10 steps straight through vs. train 5, checkpoint, resume
        // into a fresh trainer, train 5 more: every parameter must match
        // bit for bit (forward passes are deterministic; the checkpoint
        // carries AdamW moments, step count, and epoch).
        let ds = tiny_dataset(4);
        let (x, y) = ds.batch(&[0, 1, 2, 3]);
        let cfg = AdamWConfig { lr: 2e-3, ..Default::default() };
        let make = || Unetr2d::new(UnetrConfig::tiny(4, 4, GridOrder::Morton), 21);

        let mut straight = SegTrainer::new(make(), cfg);
        for _ in 0..10 {
            straight.step(&x, &y);
        }

        let dir = std::env::temp_dir().join("apf_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid.apf2");
        let mut first_half = SegTrainer::new(make(), cfg);
        for _ in 0..5 {
            first_half.step(&x, &y);
        }
        first_half.save_checkpoint(&path).unwrap();

        // Fresh trainer with a DIFFERENT seed: everything must come from
        // the checkpoint, not from construction.
        let mut resumed =
            SegTrainer::new(Unetr2d::new(UnetrConfig::tiny(4, 4, GridOrder::Morton), 99), cfg);
        resumed.resume_from(&path).unwrap();
        for _ in 0..5 {
            resumed.step(&x, &y);
        }

        for ((_, n, a), (_, _, b)) in straight
            .model
            .params()
            .iter()
            .zip(resumed.model.params().iter())
        {
            let a_bits: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
            let b_bits: Vec<u32> = b.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a_bits, b_bits, "param {} not bit-identical after resume", n);
        }
    }

    #[test]
    fn resume_rejects_corrupt_checkpoint() {
        let ds = tiny_dataset(2);
        let (x, y) = ds.batch(&[0, 1]);
        let cfg = AdamWConfig::default();
        let mut tr = SegTrainer::new(
            Unetr2d::new(UnetrConfig::tiny(4, 4, GridOrder::Morton), 1),
            cfg,
        );
        tr.step(&x, &y);
        let dir = std::env::temp_dir().join("apf_resume_corrupt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.apf2");
        tr.save_checkpoint(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(tr.resume_from(&path).is_err(), "corrupt checkpoint was accepted");
    }

    #[test]
    fn grad_clip_bounds_the_update() {
        let ds = tiny_dataset(2);
        let (x, y) = ds.batch(&[0, 1]);
        let cfg = AdamWConfig { lr: 1e-2, weight_decay: 0.0, ..Default::default() };
        let make = || Unetr2d::new(UnetrConfig::tiny(4, 4, GridOrder::Morton), 7);
        // A clip threshold far below the natural gradient norm must alter
        // the very first update; a huge threshold must not.
        let mut unclipped = SegTrainer::new(make(), cfg);
        let mut tight = SegTrainer::new(make(), cfg).with_grad_clip(1e-4);
        let mut loose = SegTrainer::new(make(), cfg).with_grad_clip(1e6);
        unclipped.step(&x, &y);
        tight.step(&x, &y);
        loose.step(&x, &y);
        let diff = |a: &SegTrainer<Unetr2d>, b: &SegTrainer<Unetr2d>| {
            a.model
                .params()
                .iter()
                .zip(b.model.params().iter())
                .map(|((_, _, ta), (_, _, tb))| {
                    ta.data()
                        .iter()
                        .zip(tb.data().iter())
                        .map(|(u, v)| (u - v).abs())
                        .fold(0.0f32, f32::max)
                })
                .fold(0.0f32, f32::max)
        };
        assert!(diff(&unclipped, &tight) > 0.0, "tight clip changed nothing");
        assert_eq!(diff(&unclipped, &loose), 0.0, "loose clip altered the step");
    }

    #[test]
    fn telemetry_records_per_phase_step_timing() {
        let ds = tiny_dataset(4);
        let train = ds.subset(&[0, 1, 2]);
        let val = ds.subset(&[3]);
        let tel = Telemetry::enabled();
        let model = Unetr2d::new(UnetrConfig::tiny(4, 4, GridOrder::Morton), 5);
        let mut tr = SegTrainer::with_telemetry(model, AdamWConfig::default(), tel.clone());
        tr.run_epoch(&train, &val, 2, false);

        let snap = tel.snapshot();
        let steps = snap
            .get("apf_train_step_seconds", &[])
            .and_then(|m| m.histogram.clone())
            .expect("step histogram registered");
        assert_eq!(steps.count, 2, "2 batches of 2 over 3 samples -> 2 steps");
        for phase in ["batch_gen", "forward", "backward", "optimizer"] {
            let h = snap
                .get("apf_train_step_phase_seconds", &[("phase", phase)])
                .and_then(|m| m.histogram.clone())
                .unwrap_or_else(|| panic!("phase {} registered", phase));
            assert_eq!(h.count, 2, "phase {} recorded once per step", phase);
            assert!(h.sum >= 0.0);
        }
        // The span trace carries one train.step tree per step, with the
        // three phases nested beneath it.
        let names: Vec<&str> = tel.trace_events().iter().map(|e| e.name).collect();
        for name in ["train.step", "train.forward", "train.backward", "train.optimizer"] {
            assert!(names.contains(&name), "missing span {} in {:?}", name, names);
        }

        // A disabled trainer must behave identically with zero registry.
        let model2 = Unetr2d::new(UnetrConfig::tiny(4, 4, GridOrder::Morton), 5);
        let mut plain = SegTrainer::new(model2, AdamWConfig::default());
        plain.step(&val.batch(&[0]).0, &val.batch(&[0]).1);
    }

    #[test]
    fn cls_trainer_learns_toy_classes() {
        let cfg = ViTConfig::tiny(4, 4);
        let model = ViTClassifier::new(cfg, 2, 3);
        let mut tr = ClsTrainer::new(
            model,
            AdamWConfig { lr: 5e-3, ..Default::default() },
        );
        let x = Tensor::new(
            [2, 4, 4],
            [vec![0.9f32; 16], vec![-0.9f32; 16]].concat(),
        );
        let labels = vec![0u32, 1];
        let first = tr.step(&x, &labels);
        let mut last = first;
        for _ in 0..30 {
            last = tr.step(&x, &labels);
        }
        assert!(last < first * 0.7, "{} -> {}", first, last);
        let acc = tr.evaluate(&[(x, labels)]);
        assert_eq!(acc, 100.0);
    }
}
