//! A real data-parallel training engine: one OS thread per simulated GPU,
//! genuine gradient averaging through the ring all-reduce.
//!
//! Each worker owns a full model replica (same seed => identical weights).
//! Every step, the global batch is sharded across workers; each computes
//! gradients on its shard; the flattened gradients are averaged with
//! [`crate::allreduce::ring_allreduce_mean_checked`]; a single AdamW step
//! is applied to the master parameters which are then broadcast back to the
//! replicas. This makes data-parallel training mathematically identical to
//! large-batch single-worker training — and the engine's tests verify
//! exactly that.
//!
//! ## Fault tolerance
//!
//! The engine consults a [`FaultPlan`], keyed `(rank, step)`, at the start
//! of every step and survives what it finds there:
//!
//! - **Worker crashes** remove the replica permanently; the collective is
//!   rebuilt over the survivors and the batch re-sharded (unevenly if
//!   needed — shard gradients and losses are weighted by `n_i/B` so the
//!   degraded step still optimizes the exact global-mean objective).
//! - **Wire corruption** is caught by the all-reduce checksums; the engine
//!   retries the collective with its retained gradient buffers.
//! - **Stragglers** delay their shard; the step completes correctly,
//!   just slower.
//! - **Non-finite losses or gradients** (injected or organic) skip the
//!   update, roll parameters and optimizer back to the last good step, and
//!   halve the learning rate, with a bounded retry budget.
//!
//! Every recovery action is appended to a [`RecoveryEvent`] trace so tests
//! can assert that identical plans produce identical recoveries.

use std::io;
use std::path::Path;

use apf_core::fault::FaultPlan;
use apf_models::checkpoint::{self, CheckpointError};
use apf_models::params::{ParamId, ParamSet};
use apf_telemetry::{Counter, Gauge, Histogram, Telemetry};
use apf_tensor::tensor::Tensor;
use apf_train::data::TokenSegDataset;
use apf_train::loss::{combo_loss, ComboLossConfig};
use apf_train::optim::{AdamW, AdamWConfig};
use apf_train::trainer::TokenSegModel;

use crate::allreduce::{ring_allreduce_mean, ring_allreduce_mean_checked};
use crate::fault::{FaultKind, RecoveryEvent};

/// Flattens ordered per-parameter gradients into one buffer (ring input).
fn flatten_grads(params: &ParamSet, grads: &[(ParamId, Tensor)]) -> Vec<f32> {
    // Missing grads become zeros so every worker contributes equal-length
    // buffers regardless of which parameters were touched.
    let mut dense: Vec<Option<&Tensor>> = vec![None; params.len()];
    for (id, g) in grads {
        dense[id.index()] = Some(g);
    }
    let mut out = Vec::with_capacity(params.num_scalars());
    for (id, _, t) in params.iter() {
        match dense[id.index()] {
            Some(g) => out.extend_from_slice(g.data()),
            None => out.extend(std::iter::repeat_n(0.0, t.numel())),
        }
    }
    out
}

/// Splits a flat buffer back into per-parameter tensors.
fn unflatten_grads(params: &ParamSet, flat: &[f32]) -> Vec<(ParamId, Tensor)> {
    let mut out = Vec::with_capacity(params.len());
    let mut off = 0;
    for (id, _, t) in params.iter() {
        let n = t.numel();
        out.push((id, Tensor::new(t.shape().clone(), flat[off..off + n].to_vec())));
        off += n;
    }
    out
}

/// Per-step telemetry from the engine.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// Weighted mean loss over all shards (weights `n_i/B`).
    pub loss: f64,
    /// Wall-clock seconds of the compute phase (max over workers).
    pub compute_s: f64,
    /// Wall-clock seconds of the all-reduce + update phase.
    pub sync_s: f64,
    /// Workers that participated in this step.
    pub world_size: usize,
    /// True once any worker has been lost: the engine is running a
    /// degraded configuration relative to its launch world size.
    pub degraded: bool,
    /// All-reduce retries forced by checksum failures this step.
    pub comm_retries: u32,
    /// True when a non-finite loss/gradient was caught and the update was
    /// skipped (parameters rolled back, learning rate halved).
    pub rolled_back: bool,
}

/// Registry handles for the engine (`apf_distsim_*`). All handles are
/// inert when built from [`Telemetry::disabled`].
#[derive(Clone, Default)]
struct DistTel {
    tel: Telemetry,
    compute_s: Histogram,
    allreduce_s: Histogram,
    optimizer_s: Histogram,
    step_s: Histogram,
    steps_total: Counter,
    comm_bytes: Counter,
    comm_retries: Counter,
    rollbacks: Counter,
    workers_lost: Counter,
    world_size: Gauge,
}

impl DistTel {
    fn new(tel: Telemetry) -> Self {
        let phase = |p: &'static str| {
            tel.histogram_with(
                "apf_distsim_step_phase_seconds",
                vec![("phase", p.to_string())],
                "Wall-clock seconds per data-parallel step phase",
            )
        };
        DistTel {
            compute_s: phase("compute"),
            allreduce_s: phase("allreduce"),
            optimizer_s: phase("optimizer"),
            step_s: tel.histogram(
                "apf_distsim_step_seconds",
                "Wall-clock seconds per full data-parallel step",
            ),
            steps_total: tel.counter("apf_distsim_steps_total", "Completed engine steps"),
            comm_bytes: tel.counter(
                "apf_distsim_comm_bytes_total",
                "Bytes moved over the simulated ring (2(W-1)N x 4 per attempt)",
            ),
            comm_retries: tel.counter(
                "apf_distsim_comm_retries_total",
                "All-reduce retries forced by checksum failures",
            ),
            rollbacks: tel.counter(
                "apf_distsim_rollbacks_total",
                "Updates skipped by the non-finite guard (params restored, LR halved)",
            ),
            workers_lost: tel.counter(
                "apf_distsim_workers_lost_total",
                "Replicas permanently removed by injected crashes",
            ),
            world_size: tel.gauge("apf_distsim_world_size", "Live workers in the collective"),
            tel,
        }
    }
}

/// The data-parallel engine over `W` model replicas.
pub struct DataParallelEngine<M: TokenSegModel + Send> {
    replicas: Vec<M>,
    /// Original launch rank of each surviving replica (crash bookkeeping).
    orig_rank: Vec<usize>,
    initial_workers: usize,
    master: ParamSet,
    opt: AdamW,
    loss_cfg: ComboLossConfig,
    fault_plan: FaultPlan<FaultKind>,
    step_idx: u64,
    trace: Vec<RecoveryEvent>,
    max_comm_retries: u32,
    max_rollbacks: u32,
    rollbacks: u32,
    tm: DistTel,
}

impl<M: TokenSegModel + Send> DataParallelEngine<M> {
    /// Builds the engine from a replica factory. The factory MUST be
    /// deterministic (same weights for every call), mirroring a broadcast
    /// of the initial model.
    pub fn new(factory: impl Fn() -> M, workers: usize, opt_cfg: AdamWConfig) -> Self {
        assert!(workers >= 1);
        let replicas: Vec<M> = (0..workers).map(|_| factory()).collect();
        let master = replicas[0].params().clone();
        for r in &replicas {
            assert_eq!(
                r.params().num_scalars(),
                master.num_scalars(),
                "factory produced differing replicas"
            );
        }
        let opt = AdamW::new(opt_cfg, master.len());
        DataParallelEngine {
            replicas,
            orig_rank: (0..workers).collect(),
            initial_workers: workers,
            master,
            opt,
            loss_cfg: ComboLossConfig::default(),
            fault_plan: FaultPlan::none(),
            step_idx: 0,
            trace: Vec::new(),
            max_comm_retries: 3,
            max_rollbacks: 8,
            rollbacks: 0,
            tm: DistTel::default(),
        }
    }

    /// Installs a fault schedule (see [`FaultPlan`]); builder style.
    pub fn with_fault_plan(mut self, plan: FaultPlan<FaultKind>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Records per-phase step timing, comms volume/retries, and recovery
    /// events into `tel` (`apf_distsim_*` metrics); builder style.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tm = DistTel::new(tel);
        self.tm.world_size.set(self.replicas.len() as f64);
        self
    }

    /// Number of currently-live simulated GPUs.
    pub fn workers(&self) -> usize {
        self.replicas.len()
    }

    /// True once any worker has crashed out of the collective.
    pub fn degraded(&self) -> bool {
        self.replicas.len() < self.initial_workers
    }

    /// Engine step counter (increments once per [`Self::step`]).
    pub fn step_index(&self) -> u64 {
        self.step_idx
    }

    /// Current learning-rate scale (halved on every NaN rollback).
    pub fn lr_scale(&self) -> f32 {
        self.opt.lr_scale()
    }

    /// Everything the fault-tolerance machinery observed and did so far.
    pub fn recovery_trace(&self) -> &[RecoveryEvent] {
        &self.trace
    }

    /// Overrides the loss configuration (default: the paper's 0.5 BCE +
    /// 0.5 dice). Note that the dice term is computed per shard, as in
    /// real distributed data parallel.
    pub fn set_loss(&mut self, cfg: ComboLossConfig) {
        self.loss_cfg = cfg;
    }

    /// Read access to the synchronized master parameters.
    pub fn master_params(&self) -> &ParamSet {
        &self.master
    }

    /// Writes a crash-safe v2 checkpoint: master parameters, full AdamW
    /// state, and the engine step counter, CRC-protected and atomically
    /// renamed into place.
    pub fn save_checkpoint(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut state = self.opt.export_state();
        state.counters.push(("engine.step".to_string(), self.step_idx));
        checkpoint::save_with_state(&self.master, &state, path)
    }

    /// Restores master parameters, optimizer state, and the step counter
    /// from a checkpoint written by [`Self::save_checkpoint`]. Replicas are
    /// refreshed from the master at the start of the next step, so training
    /// resumes bit-identically.
    pub fn resume_from(&mut self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let state = checkpoint::load_with_state(&mut self.master, path)?;
        self.opt.import_state(&state);
        self.step_idx = state.counter("engine.step").unwrap_or(0);
        Ok(())
    }

    /// Applies this step's scheduled faults. Returns, for each surviving
    /// worker position: (straggler delay ms, corrupt outgoing traffic,
    /// poison gradients with NaN).
    fn apply_faults(&mut self, step: u64) -> (Vec<u64>, Vec<usize>, Vec<usize>) {
        let faults: Vec<(usize, FaultKind)> = (0..self.initial_workers)
            .filter_map(|rank| self.fault_plan.fault_for(rank, step).map(|kind| (rank, kind)))
            .collect();
        // Crashes first: the surviving positions shift, and the remaining
        // events target the post-crash topology.
        for &(rank, kind) in &faults {
            if kind == FaultKind::WorkerCrash {
                let Some(pos) = self.orig_rank.iter().position(|&r| r == rank) else {
                    continue; // already dead
                };
                if self.replicas.len() == 1 {
                    continue; // never empty the collective
                }
                self.replicas.remove(pos);
                self.orig_rank.remove(pos);
                self.tm.workers_lost.inc();
                self.trace.push(RecoveryEvent::WorkerLost {
                    step,
                    rank,
                    world_after: self.replicas.len(),
                });
            }
        }
        let mut delays = vec![0u64; self.replicas.len()];
        let mut corrupt = Vec::new();
        let mut poison = Vec::new();
        for &(rank, kind) in &faults {
            let Some(pos) = self.orig_rank.iter().position(|&r| r == rank) else {
                continue; // targets a dead worker
            };
            match kind {
                FaultKind::WorkerCrash => {}
                FaultKind::GradCorruption => corrupt.push(pos),
                FaultKind::Straggler { delay_ms } => {
                    delays[pos] = delay_ms;
                    self.trace.push(RecoveryEvent::StragglerObserved { step, rank, delay_ms });
                }
                FaultKind::NanGrad => poison.push(pos),
            }
        }
        (delays, corrupt, poison)
    }

    /// One data-parallel step over a global batch, sharded contiguously
    /// across the live workers. `tokens`/`masks` are `[B, L, D]`; `B` must
    /// be divisible by the worker count while the engine is at full
    /// strength. After a crash, uneven shards are allowed: gradients and
    /// losses are weighted by shard size so the degraded step still
    /// optimizes the global-mean objective exactly.
    pub fn step(&mut self, tokens: &Tensor, masks: &Tensor) -> StepReport {
        let step = self.step_idx;
        let _step_span = self.tm.tel.span_id("distsim.step", step);
        let _step_timer = self.tm.step_s.start_timer();
        let (delays, corrupt, poison) = self.apply_faults(step);

        let w = self.replicas.len();
        self.tm.world_size.set(w as f64);
        let b = tokens.dims()[0];
        if !self.degraded() {
            assert!(b.is_multiple_of(w), "global batch {} not divisible by {} workers", b, w);
        }
        // Contiguous shards; the first `b % w` workers take one extra
        // sample when the batch no longer divides evenly.
        let base = b / w;
        let extra = b % w;
        let sizes: Vec<usize> = (0..w).map(|i| base + usize::from(i < extra)).collect();
        let mut offsets = Vec::with_capacity(w);
        let mut acc = 0usize;
        for &s in &sizes {
            offsets.push(acc);
            acc += s;
        }
        let l = tokens.dims()[1];
        let d = tokens.dims()[2];

        // Broadcast master weights to the replicas.
        for r in &mut self.replicas {
            r.params_mut().copy_from(&self.master);
        }

        let loss_cfg = self.loss_cfg;
        let compute_span = self.tm.tel.span_id("distsim.compute", step);
        let t0 = std::time::Instant::now();
        // Compute phase: each worker thread processes its shard. Uneven
        // shards pre-scale their gradients by `n_i * W / B` so the ring's
        // uniform mean yields `sum_i (n_i/B) g_i` — the exact global mean.
        let results: Vec<(f64, Vec<f32>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .replicas
                .iter_mut()
                .enumerate()
                .map(|(pos, replica)| {
                    let shard = sizes[pos];
                    let start = offsets[pos] * l * d;
                    let xs = Tensor::new([shard, l, d], tokens.data()[start..start + shard * l * d].to_vec());
                    let ys = Tensor::new([shard, l, d], masks.data()[start..start + shard * l * d].to_vec());
                    let delay_ms = delays[pos];
                    let poisoned = poison.contains(&pos);
                    let grad_scale = (shard * w) as f32 / b as f32;
                    scope.spawn(move || {
                        if delay_ms > 0 {
                            std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                        }
                        let replica: &M = replica;
                        let mut g = apf_tensor::Graph::new();
                        let bp = replica.params().bind(&mut g);
                        let x = g.constant(xs);
                        let y = g.constant(ys);
                        let logits = replica.forward(&mut g, &bp, x, true);
                        let loss = combo_loss(&mut g, logits, y, loss_cfg);
                        g.backward(loss);
                        let lv = g.value(loss).item() as f64;
                        let grads: Vec<(ParamId, Tensor)> = bp
                            .iter()
                            .filter_map(|(id, v)| g.take_grad(v).map(|t| (id, t)))
                            .collect();
                        let mut flat = flatten_grads(replica.params(), &grads);
                        if grad_scale != 1.0 {
                            for v in &mut flat {
                                *v *= grad_scale;
                            }
                        }
                        if poisoned && !flat.is_empty() {
                            flat[0] = f32::NAN;
                        }
                        (lv, flat)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker")).collect()
        });
        let compute_s = t0.elapsed().as_secs_f64();
        drop(compute_span);
        self.tm.compute_s.record(compute_s);

        let t1 = std::time::Instant::now();
        // Shard losses weighted by shard size; the weights sum to 1.
        let loss = results
            .iter()
            .enumerate()
            .map(|(i, (lv, _))| lv * sizes[i] as f64 / b as f64)
            .sum::<f64>();
        let buffers: Vec<Vec<f32>> = results.into_iter().map(|(_, b)| b).collect();

        // Each ring pass moves 2(W-1)/W chunks of the N-float buffer per
        // worker: 2(W-1)·N·4 bytes total per attempt.
        let bytes_per_attempt =
            (2 * w.saturating_sub(1) * buffers.first().map_or(0, Vec::len) * 4) as u64;

        // Sync phase: checksum-verified all-reduce, retried on transient
        // corruption with the retained gradient buffers.
        let mut comm_retries = 0u32;
        let reduced = {
            let _span = self.tm.tel.span_id("distsim.allreduce", step);
            let _t = self.tm.allreduce_s.start_timer();
            self.tm.comm_bytes.add(bytes_per_attempt);
            if corrupt.is_empty() {
                ring_allreduce_mean(buffers)
            } else {
                let mut attempt = 0u32;
                loop {
                    // The injected corruption is transient: it hits the first
                    // attempt only, mirroring a one-off link error.
                    let inject: &[usize] = if attempt == 0 { &corrupt } else { &[] };
                    match ring_allreduce_mean_checked(buffers.clone(), inject) {
                        Ok(r) => break r,
                        Err(_) => {
                            attempt += 1;
                            comm_retries = attempt;
                            self.tm.comm_retries.inc();
                            self.tm.comm_bytes.add(bytes_per_attempt);
                            self.trace.push(RecoveryEvent::CommRetry { step, attempt });
                            assert!(
                                attempt <= self.max_comm_retries,
                                "all-reduce corruption persisted through {} retries",
                                self.max_comm_retries
                            );
                        }
                    }
                }
            }
        };

        // Non-finite guard: a NaN/Inf loss or gradient skips the update,
        // restores the last good parameters and optimizer state, and
        // halves the learning rate (bounded retry budget).
        let update_span = self.tm.tel.span_id("distsim.update", step);
        let update_timer = self.tm.optimizer_s.start_timer();
        let grads_finite = reduced[0].iter().all(|v| v.is_finite());
        let mut rolled_back = false;
        if !loss.is_finite() || !grads_finite {
            rolled_back = true;
        } else {
            let snapshot_params = self.master.clone();
            let snapshot_opt = self.opt.clone();
            let grads = unflatten_grads(&self.master, &reduced[0]);
            self.opt.step(&mut self.master, &grads);
            let params_finite =
                self.master.iter().all(|(_, _, t)| t.data().iter().all(|v| v.is_finite()));
            if !params_finite {
                self.master = snapshot_params;
                self.opt = snapshot_opt;
                rolled_back = true;
            }
        }
        if rolled_back {
            self.rollbacks += 1;
            self.tm.rollbacks.inc();
            assert!(
                self.rollbacks <= self.max_rollbacks,
                "non-finite loss persisted through {} rollbacks; aborting",
                self.max_rollbacks
            );
            self.opt.scale_lr(0.5);
            self.trace.push(RecoveryEvent::RolledBack {
                step,
                lr_scale_after: self.opt.lr_scale(),
            });
        }
        drop(update_timer);
        drop(update_span);
        let sync_s = t1.elapsed().as_secs_f64();

        self.step_idx += 1;
        self.tm.steps_total.inc();
        StepReport {
            loss,
            compute_s,
            sync_s,
            world_size: w,
            degraded: self.degraded(),
            comm_retries,
            rolled_back,
        }
    }

    /// Trains one epoch over a dataset; returns mean loss.
    pub fn train_epoch(&mut self, data: &TokenSegDataset, global_batch: usize, seed: u64) -> f64 {
        let batches = data.epoch_batches(global_batch, seed);
        let mut total = 0.0;
        let mut count = 0;
        for idx in batches {
            // Skip ragged tails that don't shard evenly.
            if idx.len() % self.workers() != 0 {
                continue;
            }
            let (x, y) = data.batch(&idx);
            total += self.step(&x, &y).loss;
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_core::fault::Fault;
    use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
    use apf_imaging::paip::{PaipConfig, PaipGenerator};
    use apf_models::rearrange::GridOrder;
    use apf_models::unetr::{Unetr2d, UnetrConfig};
    use rand::Rng;
    use rand_chacha::ChaCha8Rng;

    fn dataset(n: usize) -> TokenSegDataset {
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

    fn factory() -> Unetr2d {
        Unetr2d::new(UnetrConfig::tiny(4, 4, GridOrder::Morton), 42)
    }

    fn params_bits(p: &ParamSet) -> Vec<u32> {
        p.iter().flat_map(|(_, _, t)| t.data().iter().map(|v| v.to_bits())).collect()
    }

    #[test]
    fn replicas_start_identical() {
        let e = DataParallelEngine::new(factory, 3, AdamWConfig::default());
        assert_eq!(e.workers(), 3);
        assert!(!e.degraded());
        assert!(e.recovery_trace().is_empty());
    }

    #[test]
    fn data_parallel_equals_single_worker_for_decomposable_loss() {
        // With a pure-BCE loss (which IS shard-decomposable: the global
        // mean equals the mean of equal-shard means) and a model without
        // batch statistics (ViT segmenter — BatchNorm would need SyncBN,
        // exactly as in real DDP), W workers on shards must match 1 worker
        // on the full batch, step for step.
        let ds = dataset(4);
        let (x, y) = ds.batch(&[0, 1, 2, 3]);

        let vit_factory = || {
            apf_models::vit::ViTSegmenter::new(apf_models::vit::ViTConfig::tiny(16, 16), 42)
        };
        let cfg = AdamWConfig { lr: 1e-3, ..Default::default() };
        let bce_only = ComboLossConfig { bce_weight: 1.0, epsilon: 1.0 };
        let mut single = DataParallelEngine::new(vit_factory, 1, cfg);
        single.set_loss(bce_only);
        let mut quad = DataParallelEngine::new(vit_factory, 4, cfg);
        quad.set_loss(bce_only);

        for step in 0..3 {
            let r1 = single.step(&x, &y);
            let r4 = quad.step(&x, &y);
            assert!(
                (r1.loss - r4.loss).abs() < 1e-4,
                "step {} loss {} vs {}",
                step,
                r1.loss,
                r4.loss
            );
            assert_eq!(r4.world_size, 4);
            assert!(!r4.degraded);
            assert_eq!(r4.comm_retries, 0);
            assert!(!r4.rolled_back);
        }
        // Parameters must match to float tolerance.
        for ((_, n1, t1), (_, _, t4)) in single
            .master_params()
            .iter()
            .zip(quad.master_params().iter())
        {
            let max_diff = t1
                .data()
                .iter()
                .zip(t4.data().iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max_diff < 2e-3, "param {} diverged by {}", n1, max_diff);
        }
    }

    #[test]
    fn engine_matches_serial_sharded_reference() {
        // With the full combo loss (dice is per-shard, as in real DDP),
        // the threaded engine must match a serial re-implementation of
        // the same sharded computation: per-shard graphs, flattened grads,
        // mean, one AdamW step.
        let ds = dataset(4);
        let (x, y) = ds.batch(&[0, 1, 2, 3]);
        let w = 2usize;
        let cfg = AdamWConfig { lr: 1e-3, ..Default::default() };

        let mut engine = DataParallelEngine::new(factory, w, cfg);

        // Serial reference.
        let reference_model = factory();
        let mut ref_params = reference_model.params().clone();
        let mut ref_opt = AdamW::new(cfg, ref_params.len());
        let (b, l, d) = (4usize, x.dims()[1], x.dims()[2]);
        let shard = b / w;
        for _ in 0..2 {
            let mut flat_sum: Vec<f64> = Vec::new();
            for rank in 0..w {
                let xs = Tensor::new(
                    [shard, l, d],
                    x.data()[rank * shard * l * d..(rank + 1) * shard * l * d].to_vec(),
                );
                let ys = Tensor::new(
                    [shard, l, d],
                    y.data()[rank * shard * l * d..(rank + 1) * shard * l * d].to_vec(),
                );
                let mut g = apf_tensor::Graph::new();
                // Bind the reference weights into the replica structure.
                let mut replica = factory();
                replica.params_mut().copy_from(&ref_params);
                let bp = replica.params().bind(&mut g);
                let xv = g.constant(xs);
                let yv = g.constant(ys);
                let logits = replica.forward(&mut g, &bp, xv, true);
                let loss = combo_loss(&mut g, logits, yv, ComboLossConfig::default());
                g.backward(loss);
                let grads: Vec<(ParamId, Tensor)> = bp
                    .iter()
                    .filter_map(|(id, v)| g.take_grad(v).map(|t| (id, t)))
                    .collect();
                let flat = flatten_grads(replica.params(), &grads);
                if flat_sum.is_empty() {
                    flat_sum = flat.iter().map(|&v| v as f64).collect();
                } else {
                    for (a, &b) in flat_sum.iter_mut().zip(flat.iter()) {
                        *a += b as f64;
                    }
                }
            }
            let mean: Vec<f32> = flat_sum.iter().map(|&v| (v / w as f64) as f32).collect();
            let grads = unflatten_grads(&ref_params, &mean);
            ref_opt.step(&mut ref_params, &grads);

            engine.step(&x, &y);
        }
        for ((_, n, te), (_, _, tr)) in engine.master_params().iter().zip(ref_params.iter()) {
            let max_diff = te
                .data()
                .iter()
                .zip(tr.data().iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max_diff < 2e-3, "param {} diverged by {}", n, max_diff);
        }
    }

    #[test]
    fn training_reduces_loss_with_multiple_workers() {
        let ds = dataset(4);
        let (x, y) = ds.batch(&[0, 1, 2, 3]);
        let mut e = DataParallelEngine::new(
            factory,
            2,
            AdamWConfig { lr: 3e-3, ..Default::default() },
        );
        let first = e.step(&x, &y).loss;
        let mut last = first;
        for _ in 0..10 {
            last = e.step(&x, &y).loss;
        }
        assert!(last < first, "{} -> {}", first, last);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn ragged_batch_panics() {
        let ds = dataset(3);
        let (x, y) = ds.batch(&[0, 1, 2]);
        let mut e = DataParallelEngine::new(factory, 2, AdamWConfig::default());
        e.step(&x, &y);
    }

    #[test]
    fn train_epoch_runs() {
        let ds = dataset(4);
        let mut e = DataParallelEngine::new(factory, 2, AdamWConfig::default());
        let loss = e.train_epoch(&ds, 2, 1);
        assert!(loss > 0.0);
    }

    #[test]
    fn crash_recovery_continues_bit_identically_to_surviving_world_size() {
        // The kill-at-step-k scenario: 3 workers, rank 1 dies at step 2.
        // A checkpoint taken just before the crash, resumed into a fresh
        // engine launched at the surviving world size, must reproduce the
        // faulted engine's post-crash trajectory bit for bit.
        let ds = dataset(6);
        let (x, y) = ds.batch(&[0, 1, 2, 3, 4, 5]);
        let cfg = AdamWConfig { lr: 2e-3, ..Default::default() };
        let dir = std::env::temp_dir().join(format!("apf_crash_demo_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("step2.apf2");

        let plan = FaultPlan::new(vec![Fault { lane: 1, nth: 2, kind: FaultKind::WorkerCrash }]);
        let mut faulted = DataParallelEngine::new(factory, 3, cfg).with_fault_plan(plan);
        let mut faulted_losses = Vec::new();
        for step in 0..5u64 {
            if step == 2 {
                faulted.save_checkpoint(&ckpt).unwrap();
            }
            let r = faulted.step(&x, &y);
            faulted_losses.push(r.loss);
            if step >= 2 {
                assert_eq!(r.world_size, 2, "step {}", step);
                assert!(r.degraded);
            } else {
                assert_eq!(r.world_size, 3);
                assert!(!r.degraded);
            }
        }
        assert!(faulted.recovery_trace().contains(&RecoveryEvent::WorkerLost {
            step: 2,
            rank: 1,
            world_after: 2,
        }));

        // Fresh engine at the surviving world size, resumed from the
        // pre-crash checkpoint (seed 7 factory proves resume overwrites).
        let other_factory = || Unetr2d::new(UnetrConfig::tiny(4, 4, GridOrder::Morton), 7);
        let mut survivor = DataParallelEngine::new(other_factory, 2, cfg);
        survivor.resume_from(&ckpt).unwrap();
        assert_eq!(survivor.step_index(), 2);
        let mut survivor_losses = Vec::new();
        for _ in 2..5u64 {
            survivor_losses.push(survivor.step(&x, &y).loss);
        }
        assert_eq!(
            faulted_losses[2..]
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>(),
            survivor_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "post-crash losses must be bit-identical to the surviving-world run"
        );
        assert_eq!(
            params_bits(faulted.master_params()),
            params_bits(survivor.master_params()),
            "post-crash parameters must be bit-identical to the surviving-world run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uneven_resharding_preserves_global_mean_objective() {
        // 4 workers, batch 4; after rank 3 dies the shards are uneven
        // (2, 1, 1). With the decomposable BCE loss, the weighted degraded
        // step must still match a single worker on the full batch.
        let ds = dataset(4);
        let (x, y) = ds.batch(&[0, 1, 2, 3]);
        let vit_factory = || {
            apf_models::vit::ViTSegmenter::new(apf_models::vit::ViTConfig::tiny(16, 16), 42)
        };
        let cfg = AdamWConfig { lr: 1e-3, ..Default::default() };
        let bce_only = ComboLossConfig { bce_weight: 1.0, epsilon: 1.0 };

        let plan = FaultPlan::new(vec![Fault { lane: 3, nth: 0, kind: FaultKind::WorkerCrash }]);
        let mut degraded = DataParallelEngine::new(vit_factory, 4, cfg).with_fault_plan(plan);
        degraded.set_loss(bce_only);
        let mut single = DataParallelEngine::new(vit_factory, 1, cfg);
        single.set_loss(bce_only);

        for step in 0..3 {
            let rd = degraded.step(&x, &y);
            let r1 = single.step(&x, &y);
            assert_eq!(rd.world_size, 3);
            assert!(rd.degraded);
            assert!(
                (rd.loss - r1.loss).abs() < 1e-4,
                "step {}: degraded loss {} vs single {}",
                step,
                rd.loss,
                r1.loss
            );
        }
        for ((_, n, td), (_, _, t1)) in
            degraded.master_params().iter().zip(single.master_params().iter())
        {
            let max_diff = td
                .data()
                .iter()
                .zip(t1.data().iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max_diff < 2e-3, "param {} diverged by {}", n, max_diff);
        }
    }

    #[test]
    fn transient_corruption_is_retried_without_changing_the_result() {
        let ds = dataset(4);
        let (x, y) = ds.batch(&[0, 1, 2, 3]);
        let cfg = AdamWConfig { lr: 1e-3, ..Default::default() };

        let plan = FaultPlan::new(vec![Fault { lane: 1, nth: 1, kind: FaultKind::GradCorruption }]);
        let mut faulted = DataParallelEngine::new(factory, 2, cfg).with_fault_plan(plan);
        let mut clean = DataParallelEngine::new(factory, 2, cfg);

        for step in 0..3u64 {
            let rf = faulted.step(&x, &y);
            let rc = clean.step(&x, &y);
            assert_eq!(rf.comm_retries, u32::from(step == 1), "step {}", step);
            assert_eq!(rf.loss.to_bits(), rc.loss.to_bits(), "step {}", step);
        }
        assert!(faulted
            .recovery_trace()
            .contains(&RecoveryEvent::CommRetry { step: 1, attempt: 1 }));
        assert_eq!(
            params_bits(faulted.master_params()),
            params_bits(clean.master_params()),
            "retried corruption must not perturb training"
        );
    }

    #[test]
    fn telemetry_mirrors_step_reports_and_recovery_events() {
        let ds = dataset(4);
        let (x, y) = ds.batch(&[0, 1, 2, 3]);
        let cfg = AdamWConfig { lr: 1e-3, ..Default::default() };
        let plan = FaultPlan::new(vec![
            Fault { lane: 1, nth: 1, kind: FaultKind::GradCorruption },
            Fault { lane: 0, nth: 2, kind: FaultKind::NanGrad },
            Fault { lane: 1, nth: 3, kind: FaultKind::WorkerCrash },
        ]);
        let tel = apf_telemetry::Telemetry::enabled();
        let mut e = DataParallelEngine::new(factory, 2, cfg)
            .with_fault_plan(plan)
            .with_telemetry(tel.clone());

        let mut retries = 0u64;
        let mut rollbacks = 0u64;
        for _ in 0..4u64 {
            let r = e.step(&x, &y);
            retries += u64::from(r.comm_retries);
            rollbacks += u64::from(r.rolled_back);
        }
        assert_eq!(retries, 1);
        assert_eq!(rollbacks, 1);

        let snap = tel.snapshot();
        let val = |name: &str| snap.get(name, &[]).map(|m| m.value).unwrap_or(-1.0);
        assert_eq!(val("apf_distsim_steps_total"), 4.0);
        assert_eq!(val("apf_distsim_comm_retries_total"), retries as f64);
        assert_eq!(val("apf_distsim_rollbacks_total"), rollbacks as f64);
        assert_eq!(val("apf_distsim_workers_lost_total"), 1.0);
        assert_eq!(val("apf_distsim_world_size"), 1.0, "gauge reflects the post-crash world");
        // 4 ring attempts at W=2 (3 full-strength steps, one of them
        // retried) each move 2(W-1)·n·4 bytes; the post-crash solo step
        // moves nothing.
        let n = e.master_params().num_scalars() as u64;
        let attempts = 4;
        let w = 2u64;
        assert_eq!(val("apf_distsim_comm_bytes_total"), (attempts * 2 * (w - 1) * n * 4) as f64);

        for phase in ["compute", "allreduce", "optimizer"] {
            let h = snap
                .get("apf_distsim_step_phase_seconds", &[("phase", phase)])
                .and_then(|m| m.histogram.clone())
                .unwrap_or_else(|| panic!("phase {} registered", phase));
            assert_eq!(h.count, 4, "phase {} recorded every step", phase);
        }
        let names: Vec<&str> = tel.trace_events().iter().map(|e| e.name).collect();
        for name in ["distsim.step", "distsim.compute", "distsim.allreduce", "distsim.update"] {
            assert!(names.contains(&name), "missing span {}", name);
        }
    }

    #[test]
    fn nan_guard_rolls_back_and_halves_lr() {
        let ds = dataset(4);
        let (x, y) = ds.batch(&[0, 1, 2, 3]);
        let cfg = AdamWConfig { lr: 1e-3, ..Default::default() };
        let plan = FaultPlan::new(vec![Fault { lane: 0, nth: 1, kind: FaultKind::NanGrad }]);
        let mut e = DataParallelEngine::new(factory, 2, cfg).with_fault_plan(plan);

        e.step(&x, &y);
        let before = params_bits(e.master_params());
        let r = e.step(&x, &y);
        assert!(r.rolled_back);
        assert_eq!(e.lr_scale(), 0.5);
        assert_eq!(
            before,
            params_bits(e.master_params()),
            "rolled-back step must leave parameters untouched"
        );
        assert!(e
            .recovery_trace()
            .contains(&RecoveryEvent::RolledBack { step: 1, lr_scale_after: 0.5 }));
        // Training continues at the halved rate.
        let r2 = e.step(&x, &y);
        assert!(!r2.rolled_back);
        assert!(r2.loss.is_finite());
        assert_ne!(before, params_bits(e.master_params()));
    }

    #[test]
    fn straggler_delays_but_does_not_perturb_training() {
        let ds = dataset(4);
        let (x, y) = ds.batch(&[0, 1, 2, 3]);
        let cfg = AdamWConfig { lr: 1e-3, ..Default::default() };
        let plan = FaultPlan::new(vec![Fault {
            lane: 1,
            nth: 0,
            kind: FaultKind::Straggler { delay_ms: 20 },
        }]);
        let mut slow = DataParallelEngine::new(factory, 2, cfg).with_fault_plan(plan);
        let mut clean = DataParallelEngine::new(factory, 2, cfg);
        let rs = slow.step(&x, &y);
        let rc = clean.step(&x, &y);
        assert_eq!(rs.loss.to_bits(), rc.loss.to_bits());
        assert!(slow.recovery_trace().contains(&RecoveryEvent::StragglerObserved {
            step: 0,
            rank: 1,
            delay_ms: 20,
        }));
        assert_eq!(params_bits(slow.master_params()), params_bits(clean.master_params()));
    }

    #[test]
    fn same_fault_plan_produces_identical_recovery_traces() {
        let ds = dataset(4);
        let (x, y) = ds.batch(&[0, 1, 2, 3]);
        let cfg = AdamWConfig { lr: 1e-3, ..Default::default() };
        let draw = |rng: &mut ChaCha8Rng| {
            if rng.gen_bool(0.05) {
                Some(FaultKind::WorkerCrash)
            } else if rng.gen_bool(0.1) {
                Some(FaultKind::GradCorruption)
            } else if rng.gen_bool(0.1) {
                Some(FaultKind::Straggler { delay_ms: rng.gen_range(1..=3) })
            } else {
                None
            }
        };
        let run = |seed: u64| {
            let plan = FaultPlan::random(seed, 4, 6, draw);
            let mut e = DataParallelEngine::new(factory, 4, cfg).with_fault_plan(plan);
            let mut losses = Vec::new();
            for _ in 0..6 {
                losses.push(e.step(&x, &y).loss.to_bits());
            }
            (losses, e.recovery_trace().to_vec(), params_bits(e.master_params()))
        };
        let (l1, t1, p1) = run(11);
        let (l2, t2, p2) = run(11);
        assert!(!t1.is_empty(), "seed 11 should schedule at least one fault");
        assert_eq!(t1, t2, "recovery traces must be deterministic");
        assert_eq!(l1, l2, "loss trajectories must be deterministic");
        assert_eq!(p1, p2, "final parameters must be deterministic");
    }

    #[test]
    fn crashing_every_rank_at_once_leaves_one_survivor() {
        let ds = dataset(4);
        let (x, y) = ds.batch(&[0, 1, 2, 3]);
        let cfg = AdamWConfig { lr: 1e-3, ..Default::default() };
        let world = 4;
        let plan = FaultPlan::new(
            (0..world).map(|lane| Fault { lane, nth: 1, kind: FaultKind::WorkerCrash }).collect(),
        );
        let mut e = DataParallelEngine::new(factory, world, cfg).with_fault_plan(plan);
        e.step(&x, &y);
        let r = e.step(&x, &y);
        assert_eq!(r.world_size, 1, "the last replica is never removed");
        let lost = e
            .recovery_trace()
            .iter()
            .filter(|ev| matches!(ev, RecoveryEvent::WorkerLost { .. }))
            .count();
        assert_eq!(lost, world - 1);
        let before = params_bits(e.master_params());
        let r2 = e.step(&x, &y);
        assert_eq!(r2.world_size, 1);
        assert!(r2.loss.is_finite());
        assert_ne!(before, params_bits(e.master_params()), "the survivor keeps training");
    }
}
