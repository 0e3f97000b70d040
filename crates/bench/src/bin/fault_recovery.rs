//! Kill-at-step-k demonstration of the fault-tolerant engine: a worker
//! crashes mid-run, the engine re-shards over the survivors, and a fresh
//! process resumed from the last crash-safe checkpoint reproduces the
//! post-crash trajectory bit for bit. Also shows that a corrupted
//! checkpoint is detected and refused rather than loaded.
//!
//! Usage: `cargo run --release -p apf-bench --bin fault_recovery
//!         [--steps 8] [--crash-step 3] [--workers 3] [--batch 6]`

use apf_bench::{print_table, save_json, Args};
use apf_core::fault::{Fault, FaultPlan};
use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_distsim::engine::DataParallelEngine;
use apf_distsim::fault::FaultKind;
use apf_imaging::paip::{PaipConfig, PaipGenerator};
use apf_models::rearrange::GridOrder;
use apf_models::unetr::{Unetr2d, UnetrConfig};
use apf_train::data::TokenSegDataset;
use apf_train::optim::AdamWConfig;
use serde::Serialize;

#[derive(Serialize)]
struct StepRow {
    step: u64,
    world_size: usize,
    loss: f64,
    degraded: bool,
    comm_retries: u32,
    rolled_back: bool,
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let steps = args.get("steps", if quick { 5u64 } else { 8 });
    let crash_step = args.get("crash-step", 3u64).min(steps.saturating_sub(1));
    let workers = args.get("workers", 3usize);
    let batch = args.get("batch", 6usize);
    assert!(workers >= 2, "need at least 2 workers to survive a crash");

    let gen = PaipGenerator::new(PaipConfig::at_resolution(64));
    let pairs: Vec<_> = (0..batch)
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
    let ds = TokenSegDataset::adaptive(&pairs, &patcher);
    let (x, y) = ds.batch(&(0..batch).collect::<Vec<_>>());
    let factory = || Unetr2d::new(UnetrConfig::tiny(4, 4, GridOrder::Morton), 42);

    let dir = std::env::temp_dir().join(format!("apf_fault_recovery_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join("latest.apf2");

    // ---- Faulted run: corruption at step 1, crash at `crash_step` ----
    let plan = FaultPlan::new(vec![
        Fault { lane: 0, nth: 1, kind: FaultKind::GradCorruption },
        Fault { lane: 1, nth: crash_step, kind: FaultKind::WorkerCrash },
    ]);
    let mut engine = DataParallelEngine::new(factory, workers, AdamWConfig::default())
        .with_fault_plan(plan);

    println!(
        "faulted run: {} workers, batch {}, corruption @ step 1, crash of rank 1 @ step {}",
        workers, batch, crash_step
    );
    let mut rows = Vec::new();
    let mut table = Vec::new();
    let mut faulted_losses = Vec::new();
    for step in 0..steps {
        // Crash-safe checkpoint before every step: atomic rename means the
        // previous checkpoint survives a crash mid-write.
        engine.save_checkpoint(&ckpt).expect("checkpoint");
        if step == crash_step {
            std::fs::copy(&ckpt, dir.join("pre_crash.apf2")).expect("copy");
        }
        let r = engine.step(&x, &y);
        faulted_losses.push(r.loss);
        table.push(vec![
            step.to_string(),
            r.world_size.to_string(),
            format!("{:.6}", r.loss),
            if r.degraded { "yes" } else { "no" }.to_string(),
            r.comm_retries.to_string(),
            if r.rolled_back { "yes" } else { "no" }.to_string(),
        ]);
        rows.push(StepRow {
            step,
            world_size: r.world_size,
            loss: r.loss,
            degraded: r.degraded,
            comm_retries: r.comm_retries,
            rolled_back: r.rolled_back,
        });
    }
    print_table(
        "Faulted run — per-step report",
        &["step", "world", "loss", "degraded", "retries", "rolled back"],
        &table,
    );
    println!("\nrecovery trace:");
    for e in engine.recovery_trace() {
        println!("  {:?}", e);
    }

    // ---- Resume on the survivors from the pre-crash checkpoint ----
    let survivors = workers - 1;
    let mut resumed = DataParallelEngine::new(factory, survivors, AdamWConfig::default());
    resumed
        .resume_from(dir.join("pre_crash.apf2"))
        .expect("resume from pre-crash checkpoint");
    println!(
        "\nresumed a fresh {}-worker engine from the step-{} checkpoint; replaying steps {}..{}",
        survivors, crash_step, crash_step, steps
    );
    let mut resumed_losses = Vec::new();
    for _ in crash_step..steps {
        resumed_losses.push(resumed.step(&x, &y).loss);
    }
    let identical = faulted_losses[crash_step as usize..]
        .iter()
        .zip(resumed_losses.iter())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    println!(
        "post-crash losses bit-identical to the surviving-world resume: {}",
        if identical { "YES" } else { "NO" }
    );
    assert!(identical, "kill-at-step-k recovery is not bit-identical");

    // ---- Corrupted checkpoints are refused, never loaded ----
    let mut bytes = std::fs::read(&ckpt).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let bad = dir.join("corrupt.apf2");
    std::fs::write(&bad, &bytes).expect("write corrupted checkpoint");
    let mut victim = DataParallelEngine::new(factory, survivors, AdamWConfig::default());
    match victim.resume_from(&bad) {
        Ok(()) => panic!("corrupted checkpoint was loaded"),
        Err(e) => println!("\ncorrupted checkpoint (byte {} flipped) refused: {}", mid, e),
    }

    save_json("fault_recovery", &rows);
    let _ = std::fs::remove_dir_all(&dir);
}
