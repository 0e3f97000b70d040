//! Strong-scaling study of data-parallel APF training: measured on real OS
//! threads up to the machine's core count, extended to Frontier scale by
//! the calibrated cluster model. Complements Table II by showing the
//! mechanism (compute shrinks per worker, all-reduce does not).

use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_distsim::allreduce::ring_allreduce_seconds;
use apf_distsim::cluster::{calibrate, ClusterModel};
use apf_distsim::cost::ModelDims;
use apf_distsim::engine::DataParallelEngine;
use apf_distsim::gpu::Fabric;
use apf_distsim::tree_allreduce::tree_allreduce_seconds;
use apf_models::rearrange::GridOrder;
use apf_models::unetr::{Unetr2d, UnetrConfig};
use apf_telemetry::{HistogramSnapshot, Telemetry};
use apf_train::data::TokenSegDataset;
use apf_train::optim::AdamWConfig;
use serde::Serialize;

use crate::harness::paip_pairs;
use crate::{print_table, SoakReport};

const RES: usize = 64;

#[derive(Serialize)]
struct MeasuredRow {
    workers: usize,
    /// Fastest of the `reps` timed steps: the comparison statistic.
    step_min_s: f64,
    step_mean_s: f64,
    compute_s: f64,
    sync_s: f64,
    speedup: f64,
    efficiency: f64,
}

pub fn run(quick: bool) -> SoakReport {
    let (batch, reps) = if quick { (4, 2) } else { (8, 4) };
    let pairs = paip_pairs(RES, batch);
    let patcher = AdaptivePatcher::new(PatcherConfig::for_resolution(RES).with_patch_size(4).with_target_len(64));
    let ds = TokenSegDataset::adaptive(&pairs, &patcher);
    let (x, y) = ds.batch(&(0..batch).collect::<Vec<_>>());
    let factory = || Unetr2d::new(UnetrConfig::small(8, 4, GridOrder::Morton), 42);

    // ---- Measured strong scaling on real threads ----
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let counts: Vec<usize> = [1, 2, 4, 8].into_iter().filter(|&w| w <= batch && w <= cores).collect();
    println!(
        "strong scaling: global batch {batch}, APF seq 64, up to {} worker threads ({cores} cores)",
        counts.last().copied().unwrap_or(1)
    );
    // Host load drifts between phases of a run, so the worker counts are
    // timed in alternation, one step each per round, after all are warm,
    // and compared by their fastest step. Timing comes from each engine's
    // own registry histograms (`apf_distsim_step_*`), not bench-side
    // stopwatches.
    let mut engines: Vec<(DataParallelEngine<_>, Telemetry)> = counts
        .iter()
        .map(|&w| {
            let mut engine = DataParallelEngine::new(factory, w, AdamWConfig::default());
            engine.step(&x, &y); // warm-up, before telemetry attaches
            let tel = Telemetry::enabled();
            (engine.with_telemetry(tel.clone()), tel)
        })
        .collect();
    for _ in 0..reps {
        for (engine, _) in &mut engines {
            engine.step(&x, &y);
        }
    }
    let mut t1 = 0.0;
    let mut measured = Vec::new();
    for (&w, (_, tel)) in counts.iter().zip(&engines) {
        let snap = tel.snapshot();
        let hist = |name: &str, labels: &[(&str, &str)]| {
            snap.get(name, labels)
                .and_then(|m| m.histogram.clone())
                .unwrap_or_else(HistogramSnapshot::empty)
        };
        let phase = |p: &str| hist("apf_distsim_step_phase_seconds", &[("phase", p)]).mean();
        let step = hist("apf_distsim_step_seconds", &[]);
        if w == 1 {
            t1 = step.min;
        }
        let (compute_s, sync_s) = (phase("compute"), phase("allreduce") + phase("optimizer"));
        let (speedup, efficiency) = (t1 / step.min, t1 / step.min / w as f64);
        measured.push(MeasuredRow {
            workers: w,
            step_min_s: step.min,
            step_mean_s: step.mean(),
            compute_s,
            sync_s,
            speedup,
            efficiency,
        });
    }
    let rows: Vec<Vec<String>> = measured
        .iter()
        .map(|m| {
            let secs = [m.step_min_s, m.step_mean_s, m.compute_s, m.sync_s].map(|s| format!("{s:.4}"));
            let rest = [format!("{:.2}x", m.speedup), format!("{:.0}%", m.efficiency * 100.0)];
            [m.workers.to_string()].into_iter().chain(secs).chain(rest).collect()
        })
        .collect();
    let headers = ["workers", "min step s", "mean step s", "compute s", "sync s", "speedup", "efficiency"];
    print_table("Strong scaling — real thread-per-GPU engine (ring all-reduce)", &headers, &rows);

    // ---- Modeled extension to Frontier scale ----
    let cluster = ClusterModel::frontier();
    let dims = ModelDims::vit_base(4);
    let cal = calibrate(&cluster, &dims, 16384, 1, 0.4863);
    let fabric = Fabric::frontier();
    let mut mrows = Vec::new();
    for gpus in [8usize, 64, 512, 2048] {
        let apf = cluster.predict(&dims, 2116, gpus, cal);
        let ring_s = ring_allreduce_seconds(dims.param_bytes(), gpus, &fabric);
        let tree_s = tree_allreduce_seconds(dims.param_bytes(), gpus, &fabric);
        let efficiency = 100.0 * apf.compute_s / (apf.compute_s + ring_s);
        let secs = [format!("{:.3}", apf.compute_s), format!("{ring_s:.4}"), format!("{tree_s:.4}")];
        let efficiency = format!("{efficiency:.0}%");
        mrows.push([gpus.to_string()].into_iter().chain(secs).chain([efficiency]).collect());
    }
    let headers = ["GPUs", "compute s/img", "ring AR s", "tree AR s", "efficiency"];
    print_table("Modeled at Frontier scale — APF (L = 2116) data parallel", &headers, &mrows);
    let tree_over_ring = tree_allreduce_seconds(dims.param_bytes(), 2048, &fabric)
        / ring_allreduce_seconds(dims.param_bytes(), 2048, &fabric);
    let mut report = super::report("scaling", 42, quick, &[("batch", batch), ("reps", reps)]);
    report.count("tree_over_ring_at_2048_gpus", tree_over_ring);
    report.detail("measured", &measured);
    // On one core there is nothing to compare; the single row is archived.
    let faster = measured.windows(2).all(|w| w[1].step_min_s < w[0].step_min_s);
    report.record("more_workers_step_faster", faster);
    // The ring's (P-1)/P bandwidth term saturates while its latency term
    // grows; at this message size the ring still beats the tree.
    report.record("ring_beats_tree_at_2048_gpus", tree_over_ring > 1.0);
    report
}
