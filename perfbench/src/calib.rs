//! Host-speed probe: operation times at a fixed reference speed.
//!
//! The benchmark runs on two vCPUs of a shared host. Other tenants' work
//! slows them in spells that last seconds to minutes, with no steal time
//! and no extra CPU time showing inside the VM: the same training step
//! takes ~250 ms in a quiet spell and ~370 ms in a busy one. A run can lie
//! wholly inside one kind of spell, so no statistic over one run removes
//! that. The compute-bound workloads therefore time a fixed probe next to
//! their operations, on the same threads, while the program is idle, and
//! report each operation at the probe's reference speed: its raw time
//! times ([`REF_MS`] / the probe time measured next to it) raised to the
//! workload's elasticity, the measured power of the probe's slowdown by
//! which that workload slows. A slower spell stretches the operation and
//! the probe alike; a change to the program moves the scaled time by the
//! same share as the raw one. Measured on two 12-second training runs
//! (elasticity 1), one mostly in a quiet spell and one mostly in a busy
//! one: raw step medians 267 and 348 ms, medians of step time over probe
//! time 183.0 and 183.2.
//!
//! The probe is the benchmark's own code, a plain `f32` matrix product on
//! matrices that stay in L2, so no change to the program under test can
//! move it.

use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// Side of the probe's square matrices: three of them (192 KiB) sit in L2.
const N: usize = 128;

/// Matrix products in one probe.
const REPS: usize = 6;

/// Milliseconds one probe takes on the reference host: a quiet spell of a
/// 2-vCPU `Intel(R) Xeon(R) Processor` (KVM), x86-64 baseline build. Scaled
/// times are milliseconds at that speed.
pub const REF_MS: f64 = 1.4;

/// The probe's working set, allocated once.
#[derive(Debug, Clone)]
struct Probe {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            a: (0..N * N)
                .map(|i| ((i * 7919) % 1000) as f32 * 1e-3)
                .collect(),
            b: (0..N * N)
                .map(|i| ((i * 104_729) % 997) as f32 * 1e-3)
                .collect(),
            c: vec![0.0; N * N],
        }
    }
}

impl Probe {
    /// Runs the probe on the calling thread; milliseconds of wall time.
    fn run_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        self.c.fill(0.0);
        for _ in 0..REPS {
            let a = black_box(&self.a);
            for i in 0..N {
                let row = &mut self.c[i * N..(i + 1) * N];
                for k in 0..N {
                    let aik = a[i * N + k];
                    for (cj, bj) in row.iter_mut().zip(&self.b[k * N..(k + 1) * N]) {
                        *cj += aik * bj;
                    }
                }
            }
        }
        black_box(&self.c);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Probe times taken between the operations of a run.
#[derive(Debug, Clone)]
pub struct HostSpeed {
    /// How far the workload slows, in log terms, per unit the probe slows.
    elasticity: f64,
    probes: [Probe; 2],
    probes_ms: Vec<f64>,
}

impl HostSpeed {
    /// No probes yet, for a workload that slows by the probe's slowdown
    /// raised to `elasticity`.
    pub fn new(elasticity: f64) -> Self {
        HostSpeed {
            elasticity,
            probes: [Probe::default(), Probe::default()],
            probes_ms: Vec::new(),
        }
    }

    /// Probes the calling thread's speed, for an operation that runs on
    /// that thread; returns the probe's index.
    pub fn probe_thread(&mut self) -> usize {
        let ms = self.probes[0].run_ms();
        self.keep(ms)
    }

    /// Probes both cores at once, for an operation spread over two
    /// threads; keeps the mean of the two times and returns its index.
    pub fn probe_cores(&mut self) -> usize {
        let [p, q] = &mut self.probes;
        let (x, y) = thread::scope(|s| {
            let other = s.spawn(|| q.run_ms());
            let x = p.run_ms();
            (x, other.join().expect("probe thread"))
        });
        self.keep((x + y) / 2.0)
    }

    fn keep(&mut self, ms: f64) -> usize {
        self.probes_ms.push(ms);
        self.probes_ms.len() - 1
    }

    /// `raw` (a time) at the reference speed, with the host's speed taken
    /// as the mean of the probes `before` and `after`.
    pub fn scale(&self, raw: f64, before: usize, after: usize) -> f64 {
        let host_ms = (self.probes_ms[before] + self.probes_ms[after]) / 2.0;
        raw * (REF_MS / host_ms).powf(self.elasticity)
    }

    /// `raw` (a statistic of the run's times) at the reference speed, with
    /// the host's speed taken as the median of all the run's probes.
    pub fn scale_run(&self, raw: f64) -> f64 {
        raw * (REF_MS / self.median_ms()).powf(self.elasticity)
    }

    /// Median probe time in milliseconds; 0 without probes.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.probes_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_a_slower_host() {
        let mut speed = HostSpeed::new(1.0);
        speed.probes_ms = vec![REF_MS, REF_MS, 2.0 * REF_MS, 2.0 * REF_MS];
        for (raw, before, after) in [(300.0, 0, 1), (600.0, 2, 3), (450.0, 1, 2)] {
            let scaled = speed.scale(raw, before, after);
            assert!((scaled - 300.0).abs() < 1e-9, "{raw} -> {scaled}");
        }
        // A workload that slows by the square root of the probe's slowdown.
        speed.elasticity = 0.5;
        let scaled = speed.scale(300.0 * 2f64.sqrt(), 2, 3);
        assert!((scaled - 300.0).abs() < 1e-9, "{scaled}");
        assert_eq!(speed.scale(300.0, 0, 1), 300.0);
    }

    #[test]
    fn probes_take_measurable_time() {
        let mut speed = HostSpeed::new(1.0);
        let a = speed.probe_thread();
        let b = speed.probe_cores();
        assert_eq!((a, b), (0, 1));
        assert!(speed.median_ms() > 0.01 && speed.median_ms() < 10_000.0);
    }
}
