//! Byte-level residency accounting for the out-of-core pipeline.
//!
//! Every component that holds decoded pixel data — the tile cache, window
//! assembly buffers, the stitching accumulator — charges its bytes against
//! one shared [`Residency`], so "peak resident tile bytes" in the bench
//! report is a single number covering the whole drive, not a per-component
//! estimate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use apf_core::lru::Charge;
use apf_telemetry::{Gauge, Telemetry};

struct Inner {
    current: AtomicUsize,
    peak: AtomicUsize,
    gauge: Gauge,
    peak_gauge: Gauge,
}

/// Shared current/peak byte counter, mirrored into the
/// `apf_gigapixel_resident_bytes` and `apf_gigapixel_resident_peak_bytes`
/// gauges. Clones share state.
#[derive(Clone)]
pub struct Residency {
    inner: Arc<Inner>,
}

impl Residency {
    /// New tracker registering its gauges on `tel`.
    pub fn new(tel: &Telemetry) -> Self {
        Residency {
            inner: Arc::new(Inner {
                current: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                gauge: tel.gauge(
                    "apf_gigapixel_resident_bytes",
                    "Decoded pixel bytes currently resident across cache, windows, and accumulator",
                ),
                peak_gauge: tel.gauge(
                    "apf_gigapixel_resident_peak_bytes",
                    "High-water mark of apf_gigapixel_resident_bytes",
                ),
            }),
        }
    }

    /// Charges `bytes` and updates the peak.
    pub fn add(&self, bytes: usize) {
        let now = self.inner.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.inner.peak.fetch_max(now, Ordering::Relaxed);
        self.inner.gauge.set(now as f64);
        self.inner.peak_gauge.set(self.peak() as f64);
    }

    /// Releases `bytes`.
    pub fn sub(&self, bytes: usize) {
        let now = self.inner.current.fetch_sub(bytes, Ordering::Relaxed) - bytes;
        self.inner.gauge.set(now as f64);
    }

    /// Currently charged bytes.
    pub fn current(&self) -> usize {
        self.inner.current.load(Ordering::Relaxed)
    }

    /// High-water mark since creation.
    pub fn peak(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }
}

/// The tile cache charges its resident tiles here.
impl Charge for Residency {
    fn add(&self, bytes: usize) {
        Residency::add(self, bytes);
    }

    fn sub(&self, bytes: usize) {
        Residency::sub(self, bytes);
    }
}

/// RAII charge: releases its bytes when dropped. Use for transient buffers
/// (window images, logit planes) so early returns cannot leak accounting.
pub struct ResidencyCharge {
    res: Residency,
    bytes: usize,
}

impl ResidencyCharge {
    /// Charges `bytes` against `res` until the guard drops.
    pub fn new(res: &Residency, bytes: usize) -> Self {
        res.add(bytes);
        ResidencyCharge { res: res.clone(), bytes }
    }
}

impl Drop for ResidencyCharge {
    fn drop(&mut self) {
        self.res.sub(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water_mark() {
        let tel = Telemetry::enabled();
        let r = Residency::new(&tel);
        r.add(100);
        {
            let _c = ResidencyCharge::new(&r, 400);
            assert_eq!(r.current(), 500);
        }
        assert_eq!(r.current(), 100);
        assert_eq!(r.peak(), 500);
        r.sub(100);
        assert_eq!(r.current(), 0);
        assert_eq!(r.peak(), 500);
        let snap = tel.snapshot();
        let g = snap.get("apf_gigapixel_resident_peak_bytes", &[]).unwrap();
        assert_eq!(g.value, 500.0);
    }
}
