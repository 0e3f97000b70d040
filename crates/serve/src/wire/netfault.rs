//! Seeded network-fault injection at the socket layer.
//!
//! A client carries a seeded
//! [`FaultPlan<NetFaultKind>`](apf_core::fault::FaultPlan) on lane 0,
//! keyed by its attempt counter; when an attempt is faulted, the client's
//! send path mangles the connection instead of (or while) transmitting
//! the request frame:
//!
//! * **Torn write** — only a prefix of the frame goes out before the
//!   socket is shut down. The server must answer with a typed
//!   `Truncated`/`Stalled` decode error, never a panic or a hang.
//! * **Stalled write** — the frame stops flowing mid-header for longer
//!   than the server's read deadline: the slow-loris probe.
//! * **Disconnect** — the connection drops before any frame bytes.
//! * **Garbage** — random bytes that are not a frame at all; the server
//!   must type them as `BadMagic`/CRC failures.
//!
//! The faulted attempt always looks like transport failure to the client,
//! which exercises its reconnect + backoff path under the same seed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::frame::HEADER_LEN;

/// One kind of injected socket mischief.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Send only the first `keep_bytes` of the frame, then shut down.
    TornWrite {
        /// Frame prefix length that actually reaches the wire.
        keep_bytes: usize,
    },
    /// Send a partial frame, stall for `stall_ms`, then shut down — long
    /// stalls must trip the server's slow-loris read deadline.
    StalledWrite {
        /// Frame prefix length sent before the stall.
        keep_bytes: usize,
        /// How long the connection goes silent mid-frame.
        stall_ms: u64,
    },
    /// Drop the connection before writing anything.
    Disconnect,
    /// Send `len` seeded garbage bytes instead of a frame.
    Garbage {
        /// Garbage byte count.
        len: usize,
    },
}

impl NetFaultKind {
    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            NetFaultKind::TornWrite { .. } => "torn_write",
            NetFaultKind::StalledWrite { .. } => "stalled_write",
            NetFaultKind::Disconnect => "disconnect",
            NetFaultKind::Garbage { .. } => "garbage",
        }
    }

    /// The soak's per-attempt draw for
    /// [`FaultPlan::random`](apf_core::fault::FaultPlan::random): a torn
    /// write with probability 0.05, else a 40–120 ms mid-header stall with
    /// 0.03, else a disconnect with 0.04, else garbage with 0.04.
    /// `keep_bytes` of a torn write falls inside the header half the time
    /// and mid-payload otherwise, so both torn shapes occur.
    pub fn draw(rng: &mut ChaCha8Rng) -> Option<Self> {
        if rng.gen_bool(0.05) {
            let keep_bytes = if rng.gen_bool(0.5) {
                rng.gen_range(1usize..HEADER_LEN)
            } else {
                rng.gen_range(HEADER_LEN..HEADER_LEN + 64)
            };
            Some(NetFaultKind::TornWrite { keep_bytes })
        } else if rng.gen_bool(0.03) {
            let keep_bytes = rng.gen_range(1usize..HEADER_LEN);
            let stall_ms = rng.gen_range(40..=120);
            Some(NetFaultKind::StalledWrite { keep_bytes, stall_ms })
        } else if rng.gen_bool(0.04) {
            Some(NetFaultKind::Disconnect)
        } else if rng.gen_bool(0.04) {
            Some(NetFaultKind::Garbage { len: rng.gen_range(1usize..96) })
        } else {
            None
        }
    }

    /// Seeded garbage bytes for a [`NetFaultKind::Garbage`] attempt —
    /// deterministic, and guaranteed not to start with the frame magic.
    pub fn garbage_bytes(seed: u64, nth: u64, len: usize) -> Vec<u8> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ nth.rotate_left(17));
        let mut out: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        if out.first() == Some(&b'A') {
            out[0] = b'Z';
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_core::fault::FaultPlan;
    use NetFaultKind::*;

    #[test]
    fn default_draw_reproduces_the_golden_seed_7_plan() {
        let plan = FaultPlan::random(7, 1, 100, NetFaultKind::draw);
        let got: Vec<_> = plan.events().iter().map(|e| (e.lane, e.nth, e.kind)).collect();
        assert_eq!(
            got,
            [
                (0, 11, Disconnect),
                (0, 20, TornWrite { keep_bytes: 23 }),
                (0, 31, Disconnect),
                (0, 33, Disconnect),
                (0, 35, StalledWrite { keep_bytes: 24, stall_ms: 82 }),
                (0, 38, Disconnect),
                (0, 40, Garbage { len: 1 }),
                (0, 45, Disconnect),
                (0, 46, TornWrite { keep_bytes: 50 }),
                (0, 55, TornWrite { keep_bytes: 18 }),
                (0, 64, TornWrite { keep_bytes: 90 }),
                (0, 71, StalledWrite { keep_bytes: 11, stall_ms: 114 }),
                (0, 77, TornWrite { keep_bytes: 90 }),
                (0, 87, Disconnect),
                (0, 97, Disconnect),
                (0, 98, Disconnect),
            ]
        );
    }

    #[test]
    fn all_fault_kinds_appear_at_default_rates() {
        let plan = FaultPlan::random(11, 1, 2000, NetFaultKind::draw);
        let mut labels: Vec<&str> = plan.events().iter().map(|e| e.kind.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels, ["disconnect", "garbage", "stalled_write", "torn_write"]);
    }

    #[test]
    fn garbage_never_masquerades_as_a_frame() {
        for nth in 0..64 {
            let g = NetFaultKind::garbage_bytes(5, nth, 16);
            assert_eq!(g.len(), 16);
            assert_ne!(&g[..4], b"APFW");
            assert_eq!(g, NetFaultKind::garbage_bytes(5, nth, 16));
        }
    }
}
