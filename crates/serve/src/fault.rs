//! Deterministic transport fault injection.
//!
//! A [`FaultPlan`] is a seeded schedule of transport faults consulted at
//! each *frame boundary* — once per request a client is about to put on
//! the wire. The schedule is a pure function of the seed: the `i`-th
//! frame of a plan always draws the same [`FaultAction`], regardless of
//! wall clock, thread timing, or what the server answered. That is the
//! determinism guarantee the chaos tests lean on — a failing run
//! replays exactly from its seed.
//!
//! The faults model the client side of the transport:
//!
//! - **disconnect** — the connection drops before the request is sent
//!   (the peer vanished; the client must reconnect and replay).
//! - **corrupt** — the frame goes out with a damaged magic; the server
//!   answers `err malformed` and abandons the connection.
//! - **truncate** — only a prefix of the frame is written before the
//!   socket closes (a mid-frame tear; the server sees a disconnect).
//! - **delay** — the send stalls for a bounded number of milliseconds
//!   (congestion; exercises backoff arithmetic, not failure paths).
//!
//! All rates are expressed per mille (0–1000) so integer draws stay
//! exact. Rates are applied in the fixed order above; their sum is
//! clamped to 1000.

use ppatc_units::rng::SplitMix64;

/// The per-mille scale every fault rate is expressed in.
const PER_MILLE: u64 = 1_000;

/// Fault rates and the seed that schedules them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Schedule seed; equal seeds replay the identical fault sequence.
    pub seed: u64,
    /// Disconnect-before-send rate, per mille of frames.
    pub disconnect_per_mille: u64,
    /// Corrupt-magic rate, per mille of frames.
    pub corrupt_per_mille: u64,
    /// Truncated-frame rate, per mille of frames.
    pub truncate_per_mille: u64,
    /// Delayed-send rate, per mille of frames.
    pub delay_per_mille: u64,
    /// Upper bound (exclusive of 0: delays are `1..=max`) on an injected
    /// delay, milliseconds.
    pub max_delay_ms: u64,
}

impl FaultSpec {
    /// A plan that never injects anything (every frame passes).
    pub fn off(seed: u64) -> Self {
        Self {
            seed,
            disconnect_per_mille: 0,
            corrupt_per_mille: 0,
            truncate_per_mille: 0,
            delay_per_mille: 0,
            max_delay_ms: 0,
        }
    }
}

/// What to do to the next frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultAction {
    /// Send the frame untouched.
    Pass,
    /// Sleep this many milliseconds, then send untouched.
    Delay {
        /// Injected stall, milliseconds (always ≥ 1).
        millis: u64,
    },
    /// Send the frame with its magic bytes damaged.
    CorruptMagic,
    /// Drop the connection instead of sending.
    DisconnectBeforeSend,
    /// Write only a prefix of the frame, then drop the connection.
    TruncateFrame {
        /// How many bytes of the frame to let through before the tear.
        keep: usize,
    },
}

/// Running totals of what a plan has injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Frames the plan was consulted for.
    pub frames: u64,
    /// Frames that passed untouched.
    pub passed: u64,
    /// Injected disconnects.
    pub disconnects: u64,
    /// Injected corrupt-magic frames.
    pub corrupted: u64,
    /// Injected truncated frames.
    pub truncated: u64,
    /// Injected delays.
    pub delays: u64,
    /// Total injected delay, milliseconds.
    pub delay_ms_total: u64,
}

/// A seeded, deterministic schedule of transport faults.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    rng: SplitMix64,
    counts: FaultCounts,
}

impl FaultPlan {
    /// Builds the schedule for `spec`.
    pub fn new(spec: FaultSpec) -> Self {
        let rng = SplitMix64::new(spec.seed);
        Self {
            spec,
            rng,
            counts: FaultCounts::default(),
        }
    }

    /// A plan that always passes (for code paths that want a plan
    /// unconditionally).
    pub fn off(seed: u64) -> Self {
        Self::new(FaultSpec::off(seed))
    }

    /// The spec the plan was built from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Totals injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Draws the action for the next frame. `frame_len` is the encoded
    /// frame's size in bytes; a truncation keeps a draw-determined prefix
    /// strictly shorter than the frame.
    ///
    /// Exactly two RNG draws happen per call no matter which action comes
    /// out, so the schedule position depends only on how many frames have
    /// been drawn — never on which faults fired.
    pub fn next(&mut self, frame_len: usize) -> FaultAction {
        self.counts.frames += 1;
        let bucket = self.rng.next_below(PER_MILLE);
        // The second draw parameterizes delay/truncate; consumed always,
        // so fault rates do not shift the sequence (the always-consume
        // discipline of the Monte-Carlo sampler).
        let magnitude = self.rng.next_u64();
        let d = self.spec.disconnect_per_mille;
        let c = d + self.spec.corrupt_per_mille;
        let t = c + self.spec.truncate_per_mille;
        let y = t + self.spec.delay_per_mille;
        if bucket < d.min(PER_MILLE) {
            self.counts.disconnects += 1;
            FaultAction::DisconnectBeforeSend
        } else if bucket < c.min(PER_MILLE) {
            self.counts.corrupted += 1;
            FaultAction::CorruptMagic
        } else if bucket < t.min(PER_MILLE) {
            self.counts.truncated += 1;
            // Keep at least 1 byte and at most frame_len - 1 so the tear
            // is visible to the peer as a started-but-unfinished frame.
            let interior = (frame_len as u64).saturating_sub(1);
            let keep = if interior > 0 {
                1 + (magnitude % interior) as usize
            } else {
                0
            };
            FaultAction::TruncateFrame { keep }
        } else if bucket < y.min(PER_MILLE) && self.spec.max_delay_ms > 0 {
            self.counts.delays += 1;
            let millis = 1 + magnitude % self.spec.max_delay_ms;
            self.counts.delay_ms_total += millis;
            FaultAction::Delay { millis }
        } else {
            self.counts.passed += 1;
            FaultAction::Pass
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic_spec(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            disconnect_per_mille: 100,
            corrupt_per_mille: 100,
            truncate_per_mille: 100,
            delay_per_mille: 100,
            max_delay_ms: 5,
        }
    }

    #[test]
    fn equal_seeds_replay_the_identical_schedule() {
        let mut a = FaultPlan::new(chaotic_spec(7));
        let mut b = FaultPlan::new(chaotic_spec(7));
        for len in [9, 64, 1, 4096, 12, 100, 2, 33] {
            assert_eq!(a.next(len), b.next(len));
        }
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::new(chaotic_spec(7));
        let mut b = FaultPlan::new(chaotic_spec(8));
        let seq_a: Vec<_> = (0..64).map(|_| a.next(100)).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.next(100)).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn off_plan_always_passes() {
        let mut plan = FaultPlan::off(3);
        for _ in 0..256 {
            assert_eq!(plan.next(50), FaultAction::Pass);
        }
        let counts = plan.counts();
        assert_eq!(counts.frames, 256);
        assert_eq!(counts.passed, 256);
        assert_eq!(
            counts.disconnects + counts.corrupted + counts.truncated + counts.delays,
            0
        );
    }

    #[test]
    fn rates_land_near_their_targets() {
        let mut plan = FaultPlan::new(chaotic_spec(42));
        for _ in 0..10_000 {
            let _ = plan.next(100);
        }
        let counts = plan.counts();
        // 10% each ± generous slack; this is a sanity bound, not a
        // statistical test.
        for injected in [
            counts.disconnects,
            counts.corrupted,
            counts.truncated,
            counts.delays,
        ] {
            assert!(
                (600..=1_400).contains(&injected),
                "rate off target: {counts:?}"
            );
        }
        assert_eq!(
            counts.frames,
            counts.passed
                + counts.disconnects
                + counts.corrupted
                + counts.truncated
                + counts.delays
        );
    }

    #[test]
    fn truncation_always_tears_inside_the_frame() {
        let spec = FaultSpec {
            truncate_per_mille: PER_MILLE,
            ..FaultSpec::off(11)
        };
        let mut plan = FaultPlan::new(spec);
        for len in [2usize, 3, 9, 64, 4096] {
            match plan.next(len) {
                FaultAction::TruncateFrame { keep } => {
                    assert!(keep >= 1 && keep < len, "keep={keep} len={len}")
                }
                other => panic!("expected truncation, got {other:?}"),
            }
        }
        assert!(matches!(
            plan.next(1),
            FaultAction::TruncateFrame { keep: 0 }
        ));
    }

    #[test]
    fn oversubscribed_rates_saturate_instead_of_wrapping() {
        let spec = FaultSpec {
            seed: 1,
            disconnect_per_mille: 900,
            corrupt_per_mille: 900,
            truncate_per_mille: 900,
            delay_per_mille: 900,
            max_delay_ms: 2,
        };
        let mut plan = FaultPlan::new(spec);
        for _ in 0..1_000 {
            // Every draw must land in disconnect or corrupt (cumulative
            // thresholds clamp at 1000); nothing passes.
            let action = plan.next(100);
            assert!(
                matches!(
                    action,
                    FaultAction::DisconnectBeforeSend | FaultAction::CorruptMagic
                ),
                "unexpected action {action:?}"
            );
        }
    }
}
