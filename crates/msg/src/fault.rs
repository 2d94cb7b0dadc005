//! Deterministic fault injection for the message fabric.
//!
//! A [`FaultPlan`] scripts what the fabric does to messages *after* the
//! sender has paid the full send cost: uniform or per-channel probabilistic
//! **drop**, **extra delay** (jittered) and **duplication**, scripted
//! **channel blackout windows** (everything on `(from → to)` in `[start,
//! end)` is lost), **kernel crashes** (kernel `k` neither sends nor receives
//! after time `t`), and scripted **drop-the-nth-send** entries for
//! regression tests that need to lose exactly one specific message.
//!
//! All randomness comes from one [`SimRng`](popcorn_sim::SimRng) seeded by
//! the plan, and the fabric draws a *fixed* number of values per faulty-mode
//! send regardless of the outcome, so the same seed + plan always produces
//! the same fault pattern no matter which faults actually fire. With the
//! default [`FaultPlan::none()`] the fabric performs **zero** draws and the
//! send path is byte-identical to a build without this module.

use popcorn_sim::{SimRng, SimTime};

use crate::fabric::KernelId;

/// Probabilistic fault rates for one channel (or, as `uniform`, for all).
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelFaults {
    /// Probability that a message is silently lost in flight.
    pub drop_p: f64,
    /// Probability that a message is delivered twice.
    pub dup_p: f64,
    /// Probability that a message picks up extra in-flight delay.
    pub delay_p: f64,
    /// Maximum extra delay, in nanoseconds (uniform jitter in `[0, max]`).
    pub delay_max_ns: u64,
}

impl ChannelFaults {
    /// Drop-only faults at probability `p`.
    pub fn drop_only(p: f64) -> Self {
        ChannelFaults {
            drop_p: p,
            dup_p: 0.0,
            delay_p: 0.0,
            delay_max_ns: 0,
        }
    }
}

/// A scripted window during which one directed channel loses everything.
#[derive(Debug, Clone, PartialEq)]
pub struct Blackout {
    /// Sending kernel.
    pub from: KernelId,
    /// Receiving kernel.
    pub to: KernelId,
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
}

/// A scripted kernel crash: `kernel` stops sending and receiving at `at`.
#[derive(Debug, Clone, PartialEq)]
pub struct Crash {
    /// The kernel that dies.
    pub kernel: KernelId,
    /// Crash instant; any message sent or due at/after this time involving
    /// the kernel is lost.
    pub at: SimTime,
}

/// A deterministic script of message-fabric faults.
///
/// The default plan ([`FaultPlan::none()`]) injects nothing and costs
/// nothing: the fabric skips the fault path entirely, preserving the RNG
/// stream and byte-identical results.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injection RNG (independent of every workload RNG).
    pub seed: u64,
    /// Fault rates applied to every channel (unless overridden per channel).
    pub uniform: Option<ChannelFaults>,
    /// Per-channel overrides, keyed by directed pair.
    pub channels: Vec<((KernelId, KernelId), ChannelFaults)>,
    /// Scripted blackout windows.
    pub blackouts: Vec<Blackout>,
    /// Scripted kernel crashes.
    pub crashes: Vec<Crash>,
    /// Scripted single-message drops: lose the `n`-th send (1-based) on the
    /// directed channel. Exact and probability-free — for tests.
    pub drop_nth: Vec<(KernelId, KernelId, u64)>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults, no RNG draws, byte-identical behaviour.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            uniform: None,
            channels: Vec::new(),
            blackouts: Vec::new(),
            crashes: Vec::new(),
            drop_nth: Vec::new(),
        }
    }

    /// A plan that drops every message with probability `p` on every
    /// channel, seeded by `seed`.
    pub fn uniform_drop(seed: u64, p: f64) -> Self {
        FaultPlan {
            seed,
            uniform: Some(ChannelFaults::drop_only(p)),
            ..Self::none()
        }
    }

    /// Adds a blackout window on the directed channel `from → to`.
    pub fn with_blackout(
        mut self,
        from: KernelId,
        to: KernelId,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        self.blackouts.push(Blackout {
            from,
            to,
            start,
            end,
        });
        self
    }

    /// Adds a kernel crash at `at`.
    pub fn with_crash(mut self, kernel: KernelId, at: SimTime) -> Self {
        self.crashes.push(Crash { kernel, at });
        self
    }

    /// Overrides fault rates on the directed channel `from → to`.
    pub fn with_channel(mut self, from: KernelId, to: KernelId, faults: ChannelFaults) -> Self {
        self.channels.push(((from, to), faults));
        self
    }

    /// Adds a scripted drop of the `nth` send (1-based) on `from → to`.
    pub fn with_drop_nth(mut self, from: KernelId, to: KernelId, nth: u64) -> Self {
        self.drop_nth.push((from, to, nth));
        self
    }

    /// Whether the plan injects anything at all. `false` guarantees the
    /// fabric takes the zero-overhead path.
    pub fn is_active(&self) -> bool {
        self.uniform.is_some()
            || !self.channels.is_empty()
            || !self.blackouts.is_empty()
            || !self.crashes.is_empty()
            || !self.drop_nth.is_empty()
    }

    /// Whether `kernel` has crashed by virtual time `now`.
    pub fn is_crashed(&self, kernel: KernelId, now: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|c| c.kernel == kernel && now >= c.at)
    }

    /// Whether the directed channel `from → to` is inside a blackout window
    /// at `now` (windows are half-open, `[start, end)`).
    pub fn is_blacked_out(&self, from: KernelId, to: KernelId, now: SimTime) -> bool {
        self.blackouts
            .iter()
            .any(|b| b.from == from && b.to == to && now >= b.start && now < b.end)
    }

    /// Fault rates in effect for the directed channel, if any.
    fn rates_for(&self, from: KernelId, to: KernelId) -> Option<&ChannelFaults> {
        self.channels
            .iter()
            .find(|&&(pair, _)| pair == (from, to))
            .map(|(_, f)| f)
            .or(self.uniform.as_ref())
    }

    /// Validates probabilities and windows.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let check = |f: &ChannelFaults, whom: &str| -> Result<(), String> {
            for (name, p) in [
                ("drop_p", f.drop_p),
                ("dup_p", f.dup_p),
                ("delay_p", f.delay_p),
            ] {
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("{whom}: {name} = {p} outside [0, 1]"));
                }
            }
            if f.delay_p > 0.0 && f.delay_max_ns == 0 {
                return Err(format!("{whom}: delay_p > 0 with delay_max_ns = 0"));
            }
            Ok(())
        };
        if let Some(u) = &self.uniform {
            check(u, "uniform faults")?;
        }
        for ((f, t), rates) in &self.channels {
            check(rates, &format!("channel {f}->{t}"))?;
        }
        for b in &self.blackouts {
            if b.start >= b.end {
                return Err(format!(
                    "blackout {}->{}: empty window [{}, {})",
                    b.from, b.to, b.start, b.end
                ));
            }
        }
        for (f, t, n) in &self.drop_nth {
            if f == t {
                return Err(format!("drop_nth on self-channel {f}->{t}"));
            }
            if *n == 0 {
                return Err("drop_nth indices are 1-based; 0 is invalid".into());
            }
        }
        Ok(())
    }
}

/// What a faulty fabric did to messages, per category — surfaced through
/// `PopStats` so experiments can report injected faults next to recovery
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages lost to probabilistic drop.
    pub drops: u64,
    /// Messages delivered twice.
    pub dups: u64,
    /// Messages that picked up extra delay.
    pub delays: u64,
    /// Messages lost inside a blackout window.
    pub blackout_drops: u64,
    /// Messages lost because either endpoint had crashed.
    pub crash_drops: u64,
}

impl FaultCounters {
    /// Total messages lost for any reason.
    pub fn total_lost(&self) -> u64 {
        self.drops + self.blackout_drops + self.crash_drops
    }
}

/// Live injection state owned by the fabric when a plan is active.
#[derive(Debug)]
pub(crate) struct FaultRuntime {
    pub(crate) plan: FaultPlan,
    rng: SimRng,
    pub(crate) counters: FaultCounters,
}

/// The fabric's per-send fault decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Deliver normally, with this much extra in-flight delay and an
    /// optional duplicate.
    Deliver {
        extra_delay: SimTime,
        duplicate: bool,
    },
    /// The message is lost.
    Drop,
}

impl FaultRuntime {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = SimRng::new(plan.seed);
        FaultRuntime {
            plan,
            rng,
            counters: FaultCounters::default(),
        }
    }

    /// Decides the fate of the `send_ordinal`-th send (1-based) on the
    /// channel. Always draws the same number of RNG values for a given plan
    /// shape, so decisions for later messages never depend on which earlier
    /// faults fired.
    pub(crate) fn judge(
        &mut self,
        now: SimTime,
        from: KernelId,
        to: KernelId,
        send_ordinal: u64,
    ) -> Verdict {
        // Fixed draw schedule (only when probabilistic rates exist for this
        // channel): drop, delay?, jitter, dup. Scripted faults are
        // probability-free and draw nothing.
        let (dropped_by_rate, extra_delay, duplicate) = match self.plan.rates_for(from, to) {
            Some(rates) => {
                let rates = rates.clone();
                let drop_u = self.rng.f64();
                let delay_u = self.rng.f64();
                let jitter = self.rng.next_u64();
                let dup_u = self.rng.f64();
                let extra = if delay_u < rates.delay_p {
                    SimTime::from_nanos(jitter % (rates.delay_max_ns + 1))
                } else {
                    SimTime::ZERO
                };
                (drop_u < rates.drop_p, extra, dup_u < rates.dup_p)
            }
            None => (false, SimTime::ZERO, false),
        };

        if self.plan.is_crashed(from, now) || self.plan.is_crashed(to, now) {
            self.counters.crash_drops += 1;
            return Verdict::Drop;
        }
        if self.plan.is_blacked_out(from, to, now) {
            self.counters.blackout_drops += 1;
            return Verdict::Drop;
        }
        if self
            .plan
            .drop_nth
            .iter()
            .any(|&(f, t, n)| f == from && t == to && n == send_ordinal)
        {
            self.counters.drops += 1;
            return Verdict::Drop;
        }
        if dropped_by_rate {
            self.counters.drops += 1;
            return Verdict::Drop;
        }
        if extra_delay > SimTime::ZERO {
            self.counters.delays += 1;
        }
        if duplicate {
            self.counters.dups += 1;
        }
        Verdict::Deliver {
            extra_delay,
            duplicate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_valid() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert_eq!(p.validate(), Ok(()));
        assert_eq!(p, FaultPlan::default());
    }

    #[test]
    fn uniform_drop_is_active() {
        assert!(FaultPlan::uniform_drop(1, 0.01).is_active());
    }

    #[test]
    fn bad_probability_rejected() {
        let p = FaultPlan::uniform_drop(1, 1.5);
        assert!(p.validate().is_err());
    }

    #[test]
    fn empty_blackout_rejected() {
        let p = FaultPlan::none().with_blackout(
            KernelId(0),
            KernelId(1),
            SimTime::from_nanos(100),
            SimTime::from_nanos(100),
        );
        assert!(p.validate().is_err());
    }

    #[test]
    fn crash_query_respects_time() {
        let p = FaultPlan::none().with_crash(KernelId(2), SimTime::from_nanos(500));
        assert!(!p.is_crashed(KernelId(2), SimTime::from_nanos(499)));
        assert!(p.is_crashed(KernelId(2), SimTime::from_nanos(500)));
        assert!(!p.is_crashed(KernelId(0), SimTime::from_nanos(900)));
    }

    #[test]
    fn judge_is_deterministic() {
        let plan = FaultPlan::uniform_drop(42, 0.3);
        let run = || {
            let mut rt = FaultRuntime::new(plan.clone());
            (0..200)
                .map(|i| rt.judge(SimTime::from_nanos(i), KernelId(0), KernelId(1), i + 1))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn drop_nth_hits_exactly_that_send() {
        let plan = FaultPlan::none().with_drop_nth(KernelId(0), KernelId(1), 3);
        let mut rt = FaultRuntime::new(plan);
        for i in 1..=5u64 {
            let v = rt.judge(SimTime::ZERO, KernelId(0), KernelId(1), i);
            if i == 3 {
                assert_eq!(v, Verdict::Drop);
            } else {
                assert!(matches!(v, Verdict::Deliver { .. }));
            }
        }
        // The reverse channel is untouched.
        let v = rt.judge(SimTime::ZERO, KernelId(1), KernelId(0), 3);
        assert!(matches!(v, Verdict::Deliver { .. }));
        assert_eq!(rt.counters.drops, 1);
    }

    #[test]
    fn blackout_window_is_half_open() {
        let plan = FaultPlan::none().with_blackout(
            KernelId(0),
            KernelId(1),
            SimTime::from_nanos(100),
            SimTime::from_nanos(200),
        );
        let mut rt = FaultRuntime::new(plan);
        let at = |ns| SimTime::from_nanos(ns);
        assert!(matches!(
            rt.judge(at(99), KernelId(0), KernelId(1), 1),
            Verdict::Deliver { .. }
        ));
        assert_eq!(
            rt.judge(at(100), KernelId(0), KernelId(1), 2),
            Verdict::Drop
        );
        assert_eq!(
            rt.judge(at(199), KernelId(0), KernelId(1), 3),
            Verdict::Drop
        );
        assert!(matches!(
            rt.judge(at(200), KernelId(0), KernelId(1), 4),
            Verdict::Deliver { .. }
        ));
        assert_eq!(rt.counters.blackout_drops, 2);
    }

    #[test]
    fn drop_rate_roughly_matches_probability() {
        let plan = FaultPlan::uniform_drop(7, 0.1);
        let mut rt = FaultRuntime::new(plan);
        let n = 20_000u64;
        let mut drops = 0;
        for i in 1..=n {
            if rt.judge(SimTime::ZERO, KernelId(0), KernelId(1), i) == Verdict::Drop {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "drop rate {rate} far from 0.1");
    }

    #[test]
    fn crashed_sender_loses_messages_both_ways() {
        let plan = FaultPlan::none().with_crash(KernelId(1), SimTime::from_nanos(10));
        let mut rt = FaultRuntime::new(plan);
        let at = SimTime::from_nanos(20);
        assert_eq!(rt.judge(at, KernelId(1), KernelId(0), 1), Verdict::Drop);
        assert_eq!(rt.judge(at, KernelId(0), KernelId(1), 1), Verdict::Drop);
        assert_eq!(rt.counters.crash_drops, 2);
    }
}
