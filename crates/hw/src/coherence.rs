//! Inter-processor interrupts and TLB shootdowns.
//!
//! In the SMP baseline every `munmap`/protection change pays a TLB shootdown
//! across all cores the address space runs on; in the replicated-kernel
//! design shootdowns stay within one kernel's (smaller) core set, with
//! cross-kernel invalidation carried by messages instead. This module prices
//! both the IPI primitive and the full shootdown round.

use popcorn_sim::SimTime;

use crate::params::HwParams;

/// Cost breakdown of one TLB shootdown round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShootdownCost {
    /// Time the initiating core is busy (setup, sending, waiting for acks).
    pub initiator_busy: SimTime,
    /// Time each target core spends in the flush IPI handler.
    pub target_busy: SimTime,
}

/// IPI and TLB shootdown cost model.
///
/// # Example
///
/// ```
/// use popcorn_hw::{ShootdownModel, HwParams};
///
/// let m = ShootdownModel::new(&HwParams::default());
/// let few = m.tlb_shootdown(1);
/// let many = m.tlb_shootdown(3);
/// assert!(many.initiator_busy > few.initiator_busy);
/// ```
#[derive(Debug, Clone)]
pub struct ShootdownModel {
    ipi_latency: SimTime,
    ipi_handler: SimTime,
    base: SimTime,
    per_target_send: SimTime,
    local_invalidate: SimTime,
}

impl ShootdownModel {
    /// Builds the model from hardware parameters.
    pub fn new(params: &HwParams) -> Self {
        ShootdownModel {
            ipi_latency: params.ipi_latency(),
            ipi_handler: params.ipi_handler(),
            base: SimTime::from_nanos(params.tlb_shootdown_base_ns),
            // Writing the ICR register per destination, roughly one atomic.
            per_target_send: params.atomic_op(),
            local_invalidate: SimTime::from_nanos(params.tlb_invalidate_local_ns),
        }
    }

    /// One-way IPI delivery latency (send to handler entry).
    pub fn ipi_latency(&self) -> SimTime {
        self.ipi_latency
    }

    /// Cost of running an IPI handler on the target core.
    pub fn ipi_handler_cost(&self) -> SimTime {
        self.ipi_handler
    }

    /// Local-only TLB invalidation (no remote cores map the page).
    pub fn local_invalidate(&self) -> SimTime {
        self.base + self.local_invalidate
    }

    /// A full shootdown: invalidate locally, IPI each of `targets` other
    /// cores, wait for all acks. Targets run their handlers in parallel, so
    /// initiator wall time grows with target *count* only through send
    /// overhead, plus one round-trip. With no targets it is a local-only
    /// invalidation.
    pub fn tlb_shootdown(&self, targets: usize) -> ShootdownCost {
        if targets == 0 {
            return ShootdownCost {
                initiator_busy: self.local_invalidate(),
                target_busy: SimTime::ZERO,
            };
        }
        let sends = self.per_target_send * targets as u64;
        let target_busy = self.ipi_handler + self.local_invalidate;
        // Round trip: deliver, flush, ack flight back.
        let round_trip = self.ipi_latency + target_busy + self.ipi_latency;
        ShootdownCost {
            initiator_busy: self.base + self.local_invalidate + sends + round_trip,
            target_busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ShootdownModel {
        ShootdownModel::new(&HwParams::default())
    }

    #[test]
    fn empty_target_set_is_local_only() {
        let m = model();
        let c = m.tlb_shootdown(0);
        assert_eq!(c.initiator_busy, m.local_invalidate());
        assert_eq!(c.target_busy, SimTime::ZERO);
    }

    #[test]
    fn cost_grows_with_target_count() {
        let m = model();
        let one = m.tlb_shootdown(1).initiator_busy;
        let four = m.tlb_shootdown(4).initiator_busy;
        assert!(four > one);
        // But sub-linearly: handlers run in parallel, so 4 targets cost far
        // less than 4× one target.
        assert!(four.as_nanos() < 2 * one.as_nanos());
    }

    #[test]
    fn remote_shootdown_dwarfs_local() {
        let m = model();
        let remote = m.tlb_shootdown(1).initiator_busy;
        assert!(remote.as_nanos() > 3 * m.local_invalidate().as_nanos());
    }

    #[test]
    fn target_busy_is_handler_plus_flush() {
        let m = model();
        let p = HwParams::default();
        let c = m.tlb_shootdown(1);
        assert_eq!(
            c.target_busy.as_nanos(),
            p.ipi_handler_ns + p.tlb_invalidate_local_ns
        );
    }
}
