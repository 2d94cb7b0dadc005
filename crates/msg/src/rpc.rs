//! Request/response correlation for the protocol layers.
//!
//! The migration, address-space and futex protocols are all
//! request/response: a kernel sends a request carrying an [`RpcId`] and
//! parks some continuation state until the matching response arrives. The
//! [`RpcTable`] owns that state; it is deliberately dumb — allocation,
//! matching and cancellation — so protocol logic stays in the protocol
//! crates.

use std::fmt;

use popcorn_sim::{FastMap, TimerKey};

/// Correlation identifier carried inside request/response payloads. Unique
/// per [`RpcTable`] (i.e. per kernel), never reused within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RpcId(pub u64);

impl fmt::Display for RpcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rpc#{}", self.0)
    }
}

/// Outstanding-request table: maps an [`RpcId`] to the caller-defined
/// continuation value that the response handler needs.
///
/// # Example
///
/// ```
/// use popcorn_msg::RpcTable;
///
/// let mut table: RpcTable<&'static str> = RpcTable::new();
/// let id = table.register("waiting-for-page");
/// assert_eq!(table.outstanding(), 1);
/// assert_eq!(table.complete(id), Some("waiting-for-page"));
/// assert_eq!(table.complete(id), None); // already completed
/// ```
#[derive(Debug, Clone)]
pub struct RpcTable<C> {
    next: u64,
    /// Each pending request's continuation and, when one was armed, the
    /// key of its response-deadline event.
    pending: FastMap<RpcId, (C, Option<TimerKey>)>,
}

impl<C> Default for RpcTable<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> RpcTable<C> {
    /// Creates an empty table.
    pub fn new() -> Self {
        RpcTable {
            next: 1,
            pending: FastMap::default(),
        }
    }

    /// Allocates a fresh id and parks `continuation` under it.
    pub fn register(&mut self, continuation: C) -> RpcId {
        let id = RpcId(self.next);
        self.next += 1;
        self.pending.insert(id, (continuation, None));
        id
    }

    /// Records the key of the cancellable timeout event the caller
    /// scheduled for a pending request's response deadline. The table
    /// only keeps the key: [`RpcTable::complete_with_timer`] hands it back
    /// so the caller can cancel the event once the response has arrived.
    /// No-op for an unknown id.
    pub fn arm_timer(&mut self, id: RpcId, key: TimerKey) {
        if let Some((_, timer)) = self.pending.get_mut(&id) {
            *timer = Some(key);
        }
    }

    /// The deadline-event key armed for a still-pending request, if any.
    pub fn timer(&self, id: RpcId) -> Option<TimerKey> {
        self.pending.get(&id).and_then(|&(_, timer)| timer)
    }

    /// Completes a request, yielding its continuation; `None` if the id is
    /// unknown or already completed (duplicate response). Duplicate
    /// responses are therefore inherently idempotent: the first wins, the
    /// rest see `None` and must do nothing.
    pub fn complete(&mut self, id: RpcId) -> Option<C> {
        self.complete_with_timer(id).map(|(c, _)| c)
    }

    /// Like [`RpcTable::complete`], but also yields the armed deadline
    /// key, which the caller should cancel.
    pub fn complete_with_timer(&mut self, id: RpcId) -> Option<(C, Option<TimerKey>)> {
        self.pending.remove(&id)
    }

    /// Peeks at a pending continuation without completing it.
    pub fn get(&self, id: RpcId) -> Option<&C> {
        self.pending.get(&id).map(|(c, _)| c)
    }

    /// Mutable peek at a pending continuation (for multi-response protocols
    /// that accumulate state before completing).
    pub fn get_mut(&mut self, id: RpcId) -> Option<&mut C> {
        self.pending.get_mut(&id).map(|(c, _)| c)
    }

    /// Number of in-flight requests.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Drops all pending requests, returning their continuations in id
    /// order (used on kernel teardown so blocked tasks can be failed).
    /// Armed deadline keys are forgotten, not returned: those events still
    /// fire, and find their request gone.
    pub fn drain(&mut self) -> Vec<(RpcId, C)> {
        let mut all: Vec<_> = self.pending.drain().map(|(id, (c, _))| (id, c)).collect();
        all.sort_unstable_by_key(|&(id, _)| id);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_monotonic() {
        let mut t: RpcTable<u32> = RpcTable::new();
        let a = t.register(1);
        let b = t.register(2);
        let c = t.register(3);
        assert!(a < b && b < c);
    }

    #[test]
    fn complete_returns_continuation_once() {
        let mut t = RpcTable::new();
        let id = t.register("x");
        assert_eq!(t.complete(id), Some("x"));
        assert_eq!(t.complete(id), None);
    }

    #[test]
    fn unknown_id_completes_to_none() {
        let mut t: RpcTable<()> = RpcTable::new();
        assert_eq!(t.complete(RpcId(999)), None);
    }

    #[test]
    fn get_mut_allows_accumulation() {
        let mut t = RpcTable::new();
        let id = t.register(vec![1]);
        t.get_mut(id).unwrap().push(2);
        assert_eq!(t.complete(id), Some(vec![1, 2]));
    }

    #[test]
    fn ids_not_reused_after_completion() {
        let mut t: RpcTable<()> = RpcTable::new();
        let a = t.register(());
        t.complete(a);
        let b = t.register(());
        assert_ne!(a, b);
    }

    /// A real key for an event parked beyond the ring window.
    fn key(seq: u64) -> TimerKey {
        let mut q = popcorn_sim::CalendarQueue::new();
        let at = popcorn_sim::SimTime::from_nanos(1_000_000_000);
        q.push_cancellable(at, seq, ())
            .expect("far events are cancellable")
    }

    #[test]
    fn timer_is_stored_and_returned_on_complete() {
        let mut t = RpcTable::new();
        let plain = t.register("no-deadline");
        let timed = t.register("timed");
        t.arm_timer(timed, key(5));
        assert_eq!(t.timer(plain), None);
        assert_eq!(t.timer(timed), Some(key(5)));
        assert_eq!(t.complete_with_timer(plain), Some(("no-deadline", None)));
        assert_eq!(t.complete_with_timer(timed), Some(("timed", Some(key(5)))));
        assert_eq!(t.timer(timed), None);
        // A duplicate (late) response after the deadline bookkeeping is
        // still idempotent.
        assert_eq!(t.complete_with_timer(timed), None);
        // Arming a completed request is a no-op.
        t.arm_timer(timed, key(6));
        assert_eq!(t.timer(timed), None);
    }

    #[test]
    fn duplicate_responses_are_idempotent_with_deadlines() {
        // The reliability layer relies on this: a retransmitted response
        // completing twice must be a no-op the second time.
        let mut t = RpcTable::new();
        let id = t.register(7u32);
        t.arm_timer(id, key(1));
        assert_eq!(t.complete(id), Some(7));
        for _ in 0..3 {
            assert_eq!(t.complete(id), None);
        }
    }

    #[test]
    fn drain_forgets_timers() {
        let mut t = RpcTable::new();
        let id = t.register(());
        t.arm_timer(id, key(9));
        assert_eq!(t.drain(), vec![(id, ())]);
        assert_eq!(t.timer(id), None);
    }

    #[test]
    fn drain_returns_in_id_order() {
        let mut t = RpcTable::new();
        let ids: Vec<_> = (0..5).map(|i| t.register(i)).collect();
        t.complete(ids[2]);
        let drained = t.drain();
        assert_eq!(drained.len(), 4);
        assert!(drained.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(t.outstanding(), 0);
    }
}
