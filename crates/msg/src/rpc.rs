//! Request/response correlation for the protocol layers.
//!
//! The migration, address-space and futex protocols are all
//! request/response: a kernel sends a request carrying an [`RpcId`] and
//! parks some continuation state until the matching response arrives. The
//! [`RpcTable`] owns that state; it is deliberately dumb — allocation,
//! matching and cancellation — so protocol logic stays in the protocol
//! crates.

use std::fmt;

use popcorn_sim::{FastMap, SimTime};

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
    pending: FastMap<RpcId, C>,
    /// Response deadlines for requests registered with one; entries are
    /// removed when the request completes (or is drained).
    deadlines: FastMap<RpcId, SimTime>,
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
            deadlines: FastMap::default(),
        }
    }

    /// Allocates a fresh id and parks `continuation` under it.
    pub fn register(&mut self, continuation: C) -> RpcId {
        let id = RpcId(self.next);
        self.next += 1;
        self.pending.insert(id, continuation);
        id
    }

    /// Like [`RpcTable::register`], but records a response deadline. The
    /// caller is responsible for scheduling a timeout event at `deadline`
    /// and, when it fires, checking [`RpcTable::deadline`] / completing the
    /// request with a failure if it is still pending.
    pub fn register_with_deadline(&mut self, continuation: C, deadline: SimTime) -> RpcId {
        let id = self.register(continuation);
        self.deadlines.insert(id, deadline);
        id
    }

    /// The deadline recorded for a still-pending request, if any.
    pub fn deadline(&self, id: RpcId) -> Option<SimTime> {
        self.deadlines.get(&id).copied()
    }

    /// Completes a request, yielding its continuation; `None` if the id is
    /// unknown or already completed (duplicate response). Duplicate
    /// responses are therefore inherently idempotent: the first wins, the
    /// rest see `None` and must do nothing.
    pub fn complete(&mut self, id: RpcId) -> Option<C> {
        self.deadlines.remove(&id);
        self.pending.remove(&id)
    }

    /// Peeks at a pending continuation without completing it.
    pub fn get(&self, id: RpcId) -> Option<&C> {
        self.pending.get(&id)
    }

    /// Mutable peek at a pending continuation (for multi-response protocols
    /// that accumulate state before completing).
    pub fn get_mut(&mut self, id: RpcId) -> Option<&mut C> {
        self.pending.get_mut(&id)
    }

    /// Number of in-flight requests.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Drops all pending requests, returning their continuations in id
    /// order (used on kernel teardown so blocked tasks can be failed).
    pub fn drain(&mut self) -> Vec<(RpcId, C)> {
        self.deadlines.clear();
        let mut all: Vec<_> = self.pending.drain().collect();
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

    #[test]
    fn deadline_is_stored_and_cleared_on_complete() {
        let mut t = RpcTable::new();
        let plain = t.register("no-deadline");
        let dl = SimTime::from_nanos(5_000);
        let timed = t.register_with_deadline("timed", dl);
        assert_eq!(t.deadline(plain), None);
        assert_eq!(t.deadline(timed), Some(dl));
        assert_eq!(t.complete(timed), Some("timed"));
        assert_eq!(t.deadline(timed), None);
        // A duplicate (late) response after the deadline bookkeeping is
        // still idempotent.
        assert_eq!(t.complete(timed), None);
    }

    #[test]
    fn duplicate_responses_are_idempotent_with_deadlines() {
        // The reliability layer relies on this: a retransmitted response
        // completing twice must be a no-op the second time.
        let mut t = RpcTable::new();
        let id = t.register_with_deadline(7u32, SimTime::from_nanos(100));
        assert_eq!(t.complete(id), Some(7));
        for _ in 0..3 {
            assert_eq!(t.complete(id), None);
        }
    }

    #[test]
    fn drain_clears_deadlines() {
        let mut t = RpcTable::new();
        let id = t.register_with_deadline((), SimTime::from_nanos(9));
        let _ = t.drain();
        assert_eq!(t.deadline(id), None);
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
