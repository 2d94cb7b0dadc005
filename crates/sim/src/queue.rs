//! The event queue: a two-tier calendar queue specialised for the engine's
//! workload shape (dense near-future events with heavy same-time chains).
//!
//! # Architecture
//!
//! A [`CalendarQueue`] orders `(time, seq)` keys exactly like a binary heap
//! of `(time, seq)` pairs would, but with a layout chosen so the common
//! operations touch O(1) elements instead of sifting large payloads through
//! log(n) heap levels:
//!
//! - **Head tie group** — all events at the earliest pending time, in `seq`
//!   order, drained front-to-back by a cursor. Popping the next event moves
//!   one element out; nothing shifts.
//! - **Near-future ring** — a power-of-two array of unsorted buckets, each
//!   covering a fixed `2^DAY_SHIFT` ns slice ("day") of virtual time, with a
//!   bitmap over bucket occupancy so advancing the cursor skips empty days in
//!   a few word scans. Pushing an in-window event is a `Vec::push`.
//! - **Far-future overflow heap** — a binary heap of bare `(time, seq,
//!   slot)` keys for events beyond the ring window, whose payloads wait in a
//!   slab (with a free list) until their window arrives. Heap sifts move
//!   24-byte keys, not event payloads; a payload moves once into the slab
//!   and once into its ring bucket. Events migrate ring-ward (at most once
//!   each) as the cursor advances.
//!
//! Same-time bursts land in one bucket in `seq` order (pushes carry
//! monotonically increasing seqs), so extraction of the common
//! whole-bucket-one-instant group is a single `mem::swap` — no per-element
//! copies and no sort. Self-rescheduling chains push and pop at the cursor
//! bucket without any sifting. The engine additionally keeps the hottest
//! chain pattern out of the queue entirely (see `Simulator::run_until`).
//!
//! # Ordering contract
//!
//! `pop` returns events in strictly increasing `(time, seq)` order provided
//! sequence numbers are unique (the engine assigns them from one monotonic
//! counter). This is the engine's determinism invariant: replacing the
//! previous `BinaryHeap<Reverse<(time, seq, event)>>` with this queue changes
//! no observable firing order, so all recorded results stay byte-identical.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Ring bucket width: each bucket spans `2^DAY_SHIFT` nanoseconds.
const DAY_SHIFT: u32 = 3;
/// Number of ring buckets (power of two).
const NBUCKETS: usize = 1024;
/// Nanoseconds of virtual time the near-future ring spans, starting at its
/// cursor (which never lies after the earliest queued event). Events pushed
/// beyond the window wait in the overflow tier.
pub const RING_WINDOW_NS: u64 = (NBUCKETS as u64) << DAY_SHIFT;
const DAY_MASK: u64 = NBUCKETS as u64 - 1;
const WORDS: usize = NBUCKETS / 64;

/// The bucket index ("day") a fire time falls into.
#[inline]
fn day_of(at: SimTime) -> u64 {
    at.as_nanos() >> DAY_SHIFT
}

/// A queued event: fire time, insertion sequence number, payload.
struct Pending<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

/// A two-tier calendar queue ordering events by `(time, seq)`.
///
/// See the [module docs](self) for the architecture. Used by
/// [`Simulator`](crate::Simulator); public so the differential property
/// tests can drive it directly against a sorted-list oracle.
pub struct CalendarQueue<E> {
    /// The earliest pending tie group: every event at one instant, in
    /// *ascending* `seq` order, drained front-to-back by `head_next`.
    ///
    /// Invariant: elements at `[0, head_next)` have been moved out by
    /// [`CalendarQueue::pop`] and must not be read or dropped; elements at
    /// `[head_next, head.len())` are live. The custom [`Drop`] impl and the
    /// spill path in [`CalendarQueue::push`] uphold this. Draining with a
    /// cursor instead of `Vec::pop` lets refill take an already-ordered
    /// bucket verbatim (one `mem::swap`, zero element moves) — same-time
    /// groups run to hundreds of large events, so this is the difference
    /// between O(1) and O(group) copies per extraction.
    head: Vec<Pending<E>>,
    /// Index of the next live element of `head` (see above).
    head_next: usize,
    /// Ring buckets; bucket `d & DAY_MASK` holds the events of day `d`
    /// while `d` lies in the window `[cursor_day, cursor_day + NBUCKETS)`.
    buckets: Box<[Vec<Pending<E>>]>,
    /// Occupancy bitmap over `buckets` (bit = bucket non-empty).
    occupied: [u64; WORDS],
    /// First day of the ring window. Never ahead of the earliest ring or
    /// overflow event.
    cursor_day: u64,
    /// Events currently in ring buckets.
    ring_len: usize,
    /// Keys of far-future events (beyond the ring window at push time):
    /// `(time, seq, slot)`, the payload parked at `slab[slot]`. Seqs are
    /// unique, so the slot never decides an ordering.
    overflow: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Payloads of the overflow tier's events; `None` slots are free and
    /// listed in `free`.
    slab: Vec<Option<E>>,
    /// Free `slab` slots, reused before the slab grows.
    free: Vec<u32>,
    /// Total queued events across head, ring and overflow.
    len: usize,
    /// Cached `(time, seq)` of the next event; `None` means "recompute on
    /// demand". Keeping [`CalendarQueue::peek`] allocation- and
    /// mutation-free matters: the engine peeks once per dispatched event
    /// for its chain fast path, and an eager peek that extracted tie
    /// groups (moving the cursor far forward) would make later near-time
    /// pushes thrash the window.
    next_key: Option<(SimTime, u64)>,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Drop for CalendarQueue<E> {
    fn drop(&mut self) {
        // `head[..head_next]` was moved out by `pop`; letting Vec's drop run
        // over the full length would double-drop those elements. Drop only
        // the live tail. `set_len(0)` first so a panicking payload drop
        // can't re-enter Vec's drop over the same range.
        unsafe {
            let live = std::ptr::slice_from_raw_parts_mut(
                self.head.as_mut_ptr().add(self.head_next),
                self.head.len() - self.head_next,
            );
            self.head.set_len(0);
            std::ptr::drop_in_place(live);
        }
    }
}

impl<E> std::fmt::Debug for CalendarQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("len", &self.len)
            .field("head", &(self.head.len() - self.head_next))
            .field("ring", &self.ring_len)
            .field("overflow", &self.overflow.len())
            .field("cursor_day", &self.cursor_day)
            .finish()
    }
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue with the cursor at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            head: Vec::new(),
            head_next: 0,
            buckets: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            cursor_day: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            len: 0,
            next_key: None,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues an event. `seq` values must be unique across live events;
    /// ties in `at` fire in `seq` order.
    #[inline]
    pub fn push(&mut self, at: SimTime, seq: u64, event: E) {
        self.len += 1;
        self.next_key = match self.next_key {
            Some(k) if k <= (at, seq) => Some(k),
            Some(_) => Some((at, seq)),
            None if self.len == 1 => Some((at, seq)),
            None => None,
        };
        // `at >= head_at` needs nothing special: the new event carries the
        // largest live seq, so it fires after every head event and can wait
        // in the ring/overflow like any other.
        if let Some(front) = self.head.get(self.head_next) {
            if at < front.at {
                self.spill_head();
            }
        }
        // Hot path kept small so `push` inlines into handler code and the
        // event payload is written once, straight into its bucket; the
        // retreat/overflow cases are outlined.
        let day = day_of(at);
        if day >= self.cursor_day && day - self.cursor_day < NBUCKETS as u64 {
            let idx = (day & DAY_MASK) as usize;
            self.buckets[idx].push(Pending { at, seq, event });
            self.ring_len += 1;
            self.occupied[idx / 64] |= 1 << (idx % 64);
        } else {
            self.push_slow(Pending { at, seq, event });
        }
    }

    /// Spills the live head tail back into its bucket — its day is
    /// `cursor_day` by construction. Only reachable when the owner
    /// schedules an event earlier than the extracted head tie group
    /// between runs (e.g. after a horizon stop).
    #[cold]
    fn spill_head(&mut self) {
        let idx = (self.cursor_day & DAY_MASK) as usize;
        let spilled = self.head.len() - self.head_next;
        let tail = self.head.drain(self.head_next..);
        self.buckets[idx].extend(tail);
        // The drain left `head` holding only the moved-out prefix; discard
        // it without dropping (the elements live on as already-popped
        // events).
        unsafe { self.head.set_len(0) };
        self.head_next = 0;
        self.ring_len += spilled;
        self.occupied[idx / 64] |= 1 << (idx % 64);
    }

    /// The `(time, seq)` of the next event to fire, if any.
    ///
    /// Never extracts a tie group or moves the ring window — a peek that
    /// jumped the cursor toward a far-future minimum would force retreats
    /// when nearer events are pushed afterwards. The computed key is cached
    /// until the queue's minimum can change.
    #[inline]
    pub fn peek(&mut self) -> Option<(SimTime, u64)> {
        if self.next_key.is_none() && self.len > 0 {
            self.next_key = Some(self.scan_min());
        }
        self.next_key
    }

    /// Removes and returns the next event in `(time, seq)` order.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        if self.head_next == self.head.len() && !self.refill() {
            return None;
        }
        // Move the front live element out and advance the cursor; the slot
        // becomes part of the moved-out prefix (see the `head` field docs).
        let p = unsafe { std::ptr::read(self.head.as_ptr().add(self.head_next)) };
        self.head_next += 1;
        if self.head_next == self.head.len() {
            // Fully drained: reset without dropping (every element was
            // moved out), keeping the allocation for future groups.
            unsafe { self.head.set_len(0) };
            self.head_next = 0;
        }
        self.len -= 1;
        self.next_key = self.head.get(self.head_next).map(|n| (n.at, n.seq));
        Some((p.at, p.seq, p.event))
    }

    /// Computes the minimum `(time, seq)` without disturbing the window:
    /// the head if extracted, else the earlier of the first occupied ring
    /// bucket's minimum and the overflow top. (Ring events always precede
    /// un-migrated overflow events of the same comparison only by key, not
    /// by tier — an old overflow push can be earlier than the ring minimum,
    /// so both tiers are consulted.)
    fn scan_min(&self) -> (SimTime, u64) {
        debug_assert!(self.len > 0);
        if let Some(p) = self.head.get(self.head_next) {
            return (p.at, p.seq);
        }
        let ring = if self.ring_len > 0 {
            let idx = (self.next_occupied_day() & DAY_MASK) as usize;
            self.buckets[idx].iter().map(|p| (p.at, p.seq)).min()
        } else {
            None
        };
        let over = self.overflow.peek().map(|&Reverse((at, seq, _))| (at, seq));
        match (ring, over) {
            (Some(r), Some(o)) => r.min(o),
            (Some(r), None) => r,
            (None, Some(o)) => o,
            (None, None) => unreachable!("len > 0 but no events found"),
        }
    }

    /// Places an event that missed the in-window fast path: before the
    /// window (retreat, then ring) or beyond it (overflow heap). Does not
    /// touch `len`.
    #[cold]
    fn push_slow(&mut self, p: Pending<E>) {
        let day = day_of(p.at);
        if day < self.cursor_day {
            self.retreat(day);
            let idx = (day & DAY_MASK) as usize;
            self.buckets[idx].push(p);
            self.ring_len += 1;
            self.occupied[idx / 64] |= 1 << (idx % 64);
        } else {
            self.park(p);
        }
    }

    /// Moves an event into the overflow tier: payload into a slab slot,
    /// key onto the heap.
    fn park(&mut self, p: Pending<E>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(p.event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("overflow slab exceeds u32 slots");
                self.slab.push(Some(p.event));
                slot
            }
        };
        self.overflow.push(Reverse((p.at, p.seq, slot)));
    }

    /// Moves the ring window back so it starts at `day`. Rare (see
    /// [`CalendarQueue::push`]): parks the ring in the overflow tier and
    /// lets events migrate back window-by-window.
    fn retreat(&mut self, day: u64) {
        debug_assert!(self.head.is_empty(), "retreat with extracted head");
        if self.ring_len > 0 {
            for idx in 0..NBUCKETS {
                // Take the bucket to park its events, then hand the emptied
                // allocation back.
                let mut bucket = std::mem::take(&mut self.buckets[idx]);
                for p in bucket.drain(..) {
                    self.park(p);
                }
                self.buckets[idx] = bucket;
            }
            self.ring_len = 0;
            self.occupied = [0; WORDS];
        }
        self.cursor_day = day;
    }

    /// Extracts the earliest pending tie group into `head` (sorted by seq
    /// descending). Returns false when the queue is empty.
    fn refill(&mut self) -> bool {
        debug_assert!(self.head.is_empty());
        loop {
            // Migrate overflow events that the current window now covers.
            // Each event migrates at most once: days are fixed and the
            // cursor only moves forward here.
            while let Some(&Reverse((at, seq, slot))) = self.overflow.peek() {
                debug_assert!(day_of(at) >= self.cursor_day);
                if day_of(at) >= self.cursor_day + NBUCKETS as u64 {
                    break;
                }
                self.overflow.pop();
                let event = self.slab[slot as usize].take().expect("parked slot");
                self.free.push(slot);
                let idx = (day_of(at) & DAY_MASK) as usize;
                self.buckets[idx].push(Pending { at, seq, event });
                self.ring_len += 1;
                self.occupied[idx / 64] |= 1 << (idx % 64);
            }
            if self.ring_len == 0 {
                match self.overflow.peek() {
                    None => return false,
                    // Far-future gap: jump the window to the next event and
                    // migrate on the next pass.
                    Some(&Reverse((at, _, _))) => {
                        self.cursor_day = day_of(at);
                        continue;
                    }
                }
            }
            self.cursor_day = self.next_occupied_day();
            let idx = (self.cursor_day & DAY_MASK) as usize;
            let bucket = &mut self.buckets[idx];
            // One scan tells us the earliest time in the bucket, whether
            // the whole bucket shares it, and whether seqs are already
            // ascending. The dominant workload is a bucket holding exactly
            // one large tie group filled by in-seq-order pushes: that case
            // becomes a single `mem::swap` — no element is copied at all,
            // and the bucket inherits `head`'s old allocation so capacities
            // circulate without reallocating.
            let (mut min_at, mut prev_seq) = (bucket[0].at, bucket[0].seq);
            let (mut uniform, mut ascending) = (true, true);
            for p in &bucket[1..] {
                if p.at != min_at {
                    if p.at < min_at {
                        min_at = p.at;
                    }
                    uniform = false;
                }
                ascending &= p.seq > prev_seq;
                prev_seq = p.seq;
            }
            if uniform {
                std::mem::swap(&mut self.head, bucket);
                self.occupied[idx / 64] &= !(1 << (idx % 64));
                if !ascending {
                    // Out-of-order fill (spill / overflow interleaving).
                    self.head.sort_unstable_by_key(|p| p.seq);
                }
            } else {
                // Mixed-time bucket: extract only the earliest group and
                // leave the rest for later refills.
                let mut i = 0;
                while i < bucket.len() {
                    if bucket[i].at == min_at {
                        self.head.push(bucket.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
                self.head.sort_unstable_by_key(|p| p.seq);
            }
            self.ring_len -= self.head.len();
            return true;
        }
    }

    /// First day at/after `cursor_day` whose bucket is non-empty. Requires
    /// `ring_len > 0`.
    fn next_occupied_day(&self) -> u64 {
        debug_assert!(self.ring_len > 0);
        let start = (self.cursor_day & DAY_MASK) as usize;
        let base = self.cursor_day - start as u64;
        let (sw, sb) = (start / 64, start % 64);
        // Scan words starting at the cursor's word; the first visit of that
        // word keeps only bits at/after the cursor, the wrapped final visit
        // only bits before it.
        for i in 0..=WORDS {
            let w = (sw + i) % WORDS;
            let mut word = self.occupied[w];
            if i == 0 {
                word &= !0u64 << sb;
            } else if i == WORDS {
                word &= !(!0u64 << sb);
            }
            if word != 0 {
                let idx = w * 64 + word.trailing_zeros() as usize;
                let wrapped = idx < start;
                return base + idx as u64 + if wrapped { NBUCKETS as u64 } else { 0 };
            }
        }
        unreachable!("ring_len > 0 but no occupied bucket");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, seq, ev)) = q.pop() {
            out.push((at.as_nanos(), seq, ev));
        }
        out
    }

    #[test]
    fn orders_by_time_then_seq() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_nanos(50), 0, 1);
        q.push(SimTime::from_nanos(10), 1, 2);
        q.push(SimTime::from_nanos(10), 2, 3);
        q.push(SimTime::from_nanos(5), 3, 4);
        assert_eq!(q.len(), 4);
        assert_eq!(
            drain(&mut q),
            vec![(5, 3, 4), (10, 1, 2), (10, 2, 3), (50, 0, 1)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_goes_through_overflow_and_back() {
        let mut q = CalendarQueue::new();
        let span = RING_WINDOW_NS;
        // Same-time tie group far beyond the ring window, interleaved with
        // near events — the group must reassemble in seq order after
        // migrating through the overflow heap.
        q.push(SimTime::from_nanos(10 * span), 0, 100);
        q.push(SimTime::from_nanos(1), 1, 0);
        q.push(SimTime::from_nanos(10 * span), 2, 101);
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(0));
        q.push(SimTime::from_nanos(10 * span), 3, 102);
        assert_eq!(
            drain(&mut q),
            vec![
                (10 * span, 0, 100),
                (10 * span, 2, 101),
                (10 * span, 3, 102)
            ]
        );
    }

    #[test]
    fn overflow_tier_parks_keys_and_reuses_slab_slots() {
        let span = RING_WINDOW_NS;
        let overflow = |q: &CalendarQueue<u32>| {
            let dbg = format!("{q:?}");
            let n = dbg
                .split("overflow: ")
                .nth(1)
                .expect("debug lists overflow");
            n[..n.find(',').unwrap()].parse::<usize>().unwrap()
        };
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_nanos(3 * span), 0, 30);
        q.push(SimTime::from_nanos(2 * span), 1, 20);
        q.push(SimTime::from_nanos(5 * span), 2, 50);
        q.push(SimTime::from_nanos(10), 3, 1);
        assert_eq!(overflow(&q), 3, "far pushes park in the overflow tier");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 3, 1)));
        // The window jumps to 2·span; only that event migrates ring-ward
        // and its slab slot is freed.
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2 * span), 1, 20)));
        assert_eq!(overflow(&q), 2);
        assert_eq!(q.free.len(), 1);
        // A new far push reuses the freed slot instead of growing the slab.
        q.push(SimTime::from_nanos(4 * span), 4, 40);
        assert_eq!((q.slab.len(), q.free.len()), (3, 0));
        // An in-window push, then one before the window: the retreat parks
        // the ring's event in the overflow tier too.
        q.push(SimTime::from_nanos(2 * span + 16), 5, 21);
        assert_eq!(overflow(&q), 3);
        q.push(SimTime::from_nanos(100), 6, 2);
        assert_eq!(overflow(&q), 4);
        assert_eq!(
            drain(&mut q),
            vec![
                (100, 6, 2),
                (2 * span + 16, 5, 21),
                (3 * span, 0, 30),
                (4 * span, 4, 40),
                (5 * span, 2, 50),
            ]
        );
        assert_eq!(overflow(&q), 0);
        assert_eq!(
            q.free.len(),
            q.slab.len(),
            "every slot back on the free list"
        );
        assert!(q.slab.iter().all(Option::is_none));
    }

    #[test]
    fn peek_is_non_destructive_and_cached() {
        let mut q = CalendarQueue::new();
        let span = RING_WINDOW_NS;
        q.push(SimTime::from_nanos(3 * span), 0, 1); // overflow tier
        assert_eq!(q.peek(), Some((SimTime::from_nanos(3 * span), 0)));
        // Peek must not have jumped the window: a near push afterwards is
        // routine, not a retreat, and becomes the new minimum.
        q.push(SimTime::from_nanos(4), 1, 2);
        assert_eq!(q.peek(), Some((SimTime::from_nanos(4), 1)));
        assert_eq!(drain(&mut q), vec![(4, 1, 2), (3 * span, 0, 1)]);
    }

    #[test]
    fn earlier_push_displaces_extracted_head() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_nanos(100), 0, 1);
        q.push(SimTime::from_nanos(100), 1, 2);
        // Popping one event extracts the tie group; the second stays head.
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(1));
        // Earlier than the extracted head: must spill and fire first.
        q.push(SimTime::from_nanos(20), 2, 3);
        assert_eq!(drain(&mut q), vec![(20, 2, 3), (100, 1, 2)]);
    }

    #[test]
    fn retreat_before_window_start() {
        let mut q = CalendarQueue::new();
        let span = RING_WINDOW_NS;
        q.push(SimTime::from_nanos(5 * span), 0, 1);
        q.push(SimTime::from_nanos(5 * span + 8), 1, 2);
        // Popping jumps the window to the far events.
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(1));
        // Earlier than the window start: forces a retreat.
        q.push(SimTime::from_nanos(7), 2, 3);
        assert_eq!(drain(&mut q), vec![(7, 2, 3), (5 * span + 8, 1, 2)]);
    }

    #[test]
    fn overflow_event_older_than_ring_minimum_wins() {
        // An event pushed to the overflow tier early can end up earlier
        // than a ring event pushed after the window advanced; peek and pop
        // must consult both tiers.
        let mut q = CalendarQueue::new();
        let width = 1u64 << DAY_SHIFT;
        let a = 2000 * width; // day 2000: overflow while the window is at 0
        q.push(SimTime::from_nanos(a), 0, 1);
        q.push(SimTime::from_nanos(8), 1, 2); // ring
        q.push(SimTime::from_nanos(1012 * width), 2, 3); // ring, day 1012
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(2));
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(3)); // cursor now at 1012
        let c = 2030 * width; // day 2030: inside [1012, 1012+NBUCKETS) → ring
        q.push(SimTime::from_nanos(c), 3, 4);
        // The old overflow event is earlier than the newer ring event.
        assert_eq!(q.peek(), Some((SimTime::from_nanos(a), 0)));
        assert_eq!(drain(&mut q), vec![(a, 0, 1), (c, 3, 4)]);
    }
}
