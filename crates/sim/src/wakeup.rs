//! The event-driven wakeup queue of the fast engine.
//!
//! The reference engine finds the next warp to re-activate — and the next
//! cycle at which anything can happen — by scanning every resident warp.
//! [`WakeupQueue`] replaces both scans with two binary heaps keyed on
//! `(wakeup_cycle, warp_id)`:
//!
//! * the **future** heap holds warps whose pending operation completes
//!   strictly after the current cycle;
//! * the **eligible** heap holds warps whose wakeup cycle has already
//!   passed but that could not yet be re-admitted because the active pool
//!   was full.
//!
//! Both pops are deterministic: the smallest `(cycle, warp)` pair wins, which
//! reproduces exactly the reference scheduler's "earliest completion first,
//! lowest warp index on ties" activation order (its linear scan keeps the
//! first index among equal wakeup cycles). The split matters for skip-ahead
//! correctness: warps that are *eligible but unadmitted* must not drag the
//! next-event horizon backwards, so [`WakeupQueue::next_wake_after`] first
//! drains every entry at or before `now` into the eligible heap and only
//! then reports the earliest strictly-future wakeup.
//!
//! The queue assumes the simulation clock is monotonically non-decreasing
//! across calls, which the engine guarantees (`cycle` only moves forward).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::types::{Cycle, WarpId};

/// A deterministic priority queue of `(wakeup_cycle, warp)` events.
#[derive(Debug, Clone, Default)]
pub struct WakeupQueue {
    /// Warps whose wakeup cycle is still in the future (min-heap).
    future: BinaryHeap<Reverse<(Cycle, u32)>>,
    /// Warps whose wakeup cycle has passed but that have not been popped
    /// (the active pool was full when they became eligible).
    eligible: BinaryHeap<Reverse<(Cycle, u32)>>,
}

impl WakeupQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        WakeupQueue::default()
    }

    /// Creates an empty queue with room for `capacity` warps, so steady-state
    /// operation never reallocates.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        WakeupQueue {
            future: BinaryHeap::with_capacity(capacity),
            eligible: BinaryHeap::with_capacity(capacity),
        }
    }

    /// Schedules `warp` to become eligible at cycle `wake_at`.
    pub fn push(&mut self, wake_at: Cycle, warp: WarpId) {
        self.future.push(Reverse((wake_at, warp.0)));
    }

    /// Number of scheduled warps (future and eligible).
    #[must_use]
    pub fn len(&self) -> usize {
        self.future.len() + self.eligible.len()
    }

    /// Returns `true` if no warp is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.future.is_empty() && self.eligible.is_empty()
    }

    /// Moves every entry whose wakeup cycle is at or before `now` from the
    /// future heap into the eligible heap.
    fn drain_due(&mut self, now: Cycle) {
        while let Some(&Reverse((at, _))) = self.future.peek() {
            if at > now {
                break;
            }
            let entry = self.future.pop().expect("peeked entry exists");
            self.eligible.push(entry);
        }
    }

    /// Pops the next eligible warp at `now`: the warp with the smallest
    /// `(wakeup_cycle, warp_id)` among those whose wakeup cycle is at or
    /// before `now`. Returns `None` if every scheduled warp is still in the
    /// future.
    pub fn pop_eligible(&mut self, now: Cycle) -> Option<WarpId> {
        self.drain_due(now);
        match self.eligible.peek() {
            Some(&Reverse((at, _))) if at <= now => {
                let Reverse((_, warp)) = self.eligible.pop().expect("peeked entry exists");
                Some(WarpId(warp))
            }
            _ => None,
        }
    }

    /// Whether a warp drained by the last [`Self::next_wake_after`] or
    /// [`Self::pop_eligible`] waits for admission.
    #[must_use]
    pub(crate) fn has_eligible(&self) -> bool {
        !self.eligible.is_empty()
    }

    /// The earliest wakeup cycle strictly after `now`, or `None` if no
    /// scheduled warp wakes later than `now`.
    ///
    /// Entries already due (wakeup at or before `now`) are moved to the
    /// eligible heap and do **not** count: a warp that is eligible but
    /// unadmitted is waiting for an active-pool slot, not for time to pass,
    /// so it must not shorten a skip-ahead jump.
    pub fn next_wake_after(&mut self, now: Cycle) -> Option<Cycle> {
        self.drain_due(now);
        self.future.peek().map(|&Reverse((at, _))| at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_then_index_order() {
        let mut q = WakeupQueue::new();
        q.push(10, WarpId(3));
        q.push(5, WarpId(7));
        q.push(10, WarpId(1));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_eligible(10), Some(WarpId(7)));
        assert_eq!(q.pop_eligible(10), Some(WarpId(1)));
        assert_eq!(q.pop_eligible(10), Some(WarpId(3)));
        assert_eq!(q.pop_eligible(10), None);
        assert!(q.is_empty());
    }

    #[test]
    fn future_entries_are_not_eligible() {
        let mut q = WakeupQueue::new();
        q.push(100, WarpId(0));
        assert_eq!(q.pop_eligible(99), None);
        assert_eq!(q.next_wake_after(99), Some(100));
        assert_eq!(q.pop_eligible(100), Some(WarpId(0)));
    }

    #[test]
    fn due_entries_do_not_shorten_skip_ahead() {
        let mut q = WakeupQueue::new();
        q.push(4, WarpId(2));
        q.push(90, WarpId(5));
        // Warp 2 is due at cycle 10 but unadmitted; the next *time* event is
        // warp 5's wakeup.
        assert_eq!(q.next_wake_after(10), Some(90));
        // The due warp is still there, preserved in the eligible heap.
        assert_eq!(q.pop_eligible(10), Some(WarpId(2)));
        assert_eq!(q.next_wake_after(90), None);
        assert_eq!(q.pop_eligible(90), Some(WarpId(5)));
    }

    #[test]
    fn with_capacity_starts_empty() {
        let q = WakeupQueue::with_capacity(64);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }
}
