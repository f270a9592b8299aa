//! The engine-agnostic simulation drivers.
//!
//! Both engines — the reference tick loop ([`crate::engine::Engine`]) and
//! the allocation-free fast path ([`crate::fast::FastEngine`]) — expose the
//! same five stepping primitives through [`SmEngine`], and both the
//! single-SM and the multi-SM lock-step schedules are written once against
//! that trait. This is what makes the differential guarantee auditable: the
//! *schedule* (which cycles are visited, in which order SMs issue, when
//! pools refill) is shared code, so the fast engine can only diverge from
//! the reference through its own stepping primitives — exactly the surface
//! the differential test suite pins.
//!
//! The schedule being reproduced is the *polling* one: every unfinished SM
//! steps at every visited cycle, a cycle in which no SM issues jumps to the
//! earliest [`Horizon::next`], and `SimStats::idle_cycles` counts the idle
//! steps. The drivers reach the same statistics with less work in two ways,
//! both driven by [`Horizon::wake`]:
//!
//! * **Per-SM sleep** (lock-step). An SM whose step was idle is not stepped
//!   or refilled again before its `wake` cycle; its idle credit for the
//!   visits it slept through is added when it wakes or the run ends.
//! * **Batched polling.** While an SM's `next` is `cycle + 1` only because a
//!   ready warp waits on a collector or an MSHR (or a never-started warp on
//!   a pool slot), the polling schedule visits every cycle up to `wake` and
//!   idles at each. The drivers jump straight to `wake` and credit each
//!   skipped visit to every unfinished SM.

use ltrf_isa::Kernel;

use crate::config::SmConfig;
use crate::memory::{AddressGenerator, MemoryHierarchy};
use crate::regfile::RegisterFileModel;
use crate::stats::SimStats;
use crate::types::Cycle;

/// Where an SM's next step can matter, reported after an idle step at
/// `cycle` by [`SmEngine::next_event_after`].
///
/// Either `wake <= next`, or the SM *polls*: `next == cycle + 1 < wake`, and
/// every visit before `wake` would be another idle step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Horizon {
    /// The polling schedule's next visit on this SM's account: its earliest
    /// event, or `cycle + 1` while a ready warp is blocked or a never-started
    /// warp waits.
    pub(crate) next: Cycle,
    /// The earliest cycle after `cycle` at which a refill or an issue step of
    /// this SM can do anything but idle. An engine that cannot tell reports
    /// `cycle + 1`.
    pub(crate) wake: Cycle,
}

impl Horizon {
    fn polls(self) -> bool {
        self.wake > self.next
    }
}

/// The stepping primitives one SM engine exposes to the drivers.
///
/// `next_event_after` takes `&mut self` because the fast engine retires due
/// wakeup-queue entries into its eligible heap while computing the horizon;
/// the reference engine's implementation is read-only.
pub(crate) trait SmEngine<'a>: Sized {
    /// Assembles an engine from externally constructed parts: the memory
    /// hierarchy (private or a shared port), the address generator (whole
    /// footprint or an SM's shard), and one deterministic seed per resident
    /// warp.
    fn with_parts(
        kernel: &'a Kernel,
        config: &'a SmConfig,
        regfile: &'a mut dyn RegisterFileModel,
        memory: MemoryHierarchy,
        addresses: AddressGenerator,
        warp_seeds: &[u64],
    ) -> Self;

    /// Whether every resident warp has retired.
    fn is_done(&self) -> bool;

    /// Records `visits` visited cycles in which this SM issued nothing.
    fn note_idle(&mut self, visits: Cycle);

    /// Issues up to `issue_width` instructions from the active pool at
    /// `cycle`. Returns the number of instructions issued.
    fn issue_cycle(&mut self, cycle: Cycle) -> usize;

    /// Promotes eligible warps into the active pool until it is full.
    fn refill_active_pool(&mut self, cycle: Cycle);

    /// The SM's horizon after an idle [`Self::issue_cycle`] at `cycle`.
    ///
    /// The reference engine reports the polling `next` and never sleeps
    /// (`wake == cycle + 1`). The fast engine also reports how long the SM
    /// stays idle: its earliest event, extended past the polling fallback
    /// to the next collector drain or MSHR completion.
    fn next_event_after(&mut self, cycle: Cycle) -> Horizon;

    /// Closes the books at `cycle` and returns the SM's statistics.
    fn finalize(self, cycle: Cycle) -> SimStats;
}

/// Drives one engine to completion with idle-period fast-forwarding.
pub(crate) fn run_single<'a, E: SmEngine<'a>>(mut engine: E, max_cycles: Cycle) -> SimStats {
    let mut cycle: Cycle = 0;
    engine.refill_active_pool(cycle);
    while !engine.is_done() && cycle < max_cycles {
        if engine.issue_cycle(cycle) == 0 {
            engine.note_idle(1);
            let horizon = engine.next_event_after(cycle);
            cycle = if horizon.polls() {
                let to = horizon.wake.min(max_cycles);
                engine.note_idle(to - horizon.next);
                to
            } else {
                horizon.next.max(cycle + 1)
            };
        } else {
            cycle += 1;
        }
        engine.refill_active_pool(cycle);
    }
    engine.finalize(cycle)
}

/// The lock-step driver's view of one SM.
#[derive(Debug, Clone, Copy)]
struct SmSlot {
    /// The SM is neither stepped nor refilled at visits before this cycle.
    wake: Cycle,
    /// The polling schedule's next visit on this SM's account, or `None`
    /// while it polls (its next visit is always the following cycle).
    next: Option<Cycle>,
    /// Index of the visit at which the SM last stepped.
    last_visit: u64,
}

/// Drives several engines in lock-step: at each visited cycle every awake
/// SM issues, in SM-index order; when no SM issues, the clock jumps to the
/// earliest event of any unfinished SM (through polling stretches, to the
/// earliest wake). Returns the per-SM statistics (in SM order) and the final
/// cycle.
pub(crate) fn run_lockstep<'a, E: SmEngine<'a>>(
    mut engines: Vec<E>,
    max_cycles: Cycle,
) -> (Vec<SimStats>, Cycle) {
    let mut cycle: Cycle = 0;
    let mut slots = vec![
        SmSlot {
            wake: 0,
            next: None,
            last_visit: 0,
        };
        engines.len()
    ];
    for engine in &mut engines {
        engine.refill_active_pool(cycle);
    }
    let mut live = engines.iter().filter(|e| !e.is_done()).count();
    // Visits of the polling schedule so far, skipped ones included.
    let mut visits: u64 = 0;
    while live > 0 && cycle < max_cycles {
        visits += 1;
        let mut any_issued = false;
        for (engine, slot) in engines.iter_mut().zip(&mut slots) {
            if slot.wake > cycle || engine.is_done() {
                continue;
            }
            engine.note_idle(visits - 1 - slot.last_visit);
            slot.last_visit = visits;
            if engine.issue_cycle(cycle) > 0 {
                any_issued = true;
                slot.wake = cycle + 1;
            } else {
                engine.note_idle(1);
                if !engine.is_done() {
                    let horizon = engine.next_event_after(cycle);
                    slot.wake = horizon.wake;
                    slot.next = (!horizon.polls()).then_some(horizon.next);
                }
            }
            if engine.is_done() {
                live -= 1;
            }
        }
        cycle = if any_issued {
            cycle + 1
        } else {
            let mut next = Cycle::MAX;
            let mut wake = Cycle::MAX;
            for (engine, slot) in engines.iter().zip(&slots) {
                if !engine.is_done() {
                    next = next.min(slot.next.unwrap_or(cycle + 1));
                    wake = wake.min(slot.wake);
                }
            }
            if next == cycle + 1 {
                // Some SM polls: every visit before the earliest wake idles
                // on every SM.
                let to = wake.min(max_cycles);
                visits += to - cycle - 1;
                to
            } else if next == Cycle::MAX {
                cycle + 1
            } else {
                next
            }
        };
        for (engine, slot) in engines.iter_mut().zip(&slots) {
            if slot.wake <= cycle && !engine.is_done() {
                engine.refill_active_pool(cycle);
            }
        }
    }
    let per_sm: Vec<SimStats> = engines
        .into_iter()
        .zip(&slots)
        .map(|(mut engine, slot)| {
            if !engine.is_done() {
                engine.note_idle(visits - slot.last_visit);
            }
            engine.finalize(cycle)
        })
        .collect();
    (per_sm, cycle)
}
