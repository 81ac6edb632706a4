//! The event queue and simulation driver.
//!
//! [`Sim`] owns one binary heap of scheduled events ordered by
//! `(time, seq)`. The sequence number makes same-instant events fire in
//! the order they were scheduled, which is what keeps multi-client
//! experiments deterministic: two frames arriving at a service in the
//! same nanosecond are processed in a stable order regardless of heap
//! internals.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use crate::time::{SimDuration, SimTime};

/// Sampled self-profile of the driver's two hot phases: queue pop
/// (cancellation reap + head peek) and event execution (the
/// closure body). Maintained only when [`Sim::enable_profiling`] was
/// called; 1 in `2^shift` entries pays for a wall-clock pair, the rest
/// cost one increment. Reading the clock never feeds back into event
/// order, so profiled and unprofiled runs stay byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimProfStats {
    pub pop_calls: u64,
    pub pop_samples: u64,
    pub pop_sampled_ns: u64,
    pub exec_calls: u64,
    pub exec_samples: u64,
    pub exec_sampled_ns: u64,
}

#[derive(Debug)]
struct SimProf {
    mask: u64,
    stats: SimProfStats,
}

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Sim<W>)>;

/// One heap entry: fire time, FIFO tie-break, and the closure. Kept
/// lean on purpose — this struct is moved during every heap sift, so
/// every byte shows up in the simulator's events/sec.
struct Scheduled<W> {
    at: SimTime,
    seq: u64,
    run: EventFn<W>,
}

/// Hasher for the cancellation set. Event sequence numbers are already
/// unique dense integers, so hashing them through SipHash (the
/// `HashSet` default) costs more than the set membership test itself;
/// a Fibonacci multiply spreads consecutive seqs across buckets at the
/// price of one instruction.
#[derive(Default, Clone)]
struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type SeqSet = HashSet<u64, BuildHasherDefault<SeqHasher>>;

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Scheduled<W> {}
impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Scheduled<W> {
    // Reversed: BinaryHeap is a max-heap and we want the earliest event.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event simulator over a caller-owned world `W`.
///
/// The world is passed into [`Sim::run`] rather than owned by the
/// simulator so that event closures can borrow it mutably while the
/// simulator is also borrowed for re-scheduling — the standard split that
/// avoids `RefCell` in hot simulation loops.
pub struct Sim<W> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Scheduled<W>>,
    cancelled: SeqSet,
    executed: u64,
    stopped: bool,
    prof: Option<SimProf>,
}

impl<W> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Sim<W> {
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            // A steady-state AR pipeline run keeps a few hundred events in
            // flight; pre-reserving skips the early growth reallocations.
            heap: BinaryHeap::with_capacity(1024),
            cancelled: SeqSet::default(),
            executed: 0,
            stopped: false,
            prof: None,
        }
    }

    /// Turn on the driver self-profiler, timing 1 pop/exec pair in
    /// `2^shift`. See [`SimProfStats`].
    pub fn enable_profiling(&mut self, shift: u32) {
        self.prof = Some(SimProf {
            mask: (1u64 << shift.min(63)) - 1,
            stats: SimProfStats::default(),
        });
    }

    /// The accumulated driver profile, if profiling is enabled.
    pub fn profile(&self) -> Option<SimProfStats> {
        self.prof.as_ref().map(|p| p.stats)
    }

    #[inline]
    fn prof_enter(&mut self, exec: bool) -> Option<Instant> {
        let p = self.prof.as_mut()?;
        let calls = if exec {
            &mut p.stats.exec_calls
        } else {
            &mut p.stats.pop_calls
        };
        let sampled = *calls & p.mask == 0;
        *calls += 1;
        sampled.then(Instant::now)
    }

    #[inline]
    fn prof_exit(&mut self, exec: bool, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(p) = self.prof.as_mut() {
                if exec {
                    p.stats.exec_samples += 1;
                    p.stats.exec_sampled_ns += ns;
                } else {
                    p.stats.pop_samples += 1;
                    p.stats.pop_sampled_ns += ns;
                }
            }
        }
    }

    /// Current virtual time. Monotone across event executions.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far — useful as a progress/cost metric
    /// and in tests asserting that cancellation actually suppressed work.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (including cancelled-but-unreaped).
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `f` to run after `delay`. Returns an [`EventId`] that can
    /// be passed to [`Sim::cancel`].
    pub fn schedule<F>(&mut self, delay: SimDuration, f: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Sim<W>) + 'static,
    {
        self.schedule_at(self.now + delay, f)
    }

    /// Schedule `f` at the absolute instant `at`. Scheduling into the past
    /// clamps to `now` (the event fires next, after already-queued events
    /// at `now`).
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Sim<W>) + 'static,
    {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled {
            at,
            seq,
            run: Box::new(f),
        });
        EventId(seq)
    }

    /// Cancel a previously scheduled event. Cancelling an event that
    /// already fired is a no-op. O(1): the heap entry is tombstoned and
    /// reaped on pop.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id.0);
    }

    /// Request that the run loop stop after the current event returns.
    /// Pending events stay queued and a subsequent `run_*` call resumes.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Execute the single earliest pending event. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        self.step_until(world, SimTime::MAX)
    }

    /// [`Sim::step`], unless the earliest live event fires strictly after
    /// `deadline`. `peek_time` reaps cancelled heads, so the head it
    /// reports is known live and is popped and fired directly.
    #[inline]
    fn step_until(&mut self, world: &mut W, deadline: SimTime) -> bool {
        let t_pop = self.prof_enter(false);
        let next = self.peek_time();
        self.prof_exit(false, t_pop);
        if next.is_none_or(|at| at > deadline) {
            return false;
        }
        let ev = self.heap.pop().expect("live head vanished");
        let t_exec = self.prof_enter(true);
        self.fire(ev, world);
        self.prof_exit(true, t_exec);
        true
    }

    /// Instant of the earliest live pending event, if any. Reaps
    /// cancelled heads on the way.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Fast path: no outstanding cancellations (the common case in
        // scAtteR++ runs, which cancel only on served fetches) means no
        // set lookup per pop at all.
        if !self.cancelled.is_empty() {
            while let Some(head) = self.heap.peek() {
                if self.cancelled.remove(&head.seq) {
                    self.heap.pop();
                } else {
                    break;
                }
            }
        }
        self.heap.peek().map(|head| head.at)
    }

    /// Advance the clock to `ev` and run it. Caller guarantees `ev` is
    /// live (popped and not cancelled).
    #[inline]
    fn fire(&mut self, ev: Scheduled<W>, world: &mut W) {
        debug_assert!(ev.at >= self.now, "event queue time went backwards");
        self.now = ev.at;
        self.executed += 1;
        (ev.run)(world, self);
    }

    /// Run until the queue drains or [`Sim::stop`] is called.
    pub fn run(&mut self, world: &mut W) {
        self.stopped = false;
        while !self.stopped && self.step(world) {}
    }

    /// Run until the queue drains, `stop` is called, or the next event
    /// would fire strictly after `deadline`. The clock is left at
    /// `deadline` if it was reached without draining, mirroring how a
    /// fixed-length experiment run (e.g. the paper's five minutes) ends.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
        self.stopped = false;
        while !self.stopped && self.step_until(world, deadline) {}
        if !self.stopped && self.now < deadline {
            self.now = deadline;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        sim.schedule(SimDuration::from_millis(30), |w: &mut Vec<u64>, s| {
            w.push(s.now().as_millis())
        });
        sim.schedule(SimDuration::from_millis(10), |w: &mut Vec<u64>, s| {
            w.push(s.now().as_millis())
        });
        sim.schedule(SimDuration::from_millis(20), |w: &mut Vec<u64>, s| {
            w.push(s.now().as_millis())
        });
        let mut out = Vec::new();
        sim.run(&mut out);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn same_instant_fifo() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        for i in 0..100u32 {
            sim.schedule(SimDuration::from_millis(5), move |w: &mut Vec<u32>, _| {
                w.push(i)
            });
        }
        let mut out = Vec::new();
        sim.run(&mut out);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_reschedule() {
        // A self-rescheduling ticker: the bread-and-butter pattern for
        // frame sources and monitors.
        fn tick(count: &mut u32, sim: &mut Sim<u32>) {
            *count += 1;
            if *count < 5 {
                sim.schedule(SimDuration::from_millis(1), tick);
            }
        }
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule(SimDuration::ZERO, tick);
        let mut count = 0;
        sim.run(&mut count);
        assert_eq!(count, 5);
        assert_eq!(sim.now().as_millis(), 4);
    }

    #[test]
    fn cancel_suppresses_execution() {
        let mut sim: Sim<u32> = Sim::new();
        let id = sim.schedule(SimDuration::from_millis(1), |c: &mut u32, _| *c += 1);
        sim.schedule(SimDuration::from_millis(2), |c: &mut u32, _| *c += 10);
        sim.cancel(id);
        let mut c = 0;
        sim.run(&mut c);
        assert_eq!(c, 10);
        assert_eq!(sim.executed(), 1);
    }

    #[test]
    fn run_until_leaves_clock_at_deadline() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule(SimDuration::from_secs(10), |c: &mut u32, _| *c += 1);
        let mut c = 0;
        sim.run_until(&mut c, SimTime::from_secs(5));
        assert_eq!(c, 0);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // Resuming past the event fires it.
        sim.run_until(&mut c, SimTime::from_secs(20));
        assert_eq!(c, 1);
        assert_eq!(sim.now(), SimTime::from_secs(20));
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        sim.schedule(SimDuration::from_millis(10), |_w: &mut Vec<u64>, s| {
            // Attempt to schedule "before now" — must fire at now, not panic.
            s.schedule_at(SimTime::from_millis(1), |w: &mut Vec<u64>, s| {
                w.push(s.now().as_millis())
            });
        });
        let mut out = Vec::new();
        sim.run(&mut out);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn stop_pauses_and_resumes() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        sim.schedule(SimDuration::from_millis(1), |w: &mut Vec<u32>, s| {
            w.push(1);
            s.stop();
        });
        sim.schedule(SimDuration::from_millis(2), |w: &mut Vec<u32>, _| w.push(2));
        let mut out = Vec::new();
        sim.run(&mut out);
        assert_eq!(out, vec![1]);
        sim.run(&mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut sim: Sim<u32> = Sim::new();
        let id = sim.schedule(SimDuration::from_millis(1), |_, _| {});
        sim.schedule(SimDuration::from_millis(3), |_, _| {});
        sim.cancel(id);
        assert_eq!(sim.peek_time(), Some(SimTime::from_millis(3)));
    }

    #[test]
    fn profiling_counts_pops_and_execs() {
        let mut sim: Sim<u32> = Sim::new();
        sim.enable_profiling(0); // sample every entry
        for _ in 0..10 {
            sim.schedule(SimDuration::from_millis(1), |c: &mut u32, _| *c += 1);
        }
        let mut c = 0;
        sim.run_until(&mut c, SimTime::from_secs(1));
        let p = sim.profile().expect("profiling enabled");
        assert_eq!(p.exec_calls, 10);
        assert_eq!(p.exec_samples, 10);
        // One pop scan per fired event plus the final empty scan.
        assert_eq!(p.pop_calls, 11);
        assert!(sim.profile().is_some());
    }

    #[test]
    fn profiling_does_not_change_execution() {
        let run = |prof: bool| {
            let mut sim: Sim<Vec<u64>> = Sim::new();
            if prof {
                sim.enable_profiling(2);
            }
            for i in 0..50u64 {
                sim.schedule(SimDuration::from_millis(i % 7), move |w, _| w.push(i));
            }
            let mut out = Vec::new();
            sim.run(&mut out);
            (out, sim.executed(), sim.now())
        };
        assert_eq!(run(false), run(true));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever order events are scheduled in, they execute in
        /// non-decreasing time order, with FIFO tie-breaking.
        #[test]
        fn execution_order_is_time_then_fifo(
            delays in proptest::collection::vec(0u64..1000, 1..200),
        ) {
            let mut sim: Sim<Vec<(u64, usize)>> = Sim::new();
            for (seq, &d) in delays.iter().enumerate() {
                sim.schedule(SimDuration::from_millis(d), move |w: &mut Vec<(u64, usize)>, s| {
                    w.push((s.now().as_millis(), seq));
                });
            }
            let mut log = Vec::new();
            sim.run(&mut log);
            prop_assert_eq!(log.len(), delays.len());
            for w in log.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "time went backwards: {:?}", w);
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 < w[1].1, "same-instant FIFO violated: {:?}", w);
                }
            }
        }

        /// Cancelling a random subset suppresses exactly those events.
        #[test]
        fn cancellation_is_exact(
            delays in proptest::collection::vec(1u64..100, 1..100),
            cancel_mask in proptest::collection::vec(proptest::bool::ANY, 100),
        ) {
            let mut sim: Sim<Vec<usize>> = Sim::new();
            let mut expected = Vec::new();
            let mut ids = Vec::new();
            for (i, &d) in delays.iter().enumerate() {
                let id = sim.schedule(SimDuration::from_millis(d), move |w: &mut Vec<usize>, _| {
                    w.push(i);
                });
                ids.push((i, id));
            }
            for &(i, id) in &ids {
                if cancel_mask[i % cancel_mask.len()] {
                    sim.cancel(id);
                } else {
                    expected.push(i);
                }
            }
            let mut fired = Vec::new();
            sim.run(&mut fired);
            fired.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(fired, expected);
        }

        /// run_until never executes an event past the deadline and the
        /// remainder fires on resume.
        #[test]
        fn run_until_partitions_cleanly(
            delays in proptest::collection::vec(1u64..200, 1..100),
            deadline in 1u64..200,
        ) {
            let mut sim: Sim<Vec<u64>> = Sim::new();
            for &d in &delays {
                sim.schedule(SimDuration::from_millis(d), move |w: &mut Vec<u64>, s| {
                    w.push(s.now().as_millis());
                });
            }
            let mut first = Vec::new();
            sim.run_until(&mut first, SimTime::from_millis(deadline));
            prop_assert!(first.iter().all(|&t| t <= deadline));
            let mut rest = Vec::new();
            sim.run(&mut rest);
            prop_assert!(rest.iter().all(|&t| t > deadline));
            prop_assert_eq!(first.len() + rest.len(), delays.len());
        }
    }
}
