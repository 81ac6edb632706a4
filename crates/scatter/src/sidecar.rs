//! The scAtteR++ sidecar: a queueing, filtering, metering ingress proxy.
//!
//! §5: "the sidecar performs queuing and filtering of the incoming
//! requests and makes a gRPC call to the attached service for processing
//! outstanding frames in filtered FIFO order. The sidecar also collects
//! metrics (i.e., queueing and processing time or threshold ratio) that
//! are attached to the data's state."
//!
//! The filter enforces the 100 ms XR latency budget using exactly those
//! collected metrics: a frame is admitted only if its *projected*
//! completion — current age + expected wait behind the queued frames +
//! this service's expected processing + the expected remainder of the
//! pipeline — fits the threshold. Pure age-at-dequeue filtering is not
//! enough: at an overloaded bottleneck it converges to serving frames
//! exactly at the age limit, all of which then die at the next stage
//! (the queue does work that can never meet the budget). Projection keeps
//! the queue short and spends GPU time only on frames that can still make
//! it, which is what lets scAtteR++ sustain throughput under overload.

use std::collections::VecDeque;

use simcore::{SimDuration, SimTime};

use crate::message::FrameMsg;

/// Why a frame left the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dequeue {
    /// Frame handed to the service; includes its queueing delay.
    Serve(SimDuration),
    /// Queue empty.
    Empty,
}

/// Per-service sidecar queue with projected-completion filtering.
#[derive(Debug)]
pub struct Sidecar {
    queue: VecDeque<(FrameMsg, SimTime)>,
    threshold: SimDuration,
    /// Expected processing time of the attached service (from the
    /// sidecar's own processing-time metrics).
    service_est: SimDuration,
    /// Expected time the frame still needs after this service (rest of
    /// the pipeline + return path).
    downstream_est: SimDuration,
    /// Frames accepted into the queue.
    pub enqueued: u64,
    /// Frames dropped by the filter (at admission or at dequeue).
    pub dropped: u64,
    /// Frames handed to the service.
    pub served: u64,
    /// Sum of queueing delays (for mean queue time).
    queue_time_sum: SimDuration,
    /// Running EWMA of observed service time, ms — the sidecar's own
    /// "collected processing-time metric". Seeded from the constructor
    /// estimate; every completion observation tightens it.
    ewma_service_ms: f64,
}

impl Sidecar {
    /// `threshold` is the end-to-end budget (100 ms in the paper);
    /// `service_est` and `downstream_est` are the sidecar's running
    /// expectations used for projection. Zero estimates degrade to pure
    /// age filtering.
    pub fn new(
        threshold: SimDuration,
        service_est: SimDuration,
        downstream_est: SimDuration,
    ) -> Self {
        Sidecar {
            queue: VecDeque::new(),
            threshold,
            ewma_service_ms: service_est.as_millis_f64(),
            service_est,
            downstream_est,
            enqueued: 0,
            dropped: 0,
            served: 0,
            queue_time_sum: SimDuration::ZERO,
        }
    }

    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Projected completion of a frame of age `age` entering behind
    /// `queue_len` frames: age + (q + 1) × service + downstream.
    fn projected(&self, age: SimDuration, queue_len: usize) -> SimDuration {
        age + self.service_est * (queue_len as u64 + 1) + self.downstream_est
    }

    /// Accept a frame into the queue if its projected completion fits the
    /// threshold; otherwise filter it immediately.
    pub fn enqueue(&mut self, msg: FrameMsg, now: SimTime) -> bool {
        self.enqueue_or_reject(msg, now).is_none()
    }

    /// Like [`enqueue`](Sidecar::enqueue), but hands back the rejected
    /// frame so the caller can attribute the drop (trace forensics need
    /// the frame's [`TraceCtx`](trace::TraceCtx), not just a count).
    /// Returns `None` on admission, `Some(msg)` when filtered.
    pub fn enqueue_or_reject(&mut self, msg: FrameMsg, now: SimTime) -> Option<FrameMsg> {
        if self.projected(msg.age(now), self.queue.len()) > self.threshold {
            self.dropped += 1;
            return Some(msg);
        }
        self.enqueued += 1;
        self.queue.push_back((msg, now));
        None
    }

    /// Pop the next serviceable frame in FIFO order, filtering out any
    /// whose remaining budget can no longer cover service + downstream.
    pub fn dequeue(&mut self, now: SimTime) -> (Dequeue, Option<FrameMsg>) {
        let (outcome, served, _) = self.dequeue_with_drops(now);
        (outcome, served)
    }

    /// Like [`dequeue`](Sidecar::dequeue), but also returns the frames the
    /// filter discarded while searching for a serviceable one, so each
    /// discarded frame's drop can be attributed to its trace.
    pub fn dequeue_with_drops(
        &mut self,
        now: SimTime,
    ) -> (Dequeue, Option<FrameMsg>, Vec<FrameMsg>) {
        let mut filtered = Vec::new();
        while let Some((msg, arrived)) = self.queue.pop_front() {
            if self.projected(msg.age(now), 0) > self.threshold {
                self.dropped += 1;
                filtered.push(msg);
                continue;
            }
            let waited = now.saturating_since(arrived);
            self.served += 1;
            self.queue_time_sum += waited;
            return (Dequeue::Serve(waited), Some(msg), filtered);
        }
        (Dequeue::Empty, None, filtered)
    }

    /// Empty the queue, returning the queued frames. Used when the
    /// attached service crashes: the frames are lost with the instance
    /// and must be accounted as crash drops, not filter drops.
    pub fn drain(&mut self) -> Vec<FrameMsg> {
        self.queue.drain(..).map(|(msg, _)| msg).collect()
    }

    /// Fraction of frames dropped by the filter among all seen.
    pub fn drop_ratio(&self) -> f64 {
        let seen = self.served + self.dropped;
        if seen == 0 {
            0.0
        } else {
            self.dropped as f64 / seen as f64
        }
    }

    /// Mean queueing delay of served frames.
    pub fn mean_queue_time(&self) -> SimDuration {
        if self.served == 0 {
            SimDuration::ZERO
        } else {
            self.queue_time_sum / self.served
        }
    }

    pub fn threshold(&self) -> SimDuration {
        self.threshold
    }

    /// Fold one observed service time (accept → completion, ms) into
    /// the sidecar's running EWMA estimate — the paper's "the sidecar
    /// also collects metrics (i.e., queueing and processing time)".
    /// This is what keeps the projection honest under GPU contention:
    /// when co-located kernels slow the service down, admission tightens
    /// instead of wasting GPU time on frames that cannot finish. The
    /// constructor estimate is only the EWMA's seed; after a load step
    /// the estimate converges to the observed level geometrically
    /// (weight 0.1 per observation — ≈ 90% of the way in 22 frames).
    pub fn observe_service_ms(&mut self, observed_ms: f64) {
        self.ewma_service_ms = 0.9 * self.ewma_service_ms + 0.1 * observed_ms;
        self.service_est = SimDuration::from_nanos((self.ewma_service_ms * 1e6) as u64);
    }

    /// The sidecar's exported backpressure signal: projected wait for a
    /// hypothetical frame admitted *now* — queue occupancy times the
    /// running service estimate plus the expected downstream remainder.
    /// The overload controller steps the degradation ladder off this.
    pub fn backpressure_ms(&self) -> f64 {
        (self.service_est * (self.queue.len() as u64 + 1) + self.downstream_est).as_millis_f64()
    }

    /// Update the expected post-service pipeline time (from downstream
    /// sidecars' shared metrics): lets an early stage refuse frames that
    /// a congested *later* stage would only throw away, moving drops to
    /// the cheapest point in the pipeline.
    pub fn set_downstream_est(&mut self, est: SimDuration) {
        self.downstream_est = est;
    }

    pub fn service_est(&self) -> SimDuration {
        self.service_est
    }

    pub fn downstream_est(&self) -> SimDuration {
        self.downstream_est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;

    fn msg(emitted_ms: u64) -> FrameMsg {
        FrameMsg::new(0, 1, NodeId(0), SimTime::from_millis(emitted_ms), 1000)
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Pure age filter (zero estimates).
    fn age_only(threshold_ms: u64) -> Sidecar {
        Sidecar::new(
            SimDuration::from_millis(threshold_ms),
            SimDuration::ZERO,
            SimDuration::ZERO,
        )
    }

    #[test]
    fn fifo_order_preserved() {
        let mut sc = age_only(100);
        for i in 0..3 {
            let mut m = msg(0);
            m.frame_no = i;
            sc.enqueue(m, at(1));
        }
        for i in 0..3 {
            let (_, m) = sc.dequeue(at(2));
            assert_eq!(m.unwrap().frame_no, i);
        }
        assert!(matches!(sc.dequeue(at(2)).0, Dequeue::Empty));
    }

    #[test]
    fn stale_on_arrival_filtered() {
        let mut sc = age_only(100);
        assert!(!sc.enqueue(msg(0), at(150)));
        assert_eq!(sc.dropped, 1);
        assert_eq!(sc.len(), 0);
    }

    #[test]
    fn stale_in_queue_filtered_at_dequeue() {
        let mut sc = age_only(100);
        sc.enqueue(msg(0), at(10)); // fine on arrival
        sc.enqueue(msg(90), at(95)); // younger frame behind it
        let (outcome, m) = sc.dequeue(at(120)); // first frame now 120ms old
        assert!(matches!(outcome, Dequeue::Serve(_)));
        assert_eq!(m.unwrap().emitted_at, at(90));
        assert_eq!(sc.dropped, 1);
        assert_eq!(sc.served, 1);
    }

    #[test]
    fn queue_time_accounted() {
        let mut sc = age_only(100);
        sc.enqueue(msg(0), at(10));
        let (outcome, _) = sc.dequeue(at(40));
        match outcome {
            Dequeue::Serve(waited) => assert_eq!(waited.as_millis(), 30),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(sc.mean_queue_time().as_millis(), 30);
    }

    #[test]
    fn drop_ratio_counts_both_paths() {
        let mut sc = age_only(50);
        sc.enqueue(msg(0), at(10)); // will go stale
        sc.enqueue(msg(100), at(110)); // will be served
        let _ = sc.dequeue(at(120)); // drops first, serves second
        assert_eq!(sc.drop_ratio(), 0.5);
    }

    #[test]
    fn boundary_age_exactly_threshold_is_kept() {
        let mut sc = age_only(100);
        assert!(sc.enqueue(msg(0), at(100)), "age == threshold must pass");
    }

    #[test]
    fn projection_bounds_queue_length() {
        // Service 10 ms, downstream 20 ms, threshold 100 ms: a fresh frame
        // fits only while (q + 1) × 10 + 20 ≤ 100, i.e. q ≤ 7.
        let mut sc = Sidecar::new(
            SimDuration::from_millis(100),
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
        );
        let mut admitted = 0;
        for _ in 0..20 {
            if sc.enqueue(msg(100), at(100)) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 8, "queue must cap where projection hits budget");
        assert_eq!(sc.dropped, 12);
    }

    #[test]
    fn projection_rejects_frames_that_cannot_finish() {
        // Age 75 ms + 10 service + 20 downstream = 105 > 100 → reject even
        // with an empty queue.
        let mut sc = Sidecar::new(
            SimDuration::from_millis(100),
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
        );
        assert!(!sc.enqueue(msg(0), at(75)));
        // Age 69: 69 + 30 = 99 ≤ 100 → admitted.
        assert!(sc.enqueue(msg(0), at(69)));
    }

    #[test]
    fn ewma_estimate_converges_under_a_load_step() {
        // Constructor seeds 5 ms; the service then takes 20 ms per frame
        // (a load step: GPU contention kicked in). The running estimate
        // must converge to the observed level, not stay pinned at the
        // constructor value.
        let mut sc = Sidecar::new(
            SimDuration::from_millis(100),
            SimDuration::from_millis(5),
            SimDuration::from_millis(20),
        );
        assert_eq!(sc.service_est().as_millis(), 5);
        for _ in 0..40 {
            sc.observe_service_ms(20.0);
        }
        let est = sc.service_est().as_millis_f64();
        assert!(
            (est - 20.0).abs() < 0.5,
            "estimate {est} ms did not converge to the observed 20 ms"
        );
        // And back down after the contention clears.
        for _ in 0..40 {
            sc.observe_service_ms(8.0);
        }
        let est = sc.service_est().as_millis_f64();
        assert!((est - 8.0).abs() < 0.5, "estimate {est} ms stuck high");
    }

    #[test]
    fn backpressure_reflects_queue_and_estimates() {
        let mut sc = Sidecar::new(
            SimDuration::from_millis(100),
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
        );
        assert_eq!(sc.backpressure_ms(), 30.0, "empty queue: service + rest");
        sc.enqueue(msg(100), at(100));
        sc.enqueue(msg(100), at(100));
        assert_eq!(sc.backpressure_ms(), 50.0, "(2+1)×10 + 20");
    }

    #[test]
    fn dequeue_projection_drops_frames_that_aged_in_queue() {
        let mut sc = Sidecar::new(
            SimDuration::from_millis(100),
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
        );
        sc.enqueue(msg(0), at(10));
        // By dequeue time the frame is 75 ms old: 75 + 30 > 100 → filtered.
        let (outcome, m) = sc.dequeue(at(75));
        assert!(matches!(outcome, Dequeue::Empty));
        assert!(m.is_none());
        assert_eq!(sc.dropped, 1);
    }
}
