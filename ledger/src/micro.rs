//! Substrate micro-timings: nanoseconds per operation of the small pieces
//! both planes are built from, each the median of seven batches.

use std::hint::black_box;
use std::time::Instant;

use scatter::message::{FrameMsg, ServiceKind};
use scatter::sidecar::Sidecar;
use scatter::CostModel;
use simcore::{Sim, SimDuration, SimRng, SimTime};
use simnet::{Link, Testbed, UdpNet};

use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats;

const BATCHES: usize = 7;

/// Median over batches of the time of one `op`, in ns; `op` gets the
/// running operation index.
fn ns_per_op(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut i = 0;
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..ops {
                op(i);
                i += 1;
            }
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    stats::median(&batches)
}

/// World of the hold model: every executed event schedules its successor
/// a random delay ahead, so the heap stays at its prefilled depth.
struct Hold {
    rng: SimRng,
}

fn hold(world: &mut Hold, sim: &mut Sim<Hold>) {
    let delay = SimDuration::from_micros(1 + world.rng.next_bounded(1_000_000));
    sim.schedule(delay, hold);
}

/// One pop plus one push on an event heap holding `depth` events.
fn push_pop_ns(depth: usize, ops: u64) -> f64 {
    let mut world = Hold {
        rng: SimRng::new(depth as u64),
    };
    let mut sim: Sim<Hold> = Sim::new();
    for _ in 0..depth {
        hold(&mut world, &mut sim);
    }
    ns_per_op(ops, |_| {
        sim.step(&mut world);
    })
}

/// `quick` (a smoke run) does a hundredth of the operations.
pub fn per_layer(out: &mut Outcome, spans: &mut Spans, quick: bool) {
    let scaled = |ops: u64| if quick { ops / 100 } else { ops };
    let mut put = |name: &'static str, time: &mut dyn FnMut() -> f64| {
        let ns = spans.time(name, 0, |_| time());
        out.put(name, ns, BATCHES);
    };

    put("simcore.push_pop_ns_d1k", &mut || {
        push_pop_ns(1_000, scaled(200_000))
    });
    put("simcore.push_pop_ns_d200k", &mut || {
        push_pop_ns(200_000, scaled(200_000))
    });
    put("simcore.rng_lognormal_ns", &mut || {
        let mut rng = SimRng::new(1);
        ns_per_op(scaled(1_000_000), |_| {
            black_box(rng.lognormal(0.0, 0.08));
        })
    });
    put("simnet.link_send_ns", &mut || {
        let link = Link::from_rtt_ms(1.0).bandwidth_mbps(1000.0);
        let mut rng = SimRng::new(2);
        ns_per_op(scaled(1_000_000), |_| {
            black_box(link.send(150_000, &mut rng));
        })
    });
    put("simnet.udp_send_ns", &mut || {
        let (topo, tb) = Testbed::build();
        let mut net = UdpNet::new(topo, SimRng::new(4));
        ns_per_op(scaled(1_000_000), |i| {
            let now = SimTime::from_micros(i * 33);
            black_box(net.send(tb.client_host, tb.e1, 150_000, now));
        })
    });
    put("costmodel.sample_ns", &mut || {
        let cost = CostModel::default();
        let mut rng = SimRng::new(5);
        ns_per_op(scaled(1_000_000), |_| {
            black_box(cost.sample_service_time(ServiceKind::Sift, 1.0, false, &mut rng));
        })
    });
    put("sidecar.cycle_ns", &mut || {
        let mut sidecar = Sidecar::new(
            SimDuration::from_millis(100),
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
        );
        ns_per_op(scaled(1_000_000), |i| {
            let now = SimTime::from_micros(i * 500);
            sidecar.enqueue(FrameMsg::new(0, i, simnet::NodeId(0), now, 1000), now);
            black_box(sidecar.dequeue(now));
        })
    });
    put("metrics.summary_record_ns", &mut || {
        // Sized like the exact collector of one paper-scale DES cell; it
        // keeps every sample, so more would only measure reallocation.
        let mut summary = metrics::Summary::new();
        ns_per_op(scaled(100_000), |i| summary.record(5.0 + (i % 97) as f64))
    });
    put("metrics.hist_record_ns", &mut || {
        let mut hist = metrics::LogHistogram::for_latency_ms();
        ns_per_op(scaled(1_000_000), |i| hist.record(5.0 + (i % 97) as f64))
    });
    put("telemetry.hist_record_ns", &mut || {
        let hist = telemetry::Histogram::detached_latency_ms();
        ns_per_op(scaled(1_000_000), |i| hist.record(5.0 + (i % 97) as f64))
    });
    put("telemetry.counter_inc_ns", &mut || {
        let counter = telemetry::Counter::detached();
        ns_per_op(scaled(1_000_000), |_| counter.inc())
    });
    put("trace.span_record_ns", &mut || {
        let mut tracer = trace::Tracer::new(trace::TraceConfig::default());
        let track = tracer.register_track("sift#0", "E1");
        // The tracer keeps every span too.
        ns_per_op(scaled(50_000), |i| {
            let ctx = tracer.ctx(0, i as u32);
            tracer.span(ctx, track, 1, trace::Phase::Compute, i, i + 1);
        })
    });
    put("observatory.tail_decide_ns", &mut || {
        let cfg = observatory::TailConfig::default();
        ns_per_op(scaled(1_000_000), |i| {
            black_box(observatory::tail::decide(
                &cfg,
                i,
                0,
                5_000_000,
                Some(trace::FrameFate::Completed),
                None,
            ));
        })
    });
    put("observatory.flight_record_ns", &mut || {
        let flight = observatory::FlightRecorder::new(6, 256);
        ns_per_op(scaled(1_000_000), |i| {
            flight.record((i % 6) as usize, i, 1, i, 0)
        })
    });
    put("orchestra.balancer_pick_ns", &mut || {
        let mut balancer = orchestra::Balancer::new(orchestra::BalancerKind::StickyByFlow, 3);
        ns_per_op(scaled(1_000_000), |i| {
            black_box(balancer.pick(i % 64));
        })
    });
    put("orchestra.detector_heartbeat_ns", &mut || {
        let mut detector = orchestra::FailureDetector::new(orchestra::DetectorConfig::default());
        for id in 0..5 {
            detector.register(orchestra::InstanceId(id), 0.0);
        }
        ns_per_op(scaled(1_000_000), |i| {
            black_box(detector.heartbeat(orchestra::InstanceId((i % 5) as u32), i as f64 * 10.0));
        })
    });
}
