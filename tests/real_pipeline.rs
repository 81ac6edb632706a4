//! Integration: the real-UDP runtime agrees with the in-process vision
//! pipeline, end to end.

use scatter::runtime::deploy::{run_local, RuntimeOptions};
use simcore::SimRng;
use vision::db::TrainParams;
use vision::scene::SceneGenerator;
use vision::ReferenceDb;

#[test]
fn loopback_results_match_direct_recognition() {
    // What the distributed pipeline recognizes over real sockets must be
    // consistent with recognizing the same frames in-process.
    let report = run_local(RuntimeOptions {
        frames: 6,
        fps: 6.0,
        seed: 7,
        ..Default::default()
    });
    assert!(report.completed >= 3, "completed {}/6", report.completed);

    let scene = SceneGenerator::workplace_scaled(7, 256, 144);
    let mut rng = SimRng::new(7);
    let db = ReferenceDb::train(&scene, TrainParams::default(), &mut rng);
    let mut direct_names = std::collections::HashSet::new();
    for idx in 0..6 {
        for rec in db.recognize(&scene.frame(idx), &mut rng) {
            direct_names.insert(rec.name);
        }
    }
    // Note: the runtime's primary stage downsizes frames (dimension
    // reduction), so it may see fewer objects than the direct full-size
    // pass — but everything it reports must be a real scene object.
    for name in report.recognitions.keys() {
        assert!(
            ["table", "monitor", "keyboard"].contains(&name.as_str()),
            "runtime hallucinated object {name}"
        );
    }
    assert!(
        !report.recognitions.is_empty(),
        "runtime recognized nothing; direct pass saw {direct_names:?}"
    );
}

#[test]
fn runtime_statistics_are_consistent() {
    let report = run_local(RuntimeOptions {
        frames: 5,
        fps: 5.0,
        ..Default::default()
    });
    // Conservation: later stages cannot process more than earlier ones
    // produced.
    let processed: Vec<u64> = report
        .service_counts
        .iter()
        .map(|(_, _, p, _)| *p)
        .collect();
    for w in processed.windows(2) {
        assert!(w[1] <= w[0], "stage conservation violated: {processed:?}");
    }
    assert!(report.completed as u64 <= processed[4]);
    assert!(report.success_rate() <= 1.0);
}

/// ROADMAP 4b: no panic reachable from the network. `FrameState`
/// datagrams that decode structurally but carry values the vision stages
/// are undefined on — a Fisher vector of the wrong length, NaN/∞ floats —
/// used to hit an `assert`/`expect` inside `lsh` or `matching`; the
/// service thread died and every later frame was lost. They are now
/// rejected at the stage's typed decode and counted.
#[test]
fn crafted_state_datagrams_are_counted_not_fatal() {
    use scatter::runtime::wire::{self, FrameState, WireMsg};
    use scatter::runtime::LocalDeployment;
    use scatter::ServiceKind;

    let dep = LocalDeployment::start(RuntimeOptions {
        frames: 30,
        fps: 10.0,
        seed: 7,
        ..Default::default()
    });

    // Real descriptors of a real frame, so the poisoned ones get as far
    // into `matching` (ratio test → RANSAC → DLT) as a genuine frame.
    let scene = SceneGenerator::workplace_scaled(7, 256, 144);
    let db = ReferenceDb::train(&scene, TrainParams::default(), &mut SimRng::new(7));
    let img = scene.frame(0).resize(192, 108);
    let (pyr, kps) = vision::keypoints::detect(&img, &Default::default());
    let descriptors = vision::descriptor::describe_all(&pyr, &kps);
    assert!(descriptors.len() >= 30);
    let fisher: Vec<f32> = db
        .encode_frame(&descriptors)
        .iter()
        .map(|&v| v as f32)
        .collect();
    assert_eq!(fisher.len(), db.fisher_dim());

    let state = |mutate: &dyn Fn(&mut FrameState)| {
        let mut s = FrameState {
            descriptors: descriptors.clone(),
            fisher: fisher.clone(),
            candidates: vec![0, 1, 2],
        };
        mutate(&mut s);
        s
    };
    let crafted = [
        (ServiceKind::Lsh, state(&|s| s.fisher.truncate(3))),
        (ServiceKind::Lsh, state(&|s| s.fisher.fill(f32::NAN))),
        (
            ServiceKind::Matching,
            state(&|s| {
                s.descriptors
                    .iter_mut()
                    .for_each(|d| d.keypoint.x = f32::NAN)
            }),
        ),
        (
            ServiceKind::Matching,
            state(&|s| s.descriptors[0].v[5] = f32::INFINITY),
        ),
    ];
    let attacker = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
    for (i, (step, state)) in crafted.iter().enumerate() {
        let msg = WireMsg {
            client: 9,
            frame_no: i as u32,
            step: *step,
            emit_micros: 0,
            return_port: attacker.local_addr().expect("addr").port(),
            trace_id: (9u64 << 32) | i as u64,
            flags: 0,
            sent_micros: 0,
            payload: wire::encode_state(state),
        };
        for datagram in wire::encode(&msg) {
            attacker
                .send_to(&datagram, dep.service_addr(*step))
                .expect("send crafted datagram");
        }
    }
    // The unpoisoned state is a valid payload: only the values differ.
    assert!(wire::decode_state(wire::encode_state(&state(&|_| {}))).is_ok());

    let report = dep.run_client();
    dep.shutdown();
    assert_eq!(
        report.completed, 30,
        "frames after the crafted datagrams must still complete"
    );
    assert_eq!(
        report.malformed_datagrams,
        crafted.len() as u64,
        "every crafted datagram is counted as malformed"
    );
}
