//! The catalogue of metric names and units, and the result of one run.
//! `BENCHMARK.json` at the repo root lists the same names; the contract
//! test holds the two together.

use std::fmt::Write as _;

pub const WORKLOADS: [&str; 4] = ["rt-pp-120", "rt-base-120", "des-paper", "des-scale"];

/// `(name, unit, share of the median it may worsen by)`. Every workload
/// reports all of them; all are better lower except `delivered_fps`. Each
/// bound is three times the widest spread measured for its metric on the
/// reference host, or the driver's ceiling of a quarter where that is
/// less (README, "Noise"). The 95th-percentile latency is a per-layer
/// metric (`rt.e2e_p95_ms`, `des.e2e_p95_ms`).
pub const END_TO_END: [(&str, &str, f64); 6] = [
    ("setup_s", "s", 0.25),
    ("delivered_fps", "frames/s", 0.07),
    ("e2e_mean_ms", "ms", 0.25),
    ("cpu_us_per_frame", "us", 0.25),
    ("wire_kb_per_frame", "kB", 0.02),
    ("peak_rss_mb", "MiB", 0.15),
];

pub const SERVICES: [&str; 5] = ["primary", "sift", "encoding", "lsh", "matching"];

/// `(name, unit)` of every per-layer metric, in reporting order.
pub const PER_LAYER: [(&str, &str); 104] = [
    // runtime, from the program's own trace, report and procfs
    ("rt.primary.compute_ms", "ms"),
    ("rt.sift.compute_ms", "ms"),
    ("rt.encoding.compute_ms", "ms"),
    ("rt.lsh.compute_ms", "ms"),
    ("rt.matching.compute_ms", "ms"),
    ("rt.primary.queue_ms", "ms"),
    ("rt.sift.queue_ms", "ms"),
    ("rt.encoding.queue_ms", "ms"),
    ("rt.lsh.queue_ms", "ms"),
    ("rt.matching.queue_ms", "ms"),
    ("rt.client.return_ms", "ms"),
    ("rt.bottleneck_busy_share", "share"),
    ("rt.e2e_p95_ms", "ms"),
    ("rt.traced_e2e_p50_ms", "ms"),
    ("rt.traced_e2e_p99_ms", "ms"),
    ("rt.trace_overhead_share", "share"),
    ("rt.prof.compute_us_per_frame", "us"),
    ("rt.prof.net_send_us_per_frame", "us"),
    ("rt.allocs_per_frame", "count"),
    ("rt.alloc_kb_per_frame", "kB"),
    ("rt.udp_datagrams_per_frame", "count"),
    ("rt.udp_rcvbuf_errors", "count"),
    ("rt.ctx_switches_per_frame", "count"),
    ("rt.pacing_lag_ms", "ms"),
    ("rt.recognised_share", "share"),
    ("rt.frames_emitted", "count"),
    ("rt.frames_completed", "count"),
    ("rt.drops_stale", "count"),
    ("rt.drops_fragment", "count"),
    ("rt.drops_busy", "count"),
    ("rt.fetch_retransmits", "count"),
    ("rt.fetch_failures", "count"),
    ("rt.unattributed_loss", "count"),
    // replay: the ledger's spans around the public stage functions
    ("vision.scene_frame_us", "us"),
    ("vision.codec_encode_us", "us"),
    ("vision.codec_decode_us", "us"),
    ("vision.resize_us", "us"),
    ("vision.detect_us", "us"),
    ("vision.describe_us", "us"),
    ("vision.fisher_encode_us", "us"),
    ("vision.lsh_query_us", "us"),
    ("vision.match_object_us", "us"),
    ("vision.track_observe_us", "us"),
    ("vision.db_train_ms", "ms"),
    ("wire.encode_frame_us", "us"),
    ("wire.decode_frame_us", "us"),
    ("wire.encode_state_us", "us"),
    ("wire.decode_state_us", "us"),
    ("wire.fragment_us", "us"),
    ("wire.reassemble_us", "us"),
    ("wirev2.seal_us", "us"),
    ("wirev2.ingest_finish_us", "us"),
    ("wirev2.rle_compress_us", "us"),
    ("wirev2.delta_encode_us", "us"),
    ("wirev2.delta_apply_us", "us"),
    ("wirev2.crc32_ns_per_kb", "ns/kB"),
    ("batch.hop_single_us_32k", "us"),
    ("batch.hop_single_us_64b", "us"),
    ("batch.hop_batched_us_32k", "us"),
    ("batch.hop_batched_us_64b", "us"),
    ("rt.replay_sum_us_per_frame", "us"),
    ("rt.unattributed_cpu_share", "share"),
    // DES, from the observed run and its report
    ("des.events_per_frame", "count"),
    ("des.ns_per_event", "ns"),
    ("des.pop_ns_per_event", "ns"),
    ("des.exec_ns_per_event", "ns"),
    ("des.phase.net_decide_ns_per_event", "ns"),
    ("des.phase.cost_sample_ns_per_event", "ns"),
    ("des.phase.deliver_ns_per_event", "ns"),
    ("des.phase.slo_tick_ns_per_event", "ns"),
    ("des.unattributed_cpu_share", "share"),
    ("des.allocs_per_event", "count"),
    ("des.alloc_bytes_per_event", "B"),
    ("des.rss_bytes_per_client", "B"),
    ("des.trace_overhead_share", "share"),
    ("des.success_rate", "share"),
    ("des.e2e_p95_ms", "ms"),
    ("des.primary.compute_ms", "ms"),
    ("des.sift.compute_ms", "ms"),
    ("des.encoding.compute_ms", "ms"),
    ("des.lsh.compute_ms", "ms"),
    ("des.matching.compute_ms", "ms"),
    ("des.primary.queue_ms", "ms"),
    ("des.sift.queue_ms", "ms"),
    ("des.encoding.queue_ms", "ms"),
    ("des.lsh.queue_ms", "ms"),
    ("des.matching.queue_ms", "ms"),
    ("des.network_ms", "ms"),
    // substrate micro-timings, ns per operation
    ("simcore.push_pop_ns_d1k", "ns"),
    ("simcore.push_pop_ns_d200k", "ns"),
    ("simcore.rng_lognormal_ns", "ns"),
    ("simnet.link_send_ns", "ns"),
    ("simnet.udp_send_ns", "ns"),
    ("costmodel.sample_ns", "ns"),
    ("sidecar.cycle_ns", "ns"),
    ("metrics.summary_record_ns", "ns"),
    ("metrics.hist_record_ns", "ns"),
    ("telemetry.hist_record_ns", "ns"),
    ("telemetry.counter_inc_ns", "ns"),
    ("trace.span_record_ns", "ns"),
    ("observatory.tail_decide_ns", "ns"),
    ("observatory.flight_record_ns", "ns"),
    ("orchestra.balancer_pick_ns", "ns"),
    ("orchestra.detector_heartbeat_ns", "ns"),
];

/// Five significant digits, whatever the magnitude.
pub fn five_digits(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.4e}")
    } else {
        let whole = v.abs().log10().floor().max(0.0) as usize;
        format!("{v:.*}", 4usize.saturating_sub(whole))
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n, u))
        .chain(PER_LAYER)
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// `None` when the host could not supply the measurement.
    pub value: Option<f64>,
    /// Samples behind the value (segments, passes, frames or batches).
    pub n: usize,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations tried: frames on the runtime, simulation cells on the DES.
    pub attempted: u64,
    pub failed: u64,
    /// One line per correctness check that did not hold.
    pub broken: Vec<String>,
    pub metrics: Vec<Metric>,
    /// The per-segment or per-pass samples behind each reduced value, for
    /// the human-readable table only.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Free-form lines for the table: what the checks looked at.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: impl Into<Option<f64>>, n: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit_of(name),
            value: value.into().filter(|v| v.is_finite()),
            n,
        });
    }

    /// Report `reduce(samples)` under `name` and keep the samples.
    pub fn put_reduced(&mut self, name: &str, samples: Vec<f64>, reduce: fn(&[f64]) -> f64) {
        let value = (!samples.is_empty()).then(|| reduce(&samples));
        self.put(name, value, samples.len());
        self.samples.push((name.to_string(), samples));
    }

    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.broken.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.broken.is_empty()
    }

    /// Take over a part's metrics and broken checks. Its operations count
    /// only when they are the workload's `own`, not a probe's.
    pub fn absorb(&mut self, part: Outcome, own: bool) {
        if own {
            self.attempted += part.attempted;
            self.failed += part.failed;
        }
        self.broken.extend(part.broken);
        self.metrics.extend(part.metrics);
        self.samples.extend(part.samples);
        self.notes.extend(part.notes);
    }

    /// One JSON object on one line. Plain, it is exactly what the driver
    /// reads; `labelled` with the workload and its seed, it names them and
    /// gives each value's `n` as well.
    pub fn json_line(&self, labelled: Option<(&str, u64)>) -> String {
        let mut out = String::from("{");
        if let Some((workload, seed)) = labelled {
            let _ = write!(out, "\"workload\": \"{workload}\", \"seed\": {seed}, ");
        }
        let _ = write!(
            out,
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = m.value.map_or("null".to_string(), |v| format!("{v:?}"));
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"",
                m.name, m.unit
            );
            if labelled.is_some() {
                let _ = write!(out, ", \"n\": {}", m.n);
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Human-readable table: name, value, unit, n.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let value = m.value.map_or("null".to_string(), five_digits);
            let _ = writeln!(
                out,
                "  {:<40} {:>14} {:<9} n={}",
                m.name, value, m.unit, m.n
            );
        }
        for (name, samples) in &self.samples {
            let shown: Vec<String> = samples.iter().copied().map(five_digits).collect();
            let _ = writeln!(out, "  samples of {name}: [{}]", shown.join(", "));
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        for b in &self.broken {
            let _ = writeln!(out, "  CHECK FAILED: {b}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_fits_the_driver_limits() {
        let all: Vec<(&str, &str)> = END_TO_END
            .iter()
            .map(|&(n, u, _)| (n, u))
            .chain(PER_LAYER)
            .collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(name_ok(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert!(all[..i].iter().all(|(n, _)| n != name), "duplicate {name}");
        }
        assert!(END_TO_END
            .iter()
            .any(|&(n, u, _)| n == "setup_s" && u == "s"));
        assert!(END_TO_END.iter().all(|&(_, _, b)| b > 0.0 && b <= 0.25));
        assert!(WORKLOADS.iter().all(|w| name_ok(w)));
    }

    /// `BENCHMARK.json` repeats the catalogue: same names, units and bounds.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let bench = trace::json::Value::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, Option<f64>)> {
            let list = bench.get(key).and_then(|v| v.as_array()).expect(key);
            list.iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    let bound = m.get("bound").and_then(|v| v.as_f64());
                    (text("name"), text("unit"), bound)
                })
                .collect()
        };
        let end_to_end: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), Some(b)))
            .collect();
        let per_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string(), None))
            .collect();
        assert_eq!(listed("end_to_end"), end_to_end);
        assert_eq!(listed("per_layer"), per_layer);
    }

    #[test]
    fn five_digits_at_every_magnitude() {
        assert_eq!(five_digits(6527.6326), "6527.6");
        assert_eq!(five_digits(58.2406), "58.241");
        assert_eq!(five_digits(0.35101), "0.3510");
        assert_eq!(five_digits(0.0000135), "1.3500e-5");
        assert_eq!(five_digits(0.0), "0.0000");
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            ..Default::default()
        };
        o.put("setup_s", 0.25, 9);
        o.put("peak_rss_mb", None, 0);
        o.put("e2e_mean_ms", f64::NAN, 1);
        let v = trace::json::Value::parse(&o.json_line(None)).expect("valid JSON");
        let keys: Vec<&String> = v.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&trace::json::Value::Bool(true)));
        let setup = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("value").and_then(|x| x.as_f64()), Some(0.25));
        assert_eq!(setup.get("unit").and_then(|x| x.as_str()), Some("s"));
        let rss = v
            .get("metrics")
            .and_then(|m| m.get("peak_rss_mb"))
            .expect("rss");
        assert_eq!(rss.get("value"), Some(&trace::json::Value::Null));
        let nan = v
            .get("metrics")
            .and_then(|m| m.get("e2e_mean_ms"))
            .expect("nan");
        assert_eq!(nan.get("value"), Some(&trace::json::Value::Null));

        let labelled =
            trace::json::Value::parse(&o.json_line(Some(("rt-pp-120", 7)))).expect("valid JSON");
        assert_eq!(
            labelled.get("workload").and_then(|x| x.as_str()),
            Some("rt-pp-120")
        );
        let n = labelled
            .get("metrics")
            .and_then(|m| m.get("setup_s")?.get("n"));
        assert_eq!(n.and_then(|x| x.as_f64()), Some(9.0));

        o.check(false, || "lost a frame".to_string());
        assert!(!o.correct());
        assert!(o.json_line(None).starts_with("{\"correct\": false"));
    }
}
