//! Anomaly-triggered flight recorder.
//!
//! Always-on logging at 100k–1M clients is exactly the observability
//! cost this crate exists to retire, but *post-hoc* forensics still
//! need the moments before a failure. The [`FlightRecorder`] squares
//! that: every site (DES) or thread (runtime) continuously overwrites
//! a small fixed ring of structured events — crashes, kills,
//! detections, SLO transitions, notable drops — at a cost of a few
//! atomic stores per event, and only when an anomaly *fires* (crash,
//! detector suspicion, `SloTracker` burn-rate alert) is the merged
//! recent history frozen into a [`FlightDump`] and later written to
//! `results/flightrec_*.json`.
//!
//! # Concurrency model
//!
//! Each ring has exactly one writer (a DES world is single-threaded; a
//! runtime service pins one ring per thread), but a dump may be taken
//! from another thread while writers are live. Slots are a seqlock in
//! miniature: the writer parks the slot's tag at 0, stores the payload,
//! then publishes the global sequence number with `Release`; the reader
//! accepts a slot only if the tag reads the same nonzero value with
//! `Acquire` before and after copying the payload. Torn slots are
//! skipped, never invented. No locks, no allocation on the record path.
//!
//! # Determinism
//!
//! In the DES every `record`/`trigger` happens at a deterministic
//! `(time, seq)` point, so dumps — contents, order, and JSON bytes —
//! are bit-identical across reruns. The runtime's dumps are real
//! concurrent snapshots and make no such promise; the cross-plane gate
//! compares anomaly *counts*, not bytes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Event kinds — small integers on the record path, names in dumps.
pub const KIND_CRASH: u64 = 1;
pub const KIND_REVIVE: u64 = 2;
pub const KIND_DETECT: u64 = 3;
pub const KIND_SLO_ALERT: u64 = 4;
pub const KIND_SLO_CLEAR: u64 = 5;
pub const KIND_KILL: u64 = 6;
pub const KIND_DROP: u64 = 7;
pub const KIND_FAILOVER: u64 = 8;
pub const KIND_SEND_ERR: u64 = 9;

pub fn kind_name(kind: u64) -> &'static str {
    match kind {
        KIND_CRASH => "crash",
        KIND_REVIVE => "revive",
        KIND_DETECT => "detect",
        KIND_SLO_ALERT => "slo-alert",
        KIND_SLO_CLEAR => "slo-clear",
        KIND_KILL => "kill",
        KIND_DROP => "drop",
        KIND_FAILOVER => "failover",
        KIND_SEND_ERR => "send-err",
        _ => "unknown",
    }
}

/// One recovered ring entry. `seq` is the global record order, so a
/// merged dump totally orders events across rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    pub seq: u64,
    pub ring: u16,
    pub t_ns: u64,
    pub kind: u64,
    /// Kind-specific payload: typically (site/service, slot/detail).
    pub a: u64,
    pub b: u64,
}

/// A frozen snapshot of all rings at trigger time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    pub at_ns: u64,
    pub reason: String,
    /// Merged across rings, ascending `seq`.
    pub events: Vec<FlightEvent>,
}

struct Slot {
    /// 0 = empty or mid-write; otherwise the event's global seq.
    tag: AtomicU64,
    t_ns: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            tag: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

struct Ring {
    slots: Vec<Slot>,
    /// Next write position (monotonic; slot = pos % cap). Single
    /// writer, but atomic so readers can size their scan.
    pos: AtomicU64,
}

/// Fixed-memory, lock-free recent-event recorder. See module docs.
pub struct FlightRecorder {
    rings: Vec<Ring>,
    cap: usize,
    seq: AtomicU64,
    dumps: Mutex<Vec<FlightDump>>,
    max_dumps: usize,
}

impl FlightRecorder {
    /// `rings` writers (one per DES site / runtime thread), each keeping
    /// its most recent `cap` events. Memory: `rings * cap * 40` bytes,
    /// fixed for the life of the recorder.
    pub fn new(rings: usize, cap: usize) -> FlightRecorder {
        let cap = cap.max(1);
        FlightRecorder {
            rings: (0..rings.max(1))
                .map(|_| Ring {
                    slots: (0..cap).map(|_| Slot::empty()).collect(),
                    pos: AtomicU64::new(0),
                })
                .collect(),
            cap,
            seq: AtomicU64::new(0),
            dumps: Mutex::new(Vec::new()),
            max_dumps: 8,
        }
    }

    pub fn ring_count(&self) -> usize {
        self.rings.len()
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Record one event into `ring` (clamped). A few atomic stores; no
    /// allocation, no branching on fullness — old events are simply
    /// overwritten.
    pub fn record(&self, ring: usize, t_ns: u64, kind: u64, a: u64, b: u64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let ring = &self.rings[ring.min(self.rings.len() - 1)];
        let pos = ring.pos.fetch_add(1, Ordering::Relaxed) as usize % self.cap;
        let slot = &ring.slots[pos];
        slot.tag.store(0, Ordering::Release);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.kind.store(kind, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.tag.store(seq, Ordering::Release);
    }

    /// Snapshot every ring into a merged dump. Returns `false` when the
    /// dump budget (`max_dumps`, a storm guard: one crash can cascade
    /// into detector + SLO triggers) is already spent.
    pub fn trigger(&self, at_ns: u64, reason: &str) -> bool {
        {
            let dumps = self.dumps.lock().unwrap();
            if dumps.len() >= self.max_dumps {
                return false;
            }
        }
        let mut events = Vec::new();
        for (ri, ring) in self.rings.iter().enumerate() {
            for slot in &ring.slots {
                let tag = slot.tag.load(Ordering::Acquire);
                if tag == 0 {
                    continue;
                }
                let ev = FlightEvent {
                    seq: tag,
                    ring: ri as u16,
                    t_ns: slot.t_ns.load(Ordering::Relaxed),
                    kind: slot.kind.load(Ordering::Relaxed),
                    a: slot.a.load(Ordering::Relaxed),
                    b: slot.b.load(Ordering::Relaxed),
                };
                // Seqlock validation: accept only if untouched while
                // we copied.
                if slot.tag.load(Ordering::Acquire) == tag {
                    events.push(ev);
                }
            }
        }
        events.sort_unstable_by_key(|e| e.seq);
        let mut dumps = self.dumps.lock().unwrap();
        if dumps.len() >= self.max_dumps {
            return false;
        }
        dumps.push(FlightDump {
            at_ns,
            reason: reason.to_string(),
            events,
        });
        true
    }

    pub fn dump_count(&self) -> usize {
        self.dumps.lock().unwrap().len()
    }

    /// Take the accumulated dumps (drains, so a recorder can be reused).
    pub fn take_dumps(&self) -> Vec<FlightDump> {
        std::mem::take(&mut *self.dumps.lock().unwrap())
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render one dump as JSON. Deterministic: field order is fixed and no
/// wall-clock or pid material enters, so identical dumps produce
/// identical bytes — the replay gate diffs these strings directly.
pub fn dump_json(dump: &FlightDump) -> String {
    let mut out = String::with_capacity(64 + dump.events.len() * 64);
    out.push_str(&format!(
        "{{\"reason\":\"{}\",\"at_ns\":{},\"events\":[",
        escape_json(&dump.reason),
        dump.at_ns
    ));
    for (i, e) in dump.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"seq\":{},\"ring\":{},\"t_ns\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
            e.seq,
            e.ring,
            e.t_ns,
            kind_name(e.kind),
            e.a,
            e.b
        ));
    }
    out.push_str("]}");
    out
}

/// Write each dump to `<dir>/flightrec_<plane>_<i>.json`; returns the
/// paths written.
pub fn write_dumps(
    dir: &std::path::Path,
    plane: &str,
    dumps: &[FlightDump],
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(dumps.len());
    for (i, d) in dumps.iter().enumerate() {
        let path = dir.join(format!("flightrec_{plane}_{i}.json"));
        std::fs::write(&path, dump_json(d))?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_trigger_round_trip() {
        let fr = FlightRecorder::new(2, 8);
        fr.record(0, 10, KIND_KILL, 3, 0);
        fr.record(1, 20, KIND_CRASH, 3, 7);
        fr.record(0, 30, KIND_DETECT, 3, 1);
        assert!(fr.trigger(30, "crash"));
        let dumps = fr.take_dumps();
        assert_eq!(dumps.len(), 1);
        let d = &dumps[0];
        assert_eq!(d.reason, "crash");
        assert_eq!(
            d.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "merged dump is globally ordered"
        );
        assert_eq!(d.events[1].ring, 1);
        assert_eq!(d.events[1].kind, KIND_CRASH);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let fr = FlightRecorder::new(1, 4);
        for i in 0..10u64 {
            fr.record(0, i, KIND_DROP, i, 0);
        }
        fr.trigger(10, "slo-alert");
        let d = &fr.take_dumps()[0];
        // Only the 4 newest survive.
        assert_eq!(
            d.events.iter().map(|e| e.a).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn dump_budget_is_enforced() {
        let fr = FlightRecorder::new(1, 4);
        fr.record(0, 1, KIND_CRASH, 0, 0);
        for i in 0..20 {
            fr.trigger(i, "storm");
        }
        assert_eq!(fr.dump_count(), 8);
        assert!(!fr.trigger(99, "over"));
    }

    #[test]
    fn json_is_deterministic_and_parseable() {
        let fr = FlightRecorder::new(2, 4);
        fr.record(0, 5, KIND_KILL, 1, 2);
        fr.record(1, 6, KIND_SLO_ALERT, 0, 0);
        fr.trigger(7, "detector \"sift#1\"");
        let dumps = fr.take_dumps();
        let a = dump_json(&dumps[0]);
        let b = dump_json(&dumps[0]);
        assert_eq!(a, b);
        let v = trace::json::Value::parse(&a).expect("dump json parses");
        assert_eq!(v.get("at_ns").and_then(|x| x.as_f64()), Some(7.0));
        assert_eq!(
            v.get("events").and_then(|e| e.as_array()).map(|e| e.len()),
            Some(2)
        );
    }

    #[test]
    fn empty_slots_are_skipped() {
        let fr = FlightRecorder::new(3, 16);
        fr.record(2, 1, KIND_REVIVE, 0, 0);
        fr.trigger(1, "probe");
        assert_eq!(fr.take_dumps()[0].events.len(), 1);
    }
}
