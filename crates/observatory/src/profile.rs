//! Always-on sampled self-profiler.
//!
//! A million-client DES run executes a few million events per second,
//! leaving a per-event overhead budget of a handful of nanoseconds —
//! two `Instant::now()` calls per event would alone blow the
//! observatory's 5% gate. The profiler therefore *samples*: every call
//! increments a plain counter, and only 1 in `2^shift` calls (a mask
//! test) pays for a wall-clock pair. Per-phase totals are estimated as
//! `sampled_ns * calls / samples`; hot loops are uniform enough that
//! the estimate reconciles with `latency_breakdown` (the observatory
//! bin prints the comparison table).
//!
//! Reading the wall clock never perturbs determinism: no RNG is drawn,
//! no event is scheduled, and timings only flow into reports — the
//! same discipline as the PR 3 telemetry plane.
//!
//! Two flavours share the snapshot type: [`PhaseProfiler`] (`&mut
//! self`, for the single-threaded DES loop) and [`AtomicPhaseProf`]
//! (`&self`, shared across runtime service threads).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use telemetry::Labels;

/// Aggregate for one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    pub name: &'static str,
    /// Every entry, sampled or not.
    pub calls: u64,
    /// Entries that paid for a clock pair.
    pub samples: u64,
    /// Wall time inside sampled entries.
    pub sampled_ns: u64,
    /// `sampled_ns * calls / samples` — the extrapolated phase total.
    pub est_total_ns: u64,
}

/// Point-in-time view of a profiler; mergeable across threads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfSnapshot {
    pub phases: Vec<PhaseStat>,
}

impl ProfSnapshot {
    /// Fold another snapshot in (same-name phases sum; new names
    /// append) — used to aggregate per-service runtime profilers.
    pub fn merge(&mut self, other: &ProfSnapshot) {
        for p in &other.phases {
            match self.phases.iter_mut().find(|q| q.name == p.name) {
                Some(q) => {
                    q.calls += p.calls;
                    q.samples += p.samples;
                    q.sampled_ns += p.sampled_ns;
                    q.est_total_ns = est_total(q.sampled_ns, q.calls, q.samples);
                }
                None => self.phases.push(*p),
            }
        }
    }

    /// Folded-stack flamegraph text: one `prefix;phase <µs>` line per
    /// active phase, ready for `flamegraph.pl` / speedscope.
    pub fn folded(&self, prefix: &str) -> String {
        let mut out = String::new();
        for p in &self.phases {
            if p.calls == 0 {
                continue;
            }
            out.push_str(&format!("{prefix};{} {}\n", p.name, p.est_total_ns / 1_000));
        }
        out
    }

    pub fn total_est_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.est_total_ns).sum()
    }

    pub fn get(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }
}

fn est_total(sampled_ns: u64, calls: u64, samples: u64) -> u64 {
    if samples == 0 {
        return 0;
    }
    ((sampled_ns as u128 * calls as u128) / samples as u128) as u64
}

#[derive(Clone, Copy, Default)]
struct Cell {
    calls: u64,
    samples: u64,
    sampled_ns: u64,
}

/// Single-writer profiler for the DES hot loops. `enter` costs one
/// increment and a mask test on the unsampled path.
pub struct PhaseProfiler {
    phases: &'static [&'static str],
    mask: u64,
    cells: Vec<Cell>,
    hists: Option<Vec<telemetry::Histogram>>,
}

impl PhaseProfiler {
    /// `shift`: time 1 entry in `2^shift`. Shift 0 times everything
    /// (tests); the DES default is 6 (1-in-64).
    pub fn new(phases: &'static [&'static str], shift: u32) -> PhaseProfiler {
        PhaseProfiler {
            phases,
            mask: (1u64 << shift.min(63)) - 1,
            cells: vec![Cell::default(); phases.len()],
            hists: None,
        }
    }

    /// Mirror sampled durations into per-phase `telemetry` histograms
    /// (`prof_phase_ms{plane,reason=<phase>}`).
    pub fn attach_registry(&mut self, reg: &telemetry::Registry, plane: &'static str) {
        self.hists = Some(
            self.phases
                .iter()
                .map(|name| {
                    reg.histogram(
                        "prof_phase_ms",
                        "sampled self-profiler phase duration",
                        Labels::EMPTY.with_plane(plane).with_reason(name),
                    )
                })
                .collect(),
        );
    }

    #[inline]
    pub fn enter(&mut self, phase: usize) -> Option<Instant> {
        let c = &mut self.cells[phase];
        let sampled = c.calls & self.mask == 0;
        c.calls += 1;
        sampled.then(Instant::now)
    }

    #[inline]
    pub fn exit(&mut self, phase: usize, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            let c = &mut self.cells[phase];
            c.samples += 1;
            c.sampled_ns += ns;
            if let Some(hists) = &self.hists {
                hists[phase].record(ns as f64 / 1e6);
            }
        }
    }

    pub fn snapshot(&self) -> ProfSnapshot {
        ProfSnapshot {
            phases: self
                .phases
                .iter()
                .zip(&self.cells)
                .map(|(name, c)| PhaseStat {
                    name,
                    calls: c.calls,
                    samples: c.samples,
                    sampled_ns: c.sampled_ns,
                    est_total_ns: est_total(c.sampled_ns, c.calls, c.samples),
                })
                .collect(),
        }
    }
}

struct AtomicCell {
    calls: AtomicU64,
    samples: AtomicU64,
    sampled_ns: AtomicU64,
}

/// Shared-reference profiler for runtime threads; same sampling
/// contract as [`PhaseProfiler`] with relaxed atomics.
pub struct AtomicPhaseProf {
    phases: &'static [&'static str],
    mask: u64,
    cells: Vec<AtomicCell>,
}

impl AtomicPhaseProf {
    pub fn new(phases: &'static [&'static str], shift: u32) -> AtomicPhaseProf {
        AtomicPhaseProf {
            phases,
            mask: (1u64 << shift.min(63)) - 1,
            cells: (0..phases.len())
                .map(|_| AtomicCell {
                    calls: AtomicU64::new(0),
                    samples: AtomicU64::new(0),
                    sampled_ns: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    #[inline]
    pub fn enter(&self, phase: usize) -> Option<Instant> {
        let c = self.cells[phase].calls.fetch_add(1, Ordering::Relaxed);
        (c & self.mask == 0).then(Instant::now)
    }

    #[inline]
    pub fn exit(&self, phase: usize, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            let c = &self.cells[phase];
            c.samples.fetch_add(1, Ordering::Relaxed);
            c.sampled_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    pub fn snapshot(&self) -> ProfSnapshot {
        ProfSnapshot {
            phases: self
                .phases
                .iter()
                .zip(&self.cells)
                .map(|(name, c)| {
                    let calls = c.calls.load(Ordering::Relaxed);
                    let samples = c.samples.load(Ordering::Relaxed);
                    let sampled_ns = c.sampled_ns.load(Ordering::Relaxed);
                    PhaseStat {
                        name,
                        calls,
                        samples,
                        sampled_ns,
                        est_total_ns: est_total(sampled_ns, calls, samples),
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PHASES: &[&str] = &["pop", "exec"];

    #[test]
    fn sampling_respects_shift() {
        let mut p = PhaseProfiler::new(PHASES, 3); // 1 in 8
        for _ in 0..80 {
            let t = p.enter(0);
            p.exit(0, t);
        }
        let s = p.snapshot();
        let pop = s.get("pop").unwrap();
        assert_eq!(pop.calls, 80);
        assert_eq!(pop.samples, 10);
        assert!(pop.est_total_ns >= pop.sampled_ns);
    }

    #[test]
    fn shift_zero_times_everything() {
        let mut p = PhaseProfiler::new(PHASES, 0);
        for _ in 0..5 {
            let t = p.enter(1);
            assert!(t.is_some());
            p.exit(1, t);
        }
        let s = p.snapshot();
        assert_eq!(s.get("exec").unwrap().samples, 5);
    }

    #[test]
    fn folded_output_shape() {
        let mut p = PhaseProfiler::new(PHASES, 0);
        let t = p.enter(0);
        p.exit(0, t);
        let folded = p.snapshot().folded("des");
        assert!(folded.starts_with("des;pop "));
        assert_eq!(folded.lines().count(), 1, "idle phases are omitted");
    }

    #[test]
    fn merge_sums_and_reestimates() {
        let mut a = ProfSnapshot {
            phases: vec![PhaseStat {
                name: "pop",
                calls: 100,
                samples: 10,
                sampled_ns: 1000,
                est_total_ns: 10_000,
            }],
        };
        let b = a.clone();
        a.merge(&b);
        let p = a.get("pop").unwrap();
        assert_eq!(p.calls, 200);
        assert_eq!(p.est_total_ns, 20_000);
    }

    #[test]
    fn atomic_prof_is_shareable() {
        let p = std::sync::Arc::new(AtomicPhaseProf::new(PHASES, 0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = p.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        let t = p.enter(0);
                        p.exit(0, t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.snapshot().get("pop").unwrap().calls, 100);
    }

    #[test]
    fn registry_mirror_records_histograms() {
        let reg = telemetry::Registry::new();
        let mut p = PhaseProfiler::new(PHASES, 0);
        p.attach_registry(&reg, "des");
        let t = p.enter(0);
        p.exit(0, t);
        let snap = reg.snapshot();
        let h = snap
            .histogram(
                "prof_phase_ms",
                &Labels::EMPTY.with_plane("des").with_reason("pop"),
            )
            .expect("histogram exists");
        assert_eq!(h.count(), 1);
    }
}
