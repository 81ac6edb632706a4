//! `ledger` — the repo's benchmark. It links the crates and measures them
//! from outside: it times calls into public functions and reads procfs.
//!
//! ```text
//! ledger run --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! ledger run [--seed N] [--seconds S] [--traced] [--smoke]   all four, one child process each
//! ledger noise --sets N [--workload W] [--seed N] [--seconds S]   run-to-run spread of every metric
//! ```
//!
//! A one-workload run prints two lines on standard output: every metric
//! with its unit and `n`, then, last, the object the driver reads:
//! `correct`, `attempted`, `failed`, `metrics`. `--traced` is `--trace 1`.
//! README.md says what each workload and metric is for.

mod alloc;
mod des;
mod micro;
mod procfs;
mod report;
mod rt;
mod spans;
mod stats;

use std::process::{Command, ExitCode};

use report::{five_digits, Outcome, END_TO_END, WORKLOADS};
use spans::Spans;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// How much one run measures, derived from `--seconds` alone so that two
/// runs with the same arguments do the same work.
struct Plan {
    /// Runtime: fresh deployments per run and frames per deployment. A
    /// segment is one whole turn of the 300-frame camera loop, 2.5 s at
    /// 120 FPS, so every segment streams the same frames and its tracks,
    /// filters and reassemblers age past their one-second sweeps. Ten
    /// such segments hold a median steadier than three of 1200 frames do
    /// (README, "Noise").
    segments: usize,
    frames: u32,
    /// Runtime: extra `LocalDeployment::start` calls timed for `setup_s`.
    starts: usize,
    /// DES: timed passes over the grid, and set-up samples.
    paper_passes: usize,
    scale_passes: usize,
    setup_samples: usize,
    /// DES: simulated seconds per paper cell, clients of the scale cell.
    paper_sim_secs: u64,
    scale_clients: usize,
    /// Traced run: frames of each of a runtime workload's two segments,
    /// and of the runtime probe a DES workload adds.
    traced_frames: u32,
    probe_frames: u32,
}

impl Plan {
    /// A segment streams for 2.5 s; one DES pass is ≈1.6 s (paper) or
    /// ≈1.0 s (scale) of host time on the 2-core reference host, hence
    /// 0.4, 0.6 and 0.8 repetitions per second.
    fn for_seconds(seconds: u64) -> Plan {
        Plan {
            segments: (seconds * 2 / 5).max(1) as usize,
            frames: 300,
            starts: 25,
            paper_passes: (seconds * 3 / 5).max(1) as usize,
            scale_passes: (seconds * 4 / 5).max(1) as usize,
            setup_samples: 15,
            paper_sim_secs: 300,
            scale_clients: 100_000,
            traced_frames: 600,
            probe_frames: 240,
        }
    }

    /// A few seconds in total: enough to emit every metric, not to
    /// measure anything.
    fn smoke() -> Plan {
        Plan {
            segments: 1,
            frames: 120,
            starts: 2,
            paper_passes: 1,
            scale_passes: 1,
            setup_samples: 2,
            paper_sim_secs: 10,
            scale_clients: 2_000,
            traced_frames: 120,
            probe_frames: 60,
        }
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    sets: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 7,
        seconds: 25,
        traced: false,
        smoke: false,
        sets: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => parsed.traced = number(value()?)? != 0,
            "--traced" => parsed.traced = true,
            "--smoke" => parsed.smoke = true,
            "--sets" => parsed.sets = number(value()?)?.max(2) as usize,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(parsed)
}

/// Measure one workload in this process.
fn measure(workload: &str, args: &Args) -> Outcome {
    let plan = if args.smoke {
        Plan::smoke()
    } else {
        Plan::for_seconds(args.seconds)
    };
    let stateful = workload == "rt-base-120";
    let grid = match workload {
        "des-paper" => Some((des::paper_grid(plan.paper_sim_secs), plan.paper_passes)),
        "des-scale" => Some((des::scale_grid(plan.scale_clients), plan.scale_passes)),
        _ => None,
    };
    if !args.traced {
        return match &grid {
            None => rt::end_to_end(stateful, args.seed, plan.segments, plan.frames, plan.starts),
            Some((grid, passes)) => des::end_to_end(grid, args.seed, *passes, plan.setup_samples),
        };
    }

    // A traced run reports every layer, because the driver asks every
    // workload for every per-layer metric. The plane the workload belongs
    // to runs at the workload's own size; the other plane runs as a short
    // probe (one paper cell, scAtteR++ frames), whose operations are not
    // the workload's and stay out of `attempted`. The DES goes first, so
    // that `des.rss_bytes_per_client` is its own growth of the peak.
    let des_is_own = grid.is_some();
    let (des_grid, rt_frames) = match grid {
        Some((grid, _)) => (grid, plan.probe_frames),
        None => (
            des::probe_grid(plan.paper_sim_secs.min(30)),
            plan.traced_frames,
        ),
    };
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let mut layers = Outcome::default();
    des::per_layer(&mut layers, &mut spans, &des_grid, args.seed);
    out.absorb(layers, des_is_own);
    let mut layers = Outcome::default();
    rt::per_layer(&mut layers, &mut spans, stateful, args.seed, rt_frames);
    out.absorb(layers, !des_is_own);
    micro::per_layer(&mut out, &mut spans, args.smoke);

    let path = format!("ledger_out/spans-{workload}.json");
    let _ = std::fs::create_dir_all("ledger_out");
    match std::fs::write(&path, spans.to_json()) {
        Ok(()) => eprintln!("ledger: {} spans written to {path}", spans.all().len()),
        Err(e) => out.check(false, || format!("cannot write spans to {path}: {e}")),
    }
    out
}

/// Re-run this binary for one workload; returns its labelled line and
/// its result line, parsed.
fn run_child(
    workload: &str,
    args: &Args,
    seed: u64,
) -> Result<(String, trace::json::Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().unwrap_or("");
    let labelled = lines.next().unwrap_or("");
    let value =
        trace::json::Value::parse(result).map_err(|e| format!("{workload}: {e}: {result}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {result}",
            output.status
        ));
    }
    Ok((labelled.to_string(), value))
}

fn metric_value(result: &trace::json::Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn run(args: &Args) -> ExitCode {
    if let Some(workload) = &args.workload {
        let out = measure(workload, args);
        eprintln!("ledger: {workload} seed {}\n{}", args.seed, out.table());
        println!("{}", out.json_line(Some((workload, args.seed))));
        println!("{}", out.json_line(None));
        return if out.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut ok = true;
    for workload in WORKLOADS {
        match run_child(workload, args, args.seed) {
            Ok((labelled, _)) => println!("{labelled}"),
            Err(e) => {
                eprintln!("ledger: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `sets` full sets, each with its own seed as the driver does it, the
/// seeds 1000 apart so that no two sets share a DES pass seed. Per
/// (workload, metric): median, quartiles, IQR/median and range/median.
/// Fails when a spread exceeds the metric's bound (`setup_s` excepted) or
/// the medians of the two halves of the sets differ by more than it.
fn noise(args: &Args) -> ExitCode {
    let mut ok = true;
    println!(
        "| workload | metric | median | q1 | q3 | IQR/median | (max-min)/median | halves | bound |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for workload in WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != workload) {
            continue;
        }
        let mut sets = Vec::new();
        for i in 0..args.sets {
            match run_child(workload, args, args.seed + 1000 * i as u64) {
                Ok((_, result)) => sets.push(result),
                Err(e) => {
                    eprintln!("ledger: {e}");
                    ok = false;
                }
            }
        }
        for (name, _, bound) in END_TO_END {
            let values: Vec<f64> = sets.iter().filter_map(|s| metric_value(s, name)).collect();
            if values.len() < 2 {
                eprintln!("ledger: {workload} {name}: fewer than two values");
                ok = false;
                continue;
            }
            let (q1, q2, q3) = stats::quartiles(&values);
            let spread = stats::iqr_share(&values);
            let (first, second) = values.split_at(values.len() / 2);
            let halves = (stats::median(second) / stats::median(first) - 1.0).abs();
            let steady = (name == "setup_s" || spread <= bound) && halves <= bound;
            ok &= steady;
            println!(
                "| {workload} | {name} | {} | {} | {} | {spread:.4} | {:.4} | {halves:.4} | {bound}{} |",
                five_digits(q2),
                five_digits(q1),
                five_digits(q3),
                stats::range_share(&values),
                if steady { "" } else { " EXCEEDED" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &[][..]),
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    match command {
        "run" => run(&args),
        "noise" => noise(&args),
        _ => {
            eprintln!("usage: ledger run|noise [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke] [--sets N]");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args(&[
            "--workload",
            "des-scale",
            "--seed",
            "11",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("driver form");
        assert_eq!(a.workload.as_deref(), Some("des-scale"));
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.smoke),
            (11, 20, true, false)
        );
        let d = args(&[]).expect("defaults");
        assert_eq!((d.seed, d.seconds, d.traced), (7, 25, false));
        assert!(args(&["--traced"]).expect("alias").traced);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn plan_scales_with_seconds_and_never_reaches_zero() {
        let p = Plan::for_seconds(25);
        assert_eq!((p.segments, p.paper_passes, p.scale_passes), (10, 15, 20));
        let tiny = Plan::for_seconds(1);
        assert_eq!(
            (tiny.segments, tiny.paper_passes, tiny.scale_passes),
            (1, 1, 1)
        );
    }

    #[test]
    fn counting_allocator_counts_only_while_the_flag_is_up() {
        let (calls_before, bytes_before) = alloc::totals();
        alloc::set_counting(true);
        let v = std::hint::black_box(vec![0u8; 4096]);
        alloc::set_counting(false);
        let (calls, bytes) = alloc::totals();
        assert!(calls > calls_before && bytes >= bytes_before + 4096);
        drop(v);
        let quiet = std::hint::black_box(vec![0u8; 4096]);
        assert_eq!(alloc::totals(), (calls, bytes));
        drop(quiet);
    }

    #[test]
    fn metric_values_are_read_back_from_a_result_line() {
        let mut out = Outcome {
            attempted: 3,
            ..Default::default()
        };
        out.put("setup_s", 0.5, 1);
        let parsed = trace::json::Value::parse(&out.json_line(None)).expect("valid");
        assert_eq!(metric_value(&parsed, "setup_s"), Some(0.5));
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_f64()), Some(3.0));
    }
}
