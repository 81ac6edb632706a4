//! Regression: the experiment harness's env-var diagnostics go to
//! *stderr*, never stdout — `--json` output must stay machine-parsable
//! even when `SCATTER_JOBS`/`SCATTER_EXP_SECS` are garbage. A corrupted
//! stdout silently breaks every downstream plotting pipeline, so this is
//! pinned by spawning the real binary.

use std::process::{Command, Output};
use std::sync::Mutex;

/// Each test here spawns a full release study binary; the wire and
/// resilience studies gate on real-thread latency, so running them
/// concurrently on a small box starves their timing. One spawn at a
/// time.
static SPAWN: Mutex<()> = Mutex::new(());

/// Lines of a child's stderr quoted in a failure message.
const STDERR_TAIL: usize = 40;

/// The child's exit status and the tail of its stderr, appended to every
/// failure message: a child that panicked leaves its reason there.
fn diag(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    let tail = &lines[lines.len().saturating_sub(STDERR_TAIL)..];
    format!(
        "child {}; stderr, last {} of {} lines:\n{}",
        out.status,
        tail.len(),
        lines.len(),
        tail.join("\n")
    )
}

/// stdout parsed as exactly one JSON document (the table array).
fn json_stdout(out: &Output) -> trace::json::Value {
    let stdout = std::str::from_utf8(&out.stdout)
        .unwrap_or_else(|e| panic!("stdout is not UTF-8 ({e})\n{}", diag(out)));
    trace::json::Value::parse(stdout.trim()).unwrap_or_else(|e| {
        panic!(
            "stdout must parse as JSON — no warnings may leak into it ({e})\n{}",
            diag(out)
        )
    })
}

#[test]
fn invalid_env_warns_on_stderr_and_keeps_json_stdout_clean() {
    let _serial = SPAWN.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_telemetry"))
        .args(["--smoke", "--json"])
        .env("SCATTER_EXP_SECS", "6")
        .env("SCATTER_JOBS", "banana") // invalid: must warn, not die
        .output()
        .expect("spawn telemetry bin");
    let (stderr, diag) = (String::from_utf8_lossy(&out.stderr), diag(&out));
    assert!(
        out.status.success(),
        "telemetry --smoke --json failed\n{diag}"
    );

    // stdout is exactly one JSON document (the table array).
    let v = json_stdout(&out);
    assert!(
        v.idx(0).and_then(|t| t.get("title")).is_some(),
        "expected a non-empty array of tables\n{diag}"
    );

    // The warning fired, on stderr.
    assert!(
        stderr.contains("warning: invalid SCATTER_JOBS"),
        "stderr missing the SCATTER_JOBS warning\n{diag}"
    );
}

/// Same contract for the resilience knobs: garbage in
/// `SCATTER_HB_INTERVAL` / `SCATTER_HB_SUSPECT` warns once on stderr,
/// the detector falls back to its defaults, and the run (gates
/// included) still succeeds with machine-parsable JSON on stdout.
#[test]
fn invalid_heartbeat_env_warns_and_falls_back_to_defaults() {
    let _serial = SPAWN.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_resilience"))
        .args(["--smoke", "--json"])
        .env("SCATTER_HB_INTERVAL", "soon") // invalid: warn, keep 50 ms
        .env("SCATTER_HB_SUSPECT", "0.5") // invalid: factor must exceed 1
        .output()
        .expect("spawn resilience bin");
    let (stderr, diag) = (String::from_utf8_lossy(&out.stderr), diag(&out));
    assert!(
        out.status.success(),
        "resilience --smoke --json failed under invalid env\n{diag}"
    );

    let v = json_stdout(&out);
    assert!(
        v.idx(0).and_then(|t| t.get("title")).is_some(),
        "expected a non-empty array of tables\n{diag}"
    );

    assert!(
        stderr.contains("warning: invalid SCATTER_HB_INTERVAL"),
        "stderr missing the SCATTER_HB_INTERVAL warning\n{diag}"
    );
    assert!(
        stderr.contains("warning: invalid SCATTER_HB_SUSPECT"),
        "stderr missing the SCATTER_HB_SUSPECT warning\n{diag}"
    );
}

/// Same contract for the observatory knobs: garbage in
/// `SCATTER_OBS_SAMPLE` (tail reservoir rate) / `SCATTER_FLIGHTREC`
/// (flight-recorder ring capacity) warns exactly once on stderr even
/// though the study performs many observed runs, the observatory falls
/// back to the config's values, and stdout stays one machine-parsable
/// JSON document. The overhead/retention gates are not asserted here —
/// `CARGO_BIN_EXE_observatory` is the debug-profile build, whose
/// uninlined sampler cannot hold the release overhead bound; the
/// release binary's gates are enforced by `scripts/verify.sh`.
#[test]
fn invalid_observatory_env_warns_once_and_falls_back() {
    let _serial = SPAWN.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_observatory"))
        .args(["--smoke", "--json"])
        .env("SCATTER_OBS_SAMPLE", "sometimes") // invalid: warn, keep 1-in-64
        .env("SCATTER_FLIGHTREC", "0") // invalid: capacity must be >= 1
        .output()
        .expect("spawn observatory bin");
    let (stderr, diag) = (String::from_utf8_lossy(&out.stderr), diag(&out));

    let v = json_stdout(&out);
    assert!(
        v.idx(0).and_then(|t| t.get("title")).is_some(),
        "expected a non-empty array of tables\n{diag}"
    );

    for knob in ["SCATTER_OBS_SAMPLE", "SCATTER_FLIGHTREC"] {
        let needle = format!("warning: invalid {knob}");
        assert_eq!(
            stderr.matches(needle.as_str()).count(),
            1,
            "{knob} warning must fire exactly once across every observed run\n{diag}"
        );
    }
}

/// Same contract for the run cache: `SCATTER_RUN_CACHE` accepts `0` or
/// `1` silently; garbage warns exactly once on stderr however many runs
/// consult the cache, keeps the cache on, and leaves stdout — the
/// figure — exactly what a valid value prints.
#[test]
fn invalid_run_cache_env_warns_once_and_keeps_the_cache_on() {
    let _serial = SPAWN.lock().unwrap_or_else(|e| e.into_inner());
    let fig4 = |cache: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_fig4"))
            .env("SCATTER_EXP_SECS", "6")
            .env("SCATTER_RUN_CACHE", cache)
            .output()
            .expect("spawn fig4 bin");
        let diag = format!("SCATTER_RUN_CACHE={cache}: {}", diag(&out));
        assert!(out.status.success(), "fig4 failed\n{diag}");
        let warnings = String::from_utf8_lossy(&out.stderr)
            .matches("warning: invalid SCATTER_RUN_CACHE")
            .count();
        (out.stdout, warnings, diag)
    };
    let (off, off_warnings, off_diag) = fig4("0");
    let (on, on_warnings, on_diag) = fig4("1");
    let (garbage, garbage_warnings, garbage_diag) = fig4("off");
    assert_eq!(
        (off_warnings, on_warnings, garbage_warnings),
        (0, 0, 1),
        "\n{off_diag}\n{on_diag}\n{garbage_diag}"
    );
    assert!(!on.is_empty(), "\n{on_diag}");
    assert_eq!(
        garbage, on,
        "stdout must be the figure alone\n{garbage_diag}"
    );
    assert_eq!(off, on, "the cache never changes a figure\n{off_diag}");
}

/// Same contract for the wire-policy knobs: garbage in
/// `SCATTER_WIRE_DELTA` / `SCATTER_WIRE_COMPRESS` warns once on
/// stderr, the study falls back to the default policy (both on), and
/// stdout stays one machine-parsable JSON document. The latency/parity
/// gates themselves are *not* asserted here: `CARGO_BIN_EXE_wire` is
/// the debug-profile build, which is far too slow to hold the exact
/// ack-timing parity or the 100 ms p95 — the release binary's gates
/// are enforced by `scripts/verify.sh`'s wire smoke stage instead.
#[test]
fn invalid_wire_env_warns_and_falls_back_to_defaults() {
    let _serial = SPAWN.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_wire"))
        .args(["--smoke", "--json"])
        .env("SCATTER_WIRE_DELTA", "maybe") // invalid: warn, keep delta on
        .env("SCATTER_WIRE_COMPRESS", "2") // invalid: want 0/1
        .output()
        .expect("spawn wire bin");
    let (stderr, diag) = (String::from_utf8_lossy(&out.stderr), diag(&out));

    let v = json_stdout(&out);
    assert!(
        v.idx(0).and_then(|t| t.get("title")).is_some(),
        "expected a non-empty array of tables\n{diag}"
    );

    assert!(
        stderr.contains("warning: invalid SCATTER_WIRE_DELTA"),
        "stderr missing the SCATTER_WIRE_DELTA warning\n{diag}"
    );
    assert!(
        stderr.contains("warning: invalid SCATTER_WIRE_COMPRESS"),
        "stderr missing the SCATTER_WIRE_COMPRESS warning\n{diag}"
    );
}
