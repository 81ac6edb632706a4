//! Regression: the experiment harness's env-var diagnostics go to
//! *stderr*, never stdout — `--json` output must stay machine-parsable
//! even when `SCATTER_JOBS`/`SCATTER_EXP_SECS` are garbage. A corrupted
//! stdout silently breaks every downstream plotting pipeline, so this is
//! pinned by spawning the real binary.

use std::process::Command;
use std::sync::Mutex;

/// Each test here spawns a full release study binary; the wire and
/// resilience studies gate on real-thread latency, so running them
/// concurrently on a small box starves their timing. One spawn at a
/// time.
static SPAWN: Mutex<()> = Mutex::new(());

#[test]
fn invalid_env_warns_on_stderr_and_keeps_json_stdout_clean() {
    let _serial = SPAWN.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_telemetry"))
        .args(["--smoke", "--json"])
        .env("SCATTER_EXP_SECS", "6")
        .env("SCATTER_JOBS", "banana") // invalid: must warn, not die
        .output()
        .expect("spawn telemetry bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "telemetry --smoke --json failed: {:?}\nstderr: {stderr}",
        out.status
    );

    // stdout is exactly one JSON document (the table array).
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let v = trace::json::Value::parse(stdout.trim())
        .expect("stdout must parse as JSON — no warnings may leak into it");
    assert!(
        v.idx(0).and_then(|t| t.get("title")).is_some(),
        "expected a non-empty array of tables"
    );

    // The warning fired, on stderr.
    assert!(
        stderr.contains("warning: invalid SCATTER_JOBS"),
        "stderr missing the SCATTER_JOBS warning: {stderr}"
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
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "resilience --smoke --json failed under invalid env: {:?}\nstderr: {stderr}",
        out.status
    );

    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let v = trace::json::Value::parse(stdout.trim())
        .expect("stdout must parse as JSON — no warnings may leak into it");
    assert!(
        v.idx(0).and_then(|t| t.get("title")).is_some(),
        "expected a non-empty array of tables"
    );

    assert!(
        stderr.contains("warning: invalid SCATTER_HB_INTERVAL"),
        "stderr missing the SCATTER_HB_INTERVAL warning: {stderr}"
    );
    assert!(
        stderr.contains("warning: invalid SCATTER_HB_SUSPECT"),
        "stderr missing the SCATTER_HB_SUSPECT warning: {stderr}"
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
    let stderr = String::from_utf8_lossy(&out.stderr);

    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let v = trace::json::Value::parse(stdout.trim())
        .expect("stdout must parse as JSON — no warnings may leak into it");
    assert!(
        v.idx(0).and_then(|t| t.get("title")).is_some(),
        "expected a non-empty array of tables"
    );

    for knob in ["SCATTER_OBS_SAMPLE", "SCATTER_FLIGHTREC"] {
        let needle = format!("warning: invalid {knob}");
        assert_eq!(
            stderr.matches(needle.as_str()).count(),
            1,
            "{knob} warning must fire exactly once across every observed run: {stderr}"
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
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "fig4 failed: {stderr}");
        (
            out.stdout,
            stderr.matches("warning: invalid SCATTER_RUN_CACHE").count(),
        )
    };
    let (off, off_warnings) = fig4("0");
    let (on, on_warnings) = fig4("1");
    let (garbage, garbage_warnings) = fig4("off");
    assert_eq!((off_warnings, on_warnings, garbage_warnings), (0, 0, 1));
    assert!(!on.is_empty());
    assert_eq!(garbage, on, "stdout must be the figure alone");
    assert_eq!(off, on, "the cache never changes a figure");
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
    let stderr = String::from_utf8_lossy(&out.stderr);

    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let v = trace::json::Value::parse(stdout.trim())
        .expect("stdout must parse as JSON — no warnings may leak into it");
    assert!(
        v.idx(0).and_then(|t| t.get("title")).is_some(),
        "expected a non-empty array of tables"
    );

    assert!(
        stderr.contains("warning: invalid SCATTER_WIRE_DELTA"),
        "stderr missing the SCATTER_WIRE_DELTA warning: {stderr}"
    );
    assert!(
        stderr.contains("warning: invalid SCATTER_WIRE_COMPRESS"),
        "stderr missing the SCATTER_WIRE_COMPRESS warning: {stderr}"
    );
}
