//! What the operating system says about this process: on-CPU time, peak
//! resident memory, context switches and UDP counters. Every reader
//! returns `None` when its source is missing, so a host without procfs
//! reports `null`, not a panic.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of every thread of this process, live or
/// exited, in nanoseconds. `/proc/self/stat` has the same quantity in
/// 10 ms ticks, too coarse for a 1.6 s DES pass.
pub fn process_cpu_ns() -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the
    // 64-bit Linux C library expects, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Value in kB of one `Key:   123 kB` line of a `/proc/*/status` text.
fn status_kb(status: &str, key: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix(key))?;
    rest.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set of this process (`VmHWM`), bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status_kb(&status, "VmHWM:").map(|kb| kb * 1024)
}

/// Voluntary + involuntary context switches in one task's status text.
fn status_ctx_switches(status: &str) -> Option<u64> {
    let field = |key: &str| -> Option<u64> {
        let rest = status.lines().find_map(|l| l.strip_prefix(key))?;
        rest.trim().parse().ok()
    };
    Some(field("voluntary_ctxt_switches:")? + field("nonvoluntary_ctxt_switches:")?)
}

/// Context switches summed over the threads alive now. A thread that has
/// exited takes its count with it, so read this before joining.
pub fn ctx_switches() -> Option<u64> {
    let mut total = 0;
    for task in fs::read_dir("/proc/self/task").ok()? {
        // A thread may exit between the listing and the read.
        let Ok(status) = fs::read_to_string(task.ok()?.path().join("status")) else {
            continue;
        };
        total += status_ctx_switches(&status)?;
    }
    Some(total)
}

/// The UDP counters of this network namespace that the runtime moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpCounters {
    pub out_datagrams: u64,
    pub rcvbuf_errors: u64,
}

/// `/proc/net/snmp` gives each protocol as a header line and a value line
/// with the same prefix; columns are matched by name, not by position.
fn parse_snmp_udp(snmp: &str) -> Option<UdpCounters> {
    let mut rows = snmp.lines().filter_map(|l| l.strip_prefix("Udp:"));
    let names: Vec<&str> = rows.next()?.split_whitespace().collect();
    let values: Vec<&str> = rows.next()?.split_whitespace().collect();
    let column = |name: &str| -> Option<u64> {
        values
            .get(names.iter().position(|n| *n == name)?)?
            .parse()
            .ok()
    };
    Some(UdpCounters {
        out_datagrams: column("OutDatagrams")?,
        rcvbuf_errors: column("RcvbufErrors")?,
    })
}

pub fn udp_counters() -> Option<UdpCounters> {
    parse_snmp_udp(&fs::read_to_string("/proc/net/snmp").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tledger\nVmPeak:\t  201234 kB\nVmHWM:\t   43012 kB\n\
        VmRSS:\t   1200 kB\nvoluntary_ctxt_switches:\t41\nnonvoluntary_ctxt_switches:\t7\n";

    #[test]
    fn status_fields_parse_and_absent_fields_are_none() {
        assert_eq!(status_kb(STATUS, "VmHWM:"), Some(43012));
        assert_eq!(status_kb(STATUS, "VmSwap:"), None);
        assert_eq!(status_ctx_switches(STATUS), Some(48));
        assert_eq!(status_ctx_switches("Name:\tx\n"), None);
    }

    #[test]
    fn snmp_columns_are_matched_by_name() {
        let snmp = "Ip: Forwarding DefaultTTL\nIp: 1 64\n\
            Udp: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors SndbufErrors\n\
            Udp: 900 3 2 1000 5 0\nUdpLite: InDatagrams\nUdpLite: 0\n";
        assert_eq!(
            parse_snmp_udp(snmp),
            Some(UdpCounters {
                out_datagrams: 1000,
                rcvbuf_errors: 5
            })
        );
        assert_eq!(parse_snmp_udp("Tcp: a\nTcp: 1\n"), None);
        assert_eq!(parse_snmp_udp("Udp: InDatagrams\nUdp: 1\n"), None);
    }

    #[test]
    fn live_readers_work_on_linux() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let before = process_cpu_ns().expect("process CPU clock");
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_ns().expect("process CPU clock") > before);
        assert!(peak_rss_bytes().expect("VmHWM") > 1 << 20);
        assert!(ctx_switches().is_some());
    }
}
