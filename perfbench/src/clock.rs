//! Host clocks and `/proc` readers.
//!
//! End-to-end times are on-CPU seconds, not wall seconds: a neighbouring
//! process on a small VM stretches wall time but barely moves the CPU
//! time a fixed job needs. The CPU clocks come from `clock_gettime`
//! because `/proc/*/schedstat` only advances a *running* thread's counter
//! at scheduler ticks (4 ms at HZ=250), too coarse for per-call spans.
//! `/proc` still supplies what only it has: run-queue wait and peak RSS.

use std::fs;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux CPU clocks with a 64-bit `timespec`");

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on 64-bit Linux, checked above) and both clock
    // ids are fixed Linux constants, so the call only writes into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// On-CPU seconds of the whole process: every thread, live or exited.
#[must_use]
pub fn process_cpu_s() -> f64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID) as f64 * 1e-9
}

/// On-CPU nanoseconds of the calling thread (the span clock).
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Parses one `schedstat` line: `(on-CPU ns, run-queue wait ns)`.
#[must_use]
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    match (fields.next(), fields.next()) {
        (Some(Ok(run)), Some(Ok(wait))) => Some((run, wait)),
        _ => None,
    }
}

/// Run-queue wait summed over the process's live threads, in seconds.
/// Only differences between two readings with the same threads alive
/// are meaningful.
#[must_use]
pub fn sched_wait_s() -> f64 {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut wait_ns = 0u64;
    for task in dir.flatten() {
        if let Some((_, wait)) = fs::read_to_string(task.path().join("schedstat"))
            .ok()
            .as_deref()
            .and_then(parse_schedstat)
        {
            wait_ns += wait;
        }
    }
    wait_ns as f64 * 1e-9
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/*/status`, in KiB.
#[must_use]
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse().ok())
}

/// Peak resident set size of this process so far, in MiB.
///
/// # Errors
///
/// Returns a message if `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| format!("status: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One interval of harness diagnostics: wall time and run-queue wait.
/// Neither feeds an end-to-end metric; a run whose wait is a large share
/// of its wall time was disturbed by a neighbour.
pub struct Diag {
    wall: Instant,
    wait_s: f64,
}

impl Diag {
    /// Starts the interval.
    #[must_use]
    pub fn start() -> Diag {
        Diag {
            wall: Instant::now(),
            wait_s: sched_wait_s(),
        }
    }

    /// `(wall seconds, run-queue wait seconds)` since [`Diag::start`].
    #[must_use]
    pub fn read(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            (sched_wait_s() - self.wait_s).max(0.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_line_parses_run_and_wait() {
        assert_eq!(
            parse_schedstat("5116714223 23147892 1754\n"),
            Some((5_116_714_223, 23_147_892))
        );
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_found_among_status_lines() {
        let status = "Name:\tperfbench\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51_200));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        let own = fs::read_to_string("/proc/thread-self/schedstat").unwrap();
        assert!(parse_schedstat(&own).is_some());
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_ns());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(x != 1);
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_s() > p0);
    }
}
