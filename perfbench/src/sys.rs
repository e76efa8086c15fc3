//! Process-level measurements: CPU time, peak resident set, signals.
//!
//! The benchmark reads its own CPU clock through `clock_gettime` and the
//! daemon's through `/proc/<pid>/stat`; peak RSS comes from `VmHWM` in
//! `/proc/<pid>/status`. The libc calls are declared locally, as the
//! serve crate does for `signal(2)`, so the benchmark needs no libc crate.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `SIGTERM`: the daemon's graceful-shutdown signal.
pub const SIGTERM: i32 = 15;
/// `SIGKILL`: for the deadline path, which cannot wait for a graceful stop.
const SIGKILL: i32 = 9;

/// User + system CPU time of this process (all threads).
pub fn self_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Sends `sig` to `pid`; `false` if the process is gone.
pub fn signal(pid: u32, sig: i32) -> bool {
    // SAFETY: kill(2) takes plain integers and touches no memory of ours.
    unsafe { kill(pid as i32, sig) == 0 }
}

/// Kills a child process and waits for it to end, for exit paths that
/// no longer own its `std::process::Child`.
pub fn kill_and_reap(pid: u32) {
    signal(pid, SIGKILL);
    let mut status = 0;
    // SAFETY: `status` is a valid, writable int for the call's duration.
    unsafe { waitpid(pid as i32, &mut status, 0) };
}

/// User + system CPU time of another process, from `/proc/<pid>/stat`
/// (clock ticks, 100 per second on Linux).
pub fn proc_cpu(pid: u32) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, so 11 and
    // 12 after the state field that `rest` starts with.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(Duration::from_millis((utime + stime) * 10))
}

/// Peak resident set (`VmHWM`) of a process in KiB; `"self"` for this one.
pub fn peak_rss_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}
