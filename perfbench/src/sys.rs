//! Process resource usage and the provenance stamped on every record.

use std::process::Command;

use crate::trace::json_string;

// The benchmark reads CPU time and peak RSS with getrusage(2); the layout below
// is the 64-bit Linux one.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage(2) with the 64-bit Linux struct layout");

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s followed by fourteen `long`s.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit Linux
    // layout, and RUSAGE_SELF is a valid `who`; getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage
}

/// User plus system CPU seconds used so far by every thread of the process,
/// including threads that have exited.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&u.ru_utime) + secs(&u.ru_stime)
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().ru_maxrss as f64 / 1024.0
}

/// The 1-minute load average, if the platform reports one.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Provenance of a record as a JSON object: git revision (`unknown` outside a git
/// checkout), available cores, compiler, load average at start, engine shards,
/// sweep threads and seed.
pub fn provenance(workload: &str, seed: u64, engine_threads: u32, sweep_threads: usize) -> String {
    // Only the working directory's own repository: git would otherwise report
    // whatever repository encloses an exported checkout.
    let rev = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = load_average().map_or("null".to_string(), |l| l.to_string());
    format!(
        "{{\"git_rev\":{},\"nproc\":{nproc},\"rustc\":{},\"loadavg_1m\":{load},\
         \"workload\":{},\"engine_threads\":{engine_threads},\"sweep_threads\":{sweep_threads},\
         \"seed\":{seed}}}",
        json_string(&rev),
        json_string(&rustc),
        json_string(workload),
    )
}
