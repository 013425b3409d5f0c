//! The host side of a result: where it was measured (provenance stamp)
//! and whether the host let the benchmark have its CPUs (CPU-time guard).

use std::process::Command;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::json::Json;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU time (user + system) this process has consumed so far.
pub fn process_cpu_time() -> Duration {
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage`-shaped buffer (144
    // bytes on LP64 Linux, matching the layout above); getrusage only
    // writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return Duration::ZERO;
    }
    let of = |t: &Timeval| {
        Duration::new(
            t.sec.max(0) as u64,
            (t.usec.clamp(0, 999_999) as u32) * 1000,
        )
    };
    of(&ru.utime) + of(&ru.stime)
}

/// CPU set as the kernel's `cpu_set_t` (1024 bits).
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process may run on, in ascending order.
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed; pid 0
    // is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pin the calling worker thread to one CPU, so the scheduler cannot put
/// two workers on one core or migrate them mid-window. Worker 0 takes the
/// highest allowed CPU (CPU 0 serves most interrupts and the driver).
/// Returns false when the host does not allow it; the run goes on unpinned.
pub fn pin_worker(tid: usize) -> bool {
    let cpus = allowed_cpus();
    if cpus.is_empty() {
        return false;
    }
    let cpu = cpus[cpus.len() - 1 - tid % cpus.len()];
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a readable buffer of exactly the size passed; pid 0
    // is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

fn run(cmd: &str, args: &[&str]) -> Option<Vec<u8>> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then_some(out.stdout)
}

fn text(bytes: Vec<u8>) -> String {
    String::from_utf8_lossy(&bytes).trim().to_string()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
    })
}

/// `(rev, dirty, diff hash)`; `("unknown", false, None)` outside a git
/// checkout (the benchmark driver's checkout is a plain directory).
fn git_state() -> (String, bool, Option<String>) {
    let Some(rev) = run("git", &["rev-parse", "--short=12", "HEAD"]).map(text) else {
        return ("unknown".into(), false, None);
    };
    let diff = run("git", &["diff", "HEAD"]).unwrap_or_default();
    let status = run("git", &["status", "--porcelain"]).unwrap_or_default();
    let dirty = !status.is_empty();
    let hash = dirty.then(|| format!("{:016x}", fnv1a(&[diff, status].concat())));
    (rev, dirty, hash)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `YYYY-MM-DDThh:mm:ssZ` from the system clock (civil-from-days).
pub fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    utc_from_unix(secs)
}

fn utc_from_unix(secs: u64) -> String {
    let (days, rem) = ((secs / 86_400) as i64, secs % 86_400);
    // Howard Hinnant's days→civil algorithm, era = 400 years.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// The stamp every result carries. `plan` is the window/cycle plan and
/// heap configuration the run used.
pub fn provenance(seed: u64, threads: usize, quick: bool, plan: Json) -> Json {
    let (rev, dirty, diff_hash) = git_state();
    Json::obj([
        ("git_rev", Json::str(rev)),
        ("dirty", Json::Bool(dirty)),
        ("diff_hash", diff_hash.map_or(Json::Null, Json::str)),
        ("nproc", Json::Num(nproc() as f64)),
        ("threads", Json::Num(threads as f64)),
        ("cpu_model", Json::str(cpu_model())),
        (
            "rustc",
            Json::str(run("rustc", &["-V"]).map_or_else(|| "unknown".into(), text)),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::Num(seed as f64)),
        ("quick", Json::Bool(quick)),
        ("plan", plan),
        ("utc", Json::str(utc_now())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_formats_known_instants() {
        assert_eq!(utc_from_unix(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_from_unix(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_from_unix(1_790_550_245), "2026-09-27T23:04:05Z");
    }

    #[test]
    fn a_pinned_thread_stays_on_one_allowed_cpu() {
        let before = allowed_cpus();
        assert!(!before.is_empty());
        std::thread::spawn(move || {
            if pin_worker(0) {
                assert_eq!(allowed_cpus(), [*before.last().unwrap()]);
            }
        })
        .join()
        .unwrap();
        // Pinning a worker leaves the spawning thread's mask alone.
        assert!(!allowed_cpus().is_empty());
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_time();
        let t0 = std::time::Instant::now();
        let mut x = 1u64;
        while t0.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        assert!(process_cpu_time() > before);
    }

    #[test]
    fn provenance_has_every_stamped_field() {
        let p = provenance(9, 2, true, Json::obj([("windows", Json::Num(4.0))]));
        for key in [
            "git_rev",
            "dirty",
            "diff_hash",
            "nproc",
            "threads",
            "cpu_model",
            "rustc",
            "profile",
            "seed",
            "quick",
            "plan",
            "utc",
        ] {
            assert!(p.get(key).is_some(), "missing {key}");
        }
        assert_eq!(p.get("seed").and_then(Json::as_f64), Some(9.0));
        assert_eq!(p.get("quick").and_then(Json::as_bool), Some(true));
    }
}
