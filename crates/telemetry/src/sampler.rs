//! Background JSONL sampler: the soak-run time series.
//!
//! A sampler owns an output file and a closure producing one JSON object
//! per tick. In background mode a thread fires the closure every
//! interval; in manual mode the owner calls [`SamplerHandle::sample_now`]
//! at its own cadence (per churn round, per benchmark phase). Both
//! append one line per sample — the JSONL format CI and plotting scripts
//! consume.
//!
//! The closure returning `None` ends sampling: samplers hold a `Weak`
//! reference to their subject so a heap that closes underneath its
//! sampler retires the thread instead of keeping the heap alive or
//! crashing it.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The per-tick sample producer. Returns one JSON object (without the
/// trailing newline), or `None` to end sampling.
pub type SampleFn = Box<dyn FnMut() -> Option<String> + Send>;

struct State {
    writer: BufWriter<File>,
    f: SampleFn,
    retired: bool,
}

struct Shared {
    state: Mutex<State>,
    stop: Mutex<bool>,
    wake: Condvar,
}

impl Shared {
    /// Run one tick: produce a sample, append it. Returns `false` once
    /// the producer has retired (now or previously).
    fn tick(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        if st.retired {
            return false;
        }
        match (st.f)() {
            Some(line) => {
                // Telemetry must never take the process down; a full
                // disk loses samples, not the workload.
                let _ = writeln!(st.writer, "{line}");
                let _ = st.writer.flush();
                true
            }
            None => {
                st.retired = true;
                false
            }
        }
    }
}

/// Handle to a JSONL sampler (see module docs). Dropping the handle
/// signals the background thread to stop without joining it — safe even
/// when the drop happens *on* the sampler thread (the closure dropping
/// the last strong reference to its subject). Call [`SamplerHandle::stop`]
/// for a joined, flushed shutdown.
pub struct SamplerHandle {
    shared: Arc<Shared>,
    path: PathBuf,
    thread: Option<JoinHandle<()>>,
}

impl SamplerHandle {
    fn open(path: &Path, f: SampleFn) -> io::Result<(Arc<Shared>, PathBuf)> {
        let file = File::create(path)?;
        Ok((
            Arc::new(Shared {
                state: Mutex::new(State { writer: BufWriter::new(file), f, retired: false }),
                stop: Mutex::new(false),
                wake: Condvar::new(),
            }),
            path.to_path_buf(),
        ))
    }

    /// Start a background sampler appending to `path` every `interval`.
    /// The file is truncated; one sample is taken immediately so even a
    /// short-lived process leaves a first data point.
    pub fn start(
        path: impl AsRef<Path>,
        interval: Duration,
        f: impl FnMut() -> Option<String> + Send + 'static,
    ) -> io::Result<SamplerHandle> {
        let (shared, path) = Self::open(path.as_ref(), Box::new(f))?;
        shared.tick();
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new().name("telemetry-sampler".into()).spawn(move || {
                let mut stopped = shared.stop.lock().unwrap();
                loop {
                    // `_while`: the flag is looked at before sleeping, so
                    // a stop that lands before this thread first runs, or
                    // while it is sampling, is not slept through.
                    let (guard, _timeout) =
                        shared.wake.wait_timeout_while(stopped, interval, |stop| !*stop).unwrap();
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    drop(stopped);
                    if !shared.tick() {
                        return; // producer retired (subject gone)
                    }
                    stopped = shared.stop.lock().unwrap();
                }
            })?
        };
        Ok(SamplerHandle { shared, path, thread: Some(thread) })
    }

    /// A manual sampler: no background thread, samples only on
    /// [`SamplerHandle::sample_now`]. The file is truncated.
    pub fn manual(
        path: impl AsRef<Path>,
        f: impl FnMut() -> Option<String> + Send + 'static,
    ) -> io::Result<SamplerHandle> {
        let (shared, path) = Self::open(path.as_ref(), Box::new(f))?;
        Ok(SamplerHandle { shared, path, thread: None })
    }

    /// Take one sample immediately (from the calling thread). Returns
    /// `false` once the producer has retired.
    pub fn sample_now(&self) -> bool {
        self.shared.tick()
    }

    /// The JSONL file this sampler appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Take a final sample, stop the background thread (if any), and
    /// join it. Idempotent.
    pub fn stop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.shared.tick();
            *self.shared.stop.lock().unwrap() = true;
            self.shared.wake.notify_all();
            let _ = thread.join();
        }
    }
}

impl Drop for SamplerHandle {
    fn drop(&mut self) {
        // Signal only — joining here would deadlock if the handle is
        // dropped on the sampler thread itself.
        *self.shared.stop.lock().unwrap() = true;
        self.shared.wake.notify_all();
        if let Some(thread) = self.thread.take() {
            drop(thread); // detach
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "telemetry_sampler_{}_{}_{}.jsonl",
            tag,
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn manual_sampler_appends_one_line_per_call() {
        let path = temp_path("manual");
        let mut n = 0u64;
        let sampler = SamplerHandle::manual(&path, move || {
            n += 1;
            Some(format!("{{\"tick\": {n}}}"))
        })
        .unwrap();
        for _ in 0..3 {
            assert!(sampler.sample_now());
        }
        let text = std::fs::read_to_string(sampler.path()).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines, ["{\"tick\": 1}", "{\"tick\": 2}", "{\"tick\": 3}"]);
        for line in lines {
            crate::json::parse(line).expect("every sampler line must be valid JSON");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn background_sampler_ticks_and_stops() {
        let path = temp_path("bg");
        let mut n = 0u64;
        let mut sampler = SamplerHandle::start(&path, Duration::from_millis(5), move || {
            n += 1;
            Some(format!("{{\"tick\": {n}}}"))
        })
        .unwrap();
        std::thread::sleep(Duration::from_millis(60));
        sampler.stop();
        sampler.stop(); // idempotent
        let text = std::fs::read_to_string(&path).unwrap();
        let count = text.lines().count();
        assert!(count >= 3, "expected >= 3 samples in 60ms at 5ms cadence, got {count}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retired_producer_ends_sampling() {
        let path = temp_path("retire");
        let mut left = 2u64;
        let sampler = SamplerHandle::manual(&path, move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            Some("{}".into())
        })
        .unwrap();
        assert!(sampler.sample_now());
        assert!(sampler.sample_now());
        assert!(!sampler.sample_now());
        assert!(!sampler.sample_now(), "a retired producer stays retired");
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 2);
        std::fs::remove_file(&path).ok();
    }
}
