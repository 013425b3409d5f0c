//! Background JSONL sampler: the soak-run time series.
//!
//! A sampler owns an output file, a closure producing one JSON object per
//! tick, and a thread that fires the closure every interval and appends
//! the object as one line — the JSONL format CI and plotting scripts
//! consume. The heap's closure is its `telemetry_snapshot()`, so every
//! line carries the snapshot's schema.
//!
//! The closure returning `None` ends sampling: samplers hold a `Weak`
//! reference to their subject so a heap that closes underneath its
//! sampler retires the thread instead of keeping the heap alive or
//! crashing it.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
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
    thread: Option<JoinHandle<()>>,
}

impl SamplerHandle {
    /// Start a background sampler appending to `path` every `interval`.
    /// The file is truncated; one sample is taken immediately so even a
    /// short-lived process leaves a first data point.
    pub fn start(
        path: impl AsRef<Path>,
        interval: Duration,
        f: impl FnMut() -> Option<String> + Send + 'static,
    ) -> io::Result<SamplerHandle> {
        let writer = BufWriter::new(File::create(path)?);
        let shared = Arc::new(Shared {
            state: Mutex::new(State { writer, f: Box::new(f), retired: false }),
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
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
        Ok(SamplerHandle { shared, thread: Some(thread) })
    }

    /// Take a final sample, stop the background thread, and join it.
    /// Idempotent.
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
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
        let lines: Vec<_> = text.lines().collect();
        let count = lines.len();
        assert!(count >= 3, "expected >= 3 samples in 60ms at 5ms cadence, got {count}");
        // One line per tick, in tick order, each valid JSON.
        for (i, line) in lines.iter().enumerate() {
            let v = crate::json::parse(line).expect("every sampler line must be valid JSON");
            assert_eq!(v.get("tick").and_then(|t| t.as_u64()), Some(i as u64 + 1), "{text}");
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "a stopped sampler wrote on");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retired_producer_ends_sampling() {
        let path = temp_path("retire");
        let calls = Arc::new(AtomicU64::new(0));
        let mut sampler = SamplerHandle::start(&path, Duration::from_millis(1), {
            let calls = calls.clone();
            // Two samples, then retire.
            move || (calls.fetch_add(1, Ordering::Relaxed) < 2).then(|| "{}".to_string())
        })
        .unwrap();
        let t0 = std::time::Instant::now();
        while calls.load(Ordering::Relaxed) < 3 {
            assert!(t0.elapsed() < Duration::from_secs(10), "the producer never retired");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Many intervals later, and through the final sample `stop` takes.
        std::thread::sleep(Duration::from_millis(20));
        sampler.stop();
        assert_eq!(calls.load(Ordering::Relaxed), 3, "a retired producer is never called again");
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 2);
        std::fs::remove_file(&path).ok();
    }
}
