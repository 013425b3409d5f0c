//! Background JSONL sampler: the soak-run time series.
//!
//! A sampler is a thread that owns an output file and a closure producing
//! one JSON object per tick: it fires the closure every interval and
//! appends the object as one line — the JSONL format CI and plotting
//! scripts consume. The heap's closure is its `telemetry_snapshot()`, so
//! every line carries the snapshot's schema.
//!
//! The handle keeps only the sending end of a channel and the thread's
//! join handle, so the sampler's state passes between threads through
//! spawn and join alone. The thread waits on the channel for one interval
//! per tick: a message asks for one final sample, a dropped sender (the
//! handle dropped, possibly on the sampler thread itself) ends the thread
//! at once.
//!
//! The closure returning `None` ends sampling: samplers hold a `Weak`
//! reference to their subject so a heap that closes underneath its
//! sampler retires the thread instead of keeping the heap alive or
//! crashing it. A retired closure is never called again.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// Append one sample to `out`. Returns `false` once the producer retires.
fn sample(f: &mut impl FnMut() -> Option<String>, out: &mut BufWriter<File>) -> bool {
    let Some(line) = f() else { return false };
    // Telemetry must never take the process down; a full disk loses
    // samples, not the workload.
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
    true
}

/// Handle to a JSONL sampler (see module docs). Dropping the handle ends
/// the background thread without joining it — safe even when the drop
/// happens *on* the sampler thread (the closure dropping the last strong
/// reference to its subject). Call [`SamplerHandle::stop`] for a final
/// sample and a joined shutdown.
pub struct SamplerHandle {
    stop: Sender<()>,
    thread: Option<JoinHandle<()>>,
}

impl SamplerHandle {
    /// Start a background sampler appending to `path` every `interval`.
    /// The file is truncated; one sample is taken immediately so even a
    /// short-lived process leaves a first data point.
    pub fn start(
        path: impl AsRef<Path>,
        interval: Duration,
        mut f: impl FnMut() -> Option<String> + Send + 'static,
    ) -> io::Result<SamplerHandle> {
        let mut out = BufWriter::new(File::create(path)?);
        let mut live = sample(&mut f, &mut out);
        let (stop, stopped) = mpsc::channel();
        let thread = std::thread::Builder::new().name("telemetry-sampler".into()).spawn(move || {
            while live {
                live = match stopped.recv_timeout(interval) {
                    Err(RecvTimeoutError::Timeout) => sample(&mut f, &mut out),
                    Ok(()) => {
                        sample(&mut f, &mut out);
                        false
                    }
                    Err(RecvTimeoutError::Disconnected) => false,
                };
            }
        })?;
        Ok(SamplerHandle { stop, thread: Some(thread) })
    }

    /// Take a final sample, stop the background thread, and join it.
    /// Idempotent; a retired producer takes no final sample.
    pub fn stop(&mut self) {
        if let Some(thread) = self.thread.take() {
            // Fails only when the thread has already returned (retired).
            let _ = self.stop.send(());
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

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
