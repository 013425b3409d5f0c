//! Windowed, closed-loop load: a *team* is the worker threads of one
//! allocator under test. Workers live for the whole measurement and park
//! on a condvar between windows, so teams under comparison can take turns
//! (ralloc, transient, ralloc, …) and host drift hits both alike, while
//! each keeps its warm state (slots, thread caches) across its windows.
//!
//! A window's throughput is Σ over workers of `ops ÷ own wall time`; each
//! worker reads the clock exactly twice per window, outside its loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use crate::ctx::{Alloc, Ctx, Mode, Plain, Sampled, Traced};
use crate::fatal;
use crate::host::{pin_worker, process_cpu_time};
use crate::span::SpanBuf;
use crate::stats::LinHist;

/// What one worker did in one window.
#[derive(Clone, Copy, Default, Debug)]
pub struct Tally {
    /// Completed operations that count toward throughput.
    pub ops: u64,
    /// Allocator-level operations attempted (for the failure ratio).
    pub attempted: u64,
    /// `malloc` calls among them (for the cache hit ratio).
    pub mallocs: u64,
    /// Null mallocs, torn signatures, wrong reads.
    pub failed: u64,
    /// Change in live payload bytes (kv), and the worker's own peak.
    pub live_delta: i64,
    pub peak_live: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.ops += o.ops;
        self.attempted += o.attempted;
        self.mallocs += o.mallocs;
        self.failed += o.failed;
        self.live_delta += o.live_delta;
        self.peak_live += o.peak_live;
    }
}

/// When a worker's loop ends: the window's stop flag, or an op budget
/// (set-up warm-up runs a fixed amount of work, not a fixed time).
pub struct Until<'a> {
    stop: &'a AtomicBool,
    max_ops: u64,
}

impl Until<'_> {
    #[inline]
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn done(&self, ops: u64) -> bool {
        ops >= self.max_ops || self.stopped()
    }
}

/// A workload's per-thread loop. One value is shared by a team's workers
/// and may hold what they share (prodcon's queue, kv's table).
pub trait Shape: Sync {
    type State;
    /// Worker threads this shape needs when `t` are offered.
    fn threads(&self, t: usize) -> usize {
        t
    }
    /// Which CPU slot worker `tid` is pinned to (slot 0 = the highest
    /// allowed CPU). Workers normally get a CPU each.
    fn cpu_slot(&self, tid: usize) -> usize {
        tid
    }
    fn init<C: Ctx>(&self, cx: &mut C, tid: usize) -> Self::State;
    /// Run operations until `until.done(ops)` or `cx.exhausted()`.
    fn run<C: Ctx>(&self, cx: &mut C, st: &mut Self::State, until: &Until<'_>) -> Tally;
    /// Free whatever the state still holds.
    fn fini<C: Ctx>(&self, cx: &mut C, st: Self::State);
}

#[derive(Clone, Copy)]
enum Cmd {
    Run {
        mode: Mode,
        max_ops: u64,
        span_quota: usize,
    },
    Quit,
}

struct Ctl {
    slot: Mutex<(u64, Cmd)>,
    cv: Condvar,
    stop: AtomicBool,
}

impl Ctl {
    fn publish(&self, cmd: Cmd) {
        let mut slot = self.slot.lock().expect("ledger control lock");
        slot.0 += 1;
        slot.1 = cmd;
        self.cv.notify_all();
    }

    fn next(&self, seen: &mut u64) -> Cmd {
        let mut slot = self.slot.lock().expect("ledger control lock");
        while slot.0 == *seen {
            slot = self.cv.wait(slot).expect("ledger control lock");
        }
        *seen = slot.0;
        slot.1
    }
}

struct Out {
    tally: Tally,
    wall: Duration,
    hist: Option<LinHist>,
}

/// One measured window of one team.
pub struct Window {
    pub ops_per_s: f64,
    pub tally: Tally,
    /// Process CPU time ÷ (worker CPUs × wall): below 0.9 the host took
    /// the CPUs away.
    pub cpu_share: f64,
    /// Merged sampled latencies (Sampled windows only).
    pub hist: LinHist,
    /// Σ of the workers' own wall times, in seconds.
    pub busy_s: f64,
}

pub struct TeamOpts {
    pub epoch: Instant,
    /// Span capacity per worker (0 when the run is not traced).
    pub span_cap: usize,
    /// Subtracted from every sampled latency.
    pub clock_ns: u64,
}

pub struct Team<'scope> {
    ctl: Arc<Ctl>,
    rx: Receiver<Out>,
    handles: Vec<ScopedJoinHandle<'scope, SpanBuf>>,
    /// Distinct CPUs the workers are pinned to.
    cpus: usize,
}

impl<'scope> Team<'scope> {
    /// Spawn the workers and wait until each has built its state.
    pub fn spawn<'env, S: Shape, A: Alloc>(
        scope: &'scope Scope<'scope, 'env>,
        shape: &'env S,
        alloc: &'env A,
        threads: usize,
        opts: &TeamOpts,
    ) -> Team<'scope> {
        let ctl = Arc::new(Ctl {
            slot: Mutex::new((0, Cmd::Quit)),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let (tx, rx) = channel();
        let workers = shape.threads(threads);
        let mut slots: Vec<usize> = (0..workers).map(|tid| shape.cpu_slot(tid)).collect();
        slots.sort_unstable();
        slots.dedup();
        let handles = (0..workers)
            .map(|tid| {
                let (ctl, tx) = (ctl.clone(), tx.clone());
                let (epoch, span_cap, clock_ns) = (opts.epoch, opts.span_cap, opts.clock_ns);
                scope.spawn(move || {
                    pin_worker(shape.cpu_slot(tid));
                    let mut hist = LinHist::default();
                    let mut buf = SpanBuf::new(tid, epoch, span_cap);
                    let mut st = shape.init(&mut Plain(alloc), tid);
                    let ready = Out {
                        tally: Tally::default(),
                        wall: Duration::ZERO,
                        hist: None,
                    };
                    let mut seen = 0;
                    let send = |out| {
                        if tx.send(out).is_err() {
                            fatal("ledger driver went away");
                        }
                    };
                    send(ready);
                    loop {
                        let (mode, max_ops, span_quota) = match ctl.next(&mut seen) {
                            Cmd::Quit => {
                                shape.fini(&mut Plain(alloc), st);
                                return buf;
                            }
                            Cmd::Run {
                                mode,
                                max_ops,
                                span_quota,
                            } => (mode, max_ops, span_quota),
                        };
                        let until = Until {
                            stop: &ctl.stop,
                            max_ops,
                        };
                        let t0 = Instant::now();
                        let tally = match mode {
                            Mode::Plain => shape.run(&mut Plain(alloc), &mut st, &until),
                            Mode::Sampled => {
                                let mut cx = Sampled::new(alloc, &mut hist, clock_ns, tid as u64);
                                shape.run(&mut cx, &mut st, &until)
                            }
                            Mode::Traced => {
                                buf.open_window(span_quota);
                                shape.run(
                                    &mut Traced {
                                        alloc,
                                        buf: &mut buf,
                                    },
                                    &mut st,
                                    &until,
                                )
                            }
                        };
                        let wall = t0.elapsed();
                        let hist = (mode == Mode::Sampled).then(|| std::mem::take(&mut hist));
                        send(Out { tally, wall, hist });
                    }
                })
            })
            .collect();
        let team = Team {
            ctl,
            rx,
            handles,
            cpus: slots.len(),
        };
        team.collect();
        team
    }

    fn collect(&self) -> (f64, Tally, LinHist, f64) {
        let (mut rate, mut tally, mut hist) = (0.0, Tally::default(), LinHist::default());
        let mut busy_s = 0.0;
        for _ in 0..self.handles.len() {
            // A worker that died (a panic inside the allocator) never
            // reports; without the timeout the driver would wait forever.
            let Ok(out) = self.rx.recv_timeout(Duration::from_secs(120)) else {
                fatal("a ledger worker stopped reporting (panicked or hung)");
            };
            if out.wall > Duration::ZERO {
                rate += out.tally.ops as f64 / out.wall.as_secs_f64();
                busy_s += out.wall.as_secs_f64();
            }
            tally.add(&out.tally);
            if let Some(h) = &out.hist {
                hist.merge(h);
            }
        }
        (rate, tally, hist, busy_s)
    }

    fn run(&self, mode: Mode, max_ops: u64, span_quota: usize, dur: Option<Duration>) -> Window {
        let (cpu0, t0) = (process_cpu_time(), Instant::now());
        self.ctl.stop.store(false, Ordering::Relaxed);
        self.ctl.publish(Cmd::Run {
            mode,
            max_ops,
            span_quota,
        });
        if let Some(dur) = dur {
            std::thread::sleep(dur);
            self.ctl.stop.store(true, Ordering::Relaxed);
        }
        let (ops_per_s, tally, hist, busy_s) = self.collect();
        let wall = t0.elapsed().as_secs_f64();
        let cpu = process_cpu_time().saturating_sub(cpu0).as_secs_f64();
        let cpu_share = cpu / (self.cpus as f64 * wall);
        Window {
            ops_per_s,
            tally,
            cpu_share,
            hist,
            busy_s,
        }
    }

    /// One window of `dur`. Traced windows may end early, when every
    /// worker has used its `span_quota`.
    pub fn window(&self, mode: Mode, dur: Duration, span_quota: usize) -> Window {
        self.run(mode, u64::MAX, span_quota, Some(dur))
    }

    /// A fixed amount of work per worker (warm-up during set-up).
    pub fn fixed(&self, ops_per_worker: u64) -> Window {
        self.run(Mode::Plain, ops_per_worker, 0, None)
    }

    /// Let the workers free their state and exit; returns their spans.
    pub fn finish(self) -> Vec<SpanBuf> {
        self.ctl.publish(Cmd::Quit);
        self.handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| fatal("a ledger worker panicked"))
            })
            .collect()
    }
}
