//! The three micro loops: `fastpath`, `churn`, `prodcon`.
//!
//! Each stresses a different layer on purpose (see README.md):
//! `fastpath` never leaves the thread cache, `churn` hits the heap slow
//! path on every ~5th malloc, `prodcon` makes every free a remote one.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::ctx::{check_signed, maybe_sign, Ctx};
use crate::span::Kind;
use crate::stats::Rng;
use crate::team::{Shape, Tally, Until};

/// Operations between two looks at the stop flag.
const BATCH: u64 = 64;

/// `fastpath`: a private ring of 16 live 64 B blocks; each op frees the
/// oldest and allocates its replacement, so every call is a cache hit.
pub struct FastPath;

pub const FAST_SIZE: usize = 64;
pub const FAST_SLOTS: usize = 16;

pub struct FastState {
    ring: [usize; FAST_SLOTS],
    at: usize,
    n: u64,
}

impl Shape for FastPath {
    type State = FastState;

    fn init<C: Ctx>(&self, cx: &mut C, _tid: usize) -> FastState {
        let mut st = FastState {
            ring: [0; FAST_SLOTS],
            at: 0,
            n: 0,
        };
        for slot in &mut st.ring {
            let p = cx.malloc(FAST_SIZE);
            if !p.is_null() {
                st.n += 1;
                // SAFETY: `p` is a fresh live block of FAST_SIZE ≥ 8 bytes.
                *slot = unsafe { maybe_sign(p, st.n) };
            }
        }
        st
    }

    fn run<C: Ctx>(&self, cx: &mut C, st: &mut FastState, until: &Until<'_>) -> Tally {
        let mut t = Tally {
            peak_live: (FAST_SLOTS * FAST_SIZE) as u64,
            ..Tally::default()
        };
        while !until.done(t.ops) && !cx.exhausted() {
            for _ in 0..BATCH {
                let slot = &mut st.ring[st.at];
                st.at = (st.at + 1) % FAST_SLOTS;
                st.n += 1;
                let n = st.n;
                cx.op(Kind::Pair, |cx| {
                    if *slot != 0 {
                        // SAFETY: a non-zero slot holds a live block from
                        // `maybe_sign`, owned by this thread.
                        let (p, intact) = unsafe { check_signed(*slot) };
                        t.failed += u64::from(!intact);
                        cx.free(p, FAST_SIZE);
                    }
                    let p = cx.malloc(FAST_SIZE);
                    t.failed += u64::from(p.is_null());
                    // SAFETY: `p` is null or a fresh live block ≥ 8 bytes.
                    *slot = if p.is_null() {
                        0
                    } else {
                        unsafe { maybe_sign(p, n) }
                    };
                });
            }
            t.ops += BATCH;
        }
        t.attempted = t.ops;
        t.mallocs = t.ops;
        t
    }

    fn fini<C: Ctx>(&self, cx: &mut C, st: FastState) {
        for slot in st.ring.into_iter().filter(|&s| s != 0) {
            // SAFETY: non-zero slots hold live blocks owned by this thread.
            cx.free(unsafe { check_signed(slot) }.0, FAST_SIZE);
        }
    }
}

/// `churn`: 64 random slots of the largest small class (4 blocks per
/// superblock, bin capacity 4), toggled between empty and full — roughly
/// every fifth malloc is a cache fill.
pub struct Churn {
    pub seed: u64,
}

pub const CHURN_SIZE: usize = 14336;
pub const CHURN_SLOTS: usize = 64;

pub struct ChurnState {
    slots: [usize; CHURN_SLOTS],
    rng: Rng,
    n: u64,
    live: u64,
}

impl Shape for Churn {
    type State = ChurnState;

    fn init<C: Ctx>(&self, _cx: &mut C, tid: usize) -> ChurnState {
        ChurnState {
            slots: [0; CHURN_SLOTS],
            rng: Rng::new(self.seed, tid as u64),
            n: 0,
            live: 0,
        }
    }

    fn run<C: Ctx>(&self, cx: &mut C, st: &mut ChurnState, until: &Until<'_>) -> Tally {
        let mut t = Tally::default();
        let mut peak = st.live;
        // An op is a malloc+free pair; budget and stop are checked per
        // batch of calls, which is about BATCH/2 pairs.
        while !until.done(t.ops) && !cx.exhausted() {
            for _ in 0..BATCH {
                let slot = &mut st.slots[st.rng.next() as usize % CHURN_SLOTS];
                if *slot == 0 {
                    let p = cx.op_malloc(CHURN_SIZE);
                    t.mallocs += 1;
                    if p.is_null() {
                        t.failed += 1;
                        continue;
                    }
                    st.n += 1;
                    // SAFETY: `p` is a fresh live block of CHURN_SIZE bytes.
                    *slot = unsafe { maybe_sign(p, st.n) };
                    st.live += 1;
                    peak = peak.max(st.live);
                } else {
                    // SAFETY: a non-zero slot holds a live block from
                    // `maybe_sign`, owned by this thread.
                    let (p, intact) = unsafe { check_signed(*slot) };
                    t.failed += u64::from(!intact);
                    cx.op_free(p, CHURN_SIZE);
                    *slot = 0;
                    st.live -= 1;
                    t.ops += 1;
                }
            }
            t.attempted += BATCH;
        }
        t.peak_live = peak * CHURN_SIZE as u64;
        t
    }

    fn fini<C: Ctx>(&self, cx: &mut C, st: ChurnState) {
        for slot in st.slots.into_iter().filter(|&s| s != 0) {
            // SAFETY: non-zero slots hold live blocks owned by this thread.
            cx.free(unsafe { check_signed(slot) }.0, CHURN_SIZE);
        }
    }
}

/// `prodcon`: worker 0 allocates 1 KiB blocks and hands them over in
/// batches of 64; worker 1 frees them. The freeing thread never owns the
/// block's superblock, so the whole free stream is remote.
pub struct ProdCon {
    /// Bounded single-producer single-consumer ring of batches. Both
    /// sides poll it (spin, then yield) instead of sleeping on it: a
    /// futex wake-up costs more, and varies more, than the 64 allocator
    /// calls between two hand-offs. Slot words are relaxed atomics —
    /// `tail`'s Release store publishes a written batch to the consumer's
    /// Acquire load, `head`'s Release store hands the slot back.
    slots: Vec<[AtomicUsize; PRODCON_BATCH]>,
    /// Batches consumed so far (written by the consumer only).
    head: AtomicUsize,
    /// Batches produced so far (written by the producer only).
    tail: AtomicUsize,
    /// Give each side a CPU of its own instead of sharing one.
    two_cpus: bool,
}

pub const PRODCON_SIZE: usize = 1024;
pub const PRODCON_BATCH: usize = 64;
/// Deep enough that the live set spans ~34 superblocks: `space_amp`
/// then moves by 3 % per superblock, not by 10 %.
pub const PRODCON_QUEUE: usize = 32;
/// Most blocks alive at once: a full queue plus one batch on each side.
pub const PRODCON_PEAK_LIVE: u64 = ((PRODCON_QUEUE + 2) * PRODCON_BATCH * PRODCON_SIZE) as u64;

type Batch = [usize; PRODCON_BATCH];

pub enum Role {
    Producer { n: u64 },
    Consumer,
}

impl ProdCon {
    pub fn new(two_cpus: bool) -> ProdCon {
        ProdCon {
            two_cpus,
            slots: (0..PRODCON_QUEUE)
                .map(|_| std::array::from_fn(|_| AtomicUsize::new(0)))
                .collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Poll `attempt` until it yields a value or the window stops.
    fn poll<R>(until: &Until<'_>, mut attempt: impl FnMut() -> Option<R>) -> Option<R> {
        loop {
            if let Some(r) = attempt() {
                return Some(r);
            }
            if until.stopped() {
                return None;
            }
            // Yield rather than `spin_loop`: a PAUSE loop makes a
            // hypervisor deschedule the vCPU (pause-loop exiting), which
            // shows up as lost CPU time and unsteady windows; the yield
            // also lets both sides share one CPU where there is only one.
            std::thread::yield_now();
        }
    }

    fn try_push(&self, batch: &Batch) -> Option<()> {
        let tail = self.tail.load(Ordering::Relaxed);
        if tail - self.head.load(Ordering::Acquire) == PRODCON_QUEUE {
            return None;
        }
        for (slot, &word) in self.slots[tail % PRODCON_QUEUE].iter().zip(batch) {
            slot.store(word, Ordering::Relaxed);
        }
        self.tail.store(tail + 1, Ordering::Release);
        Some(())
    }

    fn try_pop(&self) -> Option<Batch> {
        let head = self.head.load(Ordering::Relaxed);
        if head == self.tail.load(Ordering::Acquire) {
            return None;
        }
        let slot = &self.slots[head % PRODCON_QUEUE];
        let batch = std::array::from_fn(|i| slot[i].load(Ordering::Relaxed));
        self.head.store(head + 1, Ordering::Release);
        Some(batch)
    }

    fn push(&self, batch: &Batch, until: &Until<'_>) -> bool {
        Self::poll(until, || self.try_push(batch)).is_some()
    }

    fn pop(&self, until: &Until<'_>) -> Option<Batch> {
        Self::poll(until, || self.try_pop())
    }

    fn free_batch<C: Ctx>(cx: &mut C, batch: &Batch, t: &mut Tally) {
        for &slot in batch.iter().filter(|&&s| s != 0) {
            // SAFETY: queued slots hold live blocks from `maybe_sign`;
            // popping the batch made this thread their only owner.
            let (p, intact) = unsafe { check_signed(slot) };
            t.failed += u64::from(!intact);
            cx.op_free(p, PRODCON_SIZE);
        }
    }
}

impl Shape for ProdCon {
    type State = Role;

    fn threads(&self, _t: usize) -> usize {
        2
    }

    /// By default both sides share one CPU and alternate through
    /// `yield_now`. With a CPU per side each waits for the other, so a
    /// stall of either vCPU stops both: the gated ratios of adjacent
    /// windows then spread 2–6× wider between runs (`vs_transient`
    /// 0.053–0.102 against 0.016–0.028, see README.md), which would set
    /// that metric's bound for every workload. The two-CPU placement,
    /// with its real cross-core traffic, runs as an ungated lane of the
    /// traced run (`remote.two_cpu_ops_per_s`).
    fn cpu_slot(&self, tid: usize) -> usize {
        if self.two_cpus {
            tid
        } else {
            0
        }
    }

    fn init<C: Ctx>(&self, _cx: &mut C, tid: usize) -> Role {
        if tid == 0 {
            Role::Producer { n: 0 }
        } else {
            Role::Consumer
        }
    }

    fn run<C: Ctx>(&self, cx: &mut C, st: &mut Role, until: &Until<'_>) -> Tally {
        let mut t = Tally::default();
        match st {
            Role::Producer { n } => {
                // Counts calls, not ops: throughput is what the consumer
                // completes, so a block is not counted twice.
                while !until.done(t.attempted) && !cx.exhausted() {
                    let mut batch = [0usize; PRODCON_BATCH];
                    for slot in &mut batch {
                        let p = cx.op_malloc(PRODCON_SIZE);
                        if p.is_null() {
                            t.failed += 1;
                            continue;
                        }
                        *n += 1;
                        // SAFETY: `p` is a fresh live block of 1 KiB.
                        *slot = unsafe { maybe_sign(p, *n) };
                    }
                    t.attempted += PRODCON_BATCH as u64;
                    t.mallocs += PRODCON_BATCH as u64;
                    if !cx.handoff(|| self.push(&batch, until)) {
                        // The window ended with the queue full.
                        Self::free_batch(cx, &batch, &mut t);
                    }
                }
            }
            Role::Consumer => {
                while !until.done(t.ops) && !cx.exhausted() {
                    let Some(batch) = cx.handoff(|| self.pop(until)) else {
                        break;
                    };
                    Self::free_batch(cx, &batch, &mut t);
                    t.ops += PRODCON_BATCH as u64;
                    t.attempted += PRODCON_BATCH as u64;
                }
            }
        }
        t
    }

    fn fini<C: Ctx>(&self, cx: &mut C, st: Role) {
        if let Role::Consumer = st {
            let mut t = Tally::default();
            while let Some(batch) = self.try_pop() {
                Self::free_batch(cx, &batch, &mut t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{Mode, Sys};
    use crate::team::{Team, TeamOpts};
    use std::time::{Duration, Instant};

    fn opts() -> TeamOpts {
        TeamOpts {
            epoch: Instant::now(),
            span_cap: 4096,
            clock_ns: 0,
        }
    }

    /// Every shape completes fixed work, survives a plain, a sampled and a
    /// traced window, and reports no failure on a healthy allocator.
    fn exercise<S: Shape>(shape: &S) {
        std::thread::scope(|s| {
            let team = Team::spawn(s, shape, &Sys, 2, &opts());
            let warm = team.fixed(1024);
            assert!(warm.tally.ops >= 1024, "fixed work: {:?}", warm.tally);
            for mode in [Mode::Plain, Mode::Sampled, Mode::Traced] {
                // Long enough that a worker gets the CPU even while the
                // other tests of this binary run beside it.
                let w = team.window(mode, Duration::from_millis(100), 1000);
                assert!(
                    w.tally.ops > 0 && w.ops_per_s > 0.0,
                    "{mode:?}: {:?}",
                    w.tally
                );
                assert_eq!(w.tally.failed, 0);
                assert!(w.tally.attempted >= w.tally.ops);
                assert_eq!(w.hist.count() > 0, mode == Mode::Sampled);
            }
            let spans = team.finish();
            assert!(spans.iter().any(|b| !b.spans().is_empty()));
        });
    }

    #[test]
    fn fastpath_runs_in_every_mode() {
        exercise(&FastPath);
    }

    #[test]
    fn churn_runs_in_every_mode() {
        exercise(&Churn { seed: 3 });
    }

    #[test]
    fn prodcon_runs_in_every_mode_and_drains_its_queue() {
        let shape = ProdCon::new(false);
        exercise(&shape);
        assert!(shape.try_pop().is_none());
    }
}
