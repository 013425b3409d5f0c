//! Running one workload: set-up (repeated, timed), the window or cycle
//! plan, and turning what was measured into named metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ralloc::{Ralloc, SB_SIZE};

use crate::ctx::{Alloc, Ctx, Global, Mode, Plain, Sampled, Sys, Traced};
use crate::json::Json;
use crate::kv::Kv;
use crate::loops::{Churn, FastPath, ProdCon, PRODCON_PEAK_LIVE};
use crate::report::{RunOut, Values, END_TO_END, PER_LAYER};
use crate::restart::{self, Fill};
use crate::span::{self, Calib, Kind, SpanBuf, SpanStats};
use crate::stats::{median, LinHist};
use crate::team::{Shape, Tally, Team, TeamOpts, Window};
use crate::{fatal, new_heap, persistent_cfg, probes, transient_cfg};

/// Everything a run is told from outside.
pub struct Plan {
    pub seed: u64,
    /// Seconds the measured phase should take.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Worker threads: `min(nproc, 2)` unless overridden.
    pub threads: usize,
    /// Where span files and pool files go.
    pub out_dir: PathBuf,
}

/// Sampled-latency windows of an untraced run, and as many windows of the
/// `RallocGlobal` lane where a workload has one.
const EXTRA_WINDOWS: usize = 8;

/// Spans one traced worker may record over a run, and per window.
const SPAN_CAP: usize = 1_200_000;
const SPAN_QUOTA: usize = 100_000;
/// Spans per thread written to the JSONL file (the rest stay in memory
/// and only feed the metrics).
const SPANS_WRITTEN: usize = 100_000;

impl Plan {
    /// How many times set-up is repeated. `setup_s` is the median, and an
    /// untraced loop run measures a share of its windows in each: a heap
    /// and its team keep a speed of their own for as long as they live
    /// (`churn`'s ralloc ÷ transient ratio read 0.92, 0.96 and 1.08 in the
    /// three set-ups of one run), which only more set-ups average out.
    pub fn setups(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }

    /// Length of one throughput window. `--quick` only smoke-tests the
    /// plumbing, so its windows are short.
    pub fn window(&self) -> Duration {
        Duration::from_millis(if self.quick { 50 } else { 150 })
    }

    fn windows(&self) -> usize {
        ((self.seconds / self.window().as_secs_f64()) as usize).max(8)
    }

    /// Window groups of an untraced run, over all its set-ups. A group is
    /// one window each of the ralloc, transient and system teams. What is
    /// left of the time goes to one warm-up window per team and set-up and
    /// to the extra windows (sampled latency, and `RallocGlobal` where
    /// `global`), taken after every [`Plan::extra_stride`]-th group.
    pub fn untraced_groups(&self, global: bool) -> usize {
        if self.quick {
            return 4;
        }
        let extra_lanes = 1 + usize::from(global);
        let spent = self.setups() * (3 + usize::from(global)) + EXTRA_WINDOWS * extra_lanes;
        (self.windows().saturating_sub(spent) / 3).max(self.setups())
    }

    /// Groups between two extra windows, so that a run takes about
    /// [`EXTRA_WINDOWS`] of each kind, spread over its whole length.
    fn extra_stride(&self, groups: usize) -> usize {
        groups.div_ceil(EXTRA_WINDOWS).max(1)
    }

    /// Window groups of a traced run; one group is one window of each
    /// lane (`lanes` of them) plus one traced and one sampled window.
    pub fn traced_groups(&self, lanes: usize) -> usize {
        if self.quick {
            return 2;
        }
        // About a fifth of the time goes to warm-ups and probes.
        (self.windows() * 4 / 5 / (lanes + 2)).max(2)
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("window_ms", Json::Num(self.window().as_millis() as f64)),
            ("seconds", Json::Num(self.seconds)),
            (
                "window_groups",
                Json::Num(self.untraced_groups(false) as f64),
            ),
            ("extra_windows", Json::Num(EXTRA_WINDOWS as f64)),
            ("setups", Json::Num(self.setups() as f64)),
            ("sample_every", Json::Num(crate::ctx::SAMPLE_EVERY as f64)),
            (
                "initial_capacity",
                Json::Num(crate::INITIAL_CAPACITY as f64),
            ),
            ("max_capacity", Json::Num(crate::MAX_CAPACITY as f64)),
            (
                "crash_cycle_capacity",
                Json::Num(restart::CRASH_CAPACITY as f64),
            ),
            (
                "lifecycle_superblocks",
                Json::Num(probes::LIFECYCLE_SBS as f64),
            ),
            ("mode", Json::str("Direct")),
            ("flush_model", Json::str("optane 20/2/80 ns")),
            (
                "transient",
                Json::str("RallocConfig::transient(), same sizes"),
            ),
        ])
    }
}

/// A second ralloc lane of a traced run: the same loop under another
/// thread placement, on a heap of its own.
pub struct Variant<S> {
    shape: S,
    threads: usize,
    /// Per-layer metric that takes the lane's median window rate.
    rate: &'static str,
    /// Per-layer metric that takes `main rate ÷ this lane's rate`.
    scaling: Option<&'static str>,
}

/// A loop workload: how to build its shape on an allocator.
pub trait Loop {
    const NAME: &'static str;
    /// Also run through `RallocGlobal` in the traced run.
    const GLOBAL: bool = false;
    type S: Shape;
    /// Whether every free of this loop (`Some(true)`) or none
    /// (`Some(false)`) must be a remote one. The allocator calls a free
    /// remote when the block's superblock belongs to another *shard*, so
    /// `churn` and `kv` see some without any cross-thread free; nothing
    /// is expected of them.
    const EXPECT_REMOTE: Option<bool> = None;
    /// The traced run's extra placement of this loop, given `threads`
    /// workers for the main one.
    fn variant(&self, _threads: usize) -> Option<Variant<Self::S>> {
        None
    }
    /// Per-layer metrics that only this loop's spans give. `busy_s` is
    /// the Σ of the workers' wall seconds over the traced windows.
    fn span_layers(_st: &SpanStats, _busy_s: f64, _layers: &mut Layers) {}
    /// Build the shape in `alloc`'s heap; returns failed allocations too.
    fn build<A: Alloc>(&self, alloc: &A) -> (Self::S, u64);
    fn teardown<A: Alloc>(&self, _shape: Self::S, _alloc: &A) {}
    /// Operations per worker run during set-up, before anything is timed.
    fn warm_ops(&self) -> u64;
    /// Live payload bytes that exist apart from what windows report.
    fn base_live(&self, _shape: &Self::S) -> u64 {
        0
    }
}

pub struct FastPathLoop;

impl Loop for FastPathLoop {
    const NAME: &'static str = "fastpath";
    const GLOBAL: bool = true;
    const EXPECT_REMOTE: Option<bool> = Some(false);
    type S = FastPath;

    fn build<A: Alloc>(&self, _alloc: &A) -> (FastPath, u64) {
        (FastPath, 0)
    }

    fn warm_ops(&self) -> u64 {
        2_000_000
    }
}

pub struct ChurnLoop(pub u64);

impl Loop for ChurnLoop {
    const NAME: &'static str = "churn";
    type S = Churn;

    fn variant(&self, _threads: usize) -> Option<Variant<Churn>> {
        Some(Variant {
            shape: Churn { seed: self.0 },
            threads: 1,
            rate: "shard.churn_x1_ops_per_s",
            scaling: Some("shard.scaling"),
        })
    }

    fn build<A: Alloc>(&self, _alloc: &A) -> (Churn, u64) {
        (Churn { seed: self.0 }, 0)
    }

    fn warm_ops(&self) -> u64 {
        200_000
    }
}

pub struct ProdConLoop;

impl Loop for ProdConLoop {
    const NAME: &'static str = "prodcon";
    const EXPECT_REMOTE: Option<bool> = Some(true);
    type S = ProdCon;

    fn span_layers(st: &SpanStats, busy_s: f64, layers: &mut Layers) {
        // Worker 0 produces, worker 1 consumes.
        let of = |tid: usize, kind: Kind| {
            let by_tid = st.hist_by_tid.get(tid);
            by_tid.map_or_else(LinHist::default, |h| h[kind as usize].clone())
        };
        let (m, f) = (of(0, Kind::Malloc), of(1, Kind::Free));
        layers.set("remote.malloc_ns_p50", m.quantile(0.5));
        layers.set("remote.malloc_ns_p99", m.quantile(0.99));
        layers.set("remote.free_ns_p50", f.quantile(0.5));
        layers.set("remote.free_ns_p99", f.quantile(0.99));
        let handoff_s = st.hist[Kind::Handoff as usize].sum() as f64 / 1e9;
        layers.set("remote.handoff_share", ratio(handoff_s, busy_s));
    }

    fn variant(&self, threads: usize) -> Option<Variant<ProdCon>> {
        Some(Variant {
            shape: ProdCon::new(true),
            threads,
            rate: "remote.two_cpu_ops_per_s",
            scaling: None,
        })
    }

    fn build<A: Alloc>(&self, _alloc: &A) -> (ProdCon, u64) {
        (ProdCon::new(false), 0)
    }

    fn warm_ops(&self) -> u64 {
        400_000
    }

    fn base_live(&self, _shape: &ProdCon) -> u64 {
        PRODCON_PEAK_LIVE
    }
}

pub struct KvLoop(pub u64);

impl Loop for KvLoop {
    const NAME: &'static str = "kv";
    type S = Kv;

    fn span_layers(st: &SpanStats, _busy_s: f64, layers: &mut Layers) {
        let (get, set) = (&st.hist[Kind::Get as usize], &st.hist[Kind::Set as usize]);
        layers.set("kv.get_ns_p50", get.quantile(0.5));
        layers.set("kv.set_ns_p50", set.quantile(0.5));
        layers.set("kv.set_ns_p99", set.quantile(0.99));
        layers.set("kv.alloc_share", ratio(st.child_ns, st.op_ns));
    }

    fn build<A: Alloc>(&self, alloc: &A) -> (Kv, u64) {
        Kv::load(alloc, self.0)
    }

    fn teardown<A: Alloc>(&self, shape: Kv, alloc: &A) {
        shape.unload(alloc);
    }

    fn warm_ops(&self) -> u64 {
        200_000
    }

    fn base_live(&self, shape: &Kv) -> u64 {
        shape.loaded_bytes
    }
}

/// Counters of the heap and its pool, read by name so a later PR that
/// removes one still compiles (the value then reads as missing).
const HEAP_COUNTERS: [&str; 22] = [
    "cache_fills",
    "cache_fill_blocks",
    "cache_flushes",
    "cache_flushes_blocks",
    "fill_anchor_cas",
    "flush_anchor_cas",
    "sb_carved",
    "heap_grows",
    "desc_grows",
    "sb_scavenged",
    "sb_released",
    "fill_bestfit_probes",
    "partial_pops_home",
    "partial_steals",
    "partial_shard_pushes",
    "remote_free_blocks",
    "remote_anchor_cas",
    "remote_ring_pushes",
    "remote_ring_push_blocks",
    "remote_ring_drain_batches",
    "remote_ring_drain_blocks",
    "remote_ring_overflows",
];

#[derive(Clone, Default)]
pub struct Counters(BTreeMap<&'static str, Option<u64>>);

impl Counters {
    pub fn read(heap: &Ralloc) -> Counters {
        let mut c: BTreeMap<_, _> = HEAP_COUNTERS
            .iter()
            .map(|&n| (n, heap.telemetry().counter_value(n)))
            .collect();
        let p = heap.pool().stats().snapshot();
        c.insert("flush_lines", Some(p.flush_lines));
        c.insert("flush_calls", Some(p.flush_calls));
        c.insert("fences", Some(p.fences));
        c.insert("modeled_ns", Some(p.modeled_ns));
        Counters(c)
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        let diff = |(&n, &now): (&&'static str, &Option<u64>)| {
            (
                n,
                now.zip(earlier.0.get(n).copied().flatten())
                    .map(|(a, b)| a.saturating_sub(b)),
            )
        };
        Counters(self.0.iter().map(diff).collect())
    }

    pub fn add(&mut self, other: &Counters) {
        for (n, v) in &other.0 {
            let slot = self.0.entry(n).or_insert(Some(0));
            *slot = slot.zip(*v).map(|(a, b)| a + b);
        }
    }

    /// A counter's value; NaN when the allocator no longer has it.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .copied()
            .flatten()
            .map_or(f64::NAN, |v| v as f64)
    }

    pub fn to_json(&self) -> Json {
        Json::obj(
            self.0
                .iter()
                .map(|(&n, v)| (n, v.map_or(Json::Null, |v| Json::Num(v as f64)))),
        )
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer values by name; everything not set reads 0.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, v);
    }

    pub fn values(&self) -> Values {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.0.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    }

    /// Counter-derived metrics over `ops` operations with `mallocs`
    /// malloc calls among them.
    pub fn set_from_counters(&mut self, c: &Counters, ops: f64, mallocs: f64) {
        let kop = ops / 1000.0;
        let g = |n| c.get(n);
        self.set("tcache.hit_ratio", 1.0 - ratio(g("cache_fills"), mallocs));
        self.set(
            "tcache.fill_batch",
            ratio(g("cache_fill_blocks"), g("cache_fills")),
        );
        self.set(
            "tcache.flush_batch",
            ratio(g("cache_flushes_blocks"), g("cache_flushes")),
        );
        self.set("heap.fills_per_kop", ratio(g("cache_fills"), kop));
        self.set("heap.flushes_per_kop", ratio(g("cache_flushes"), kop));
        let cas = g("fill_anchor_cas") + g("flush_anchor_cas") + g("remote_anchor_cas");
        self.set("heap.anchor_cas_per_kop", ratio(cas, kop));
        self.set("heap.carves_per_kop", ratio(g("sb_carved"), kop));
        self.set("heap.grows", g("heap_grows") + g("desc_grows"));
        self.set("heap.scavenges_per_kop", ratio(g("sb_scavenged"), kop));
        self.set(
            "heap.bestfit_probes_per_fill",
            ratio(g("fill_bestfit_probes"), g("cache_fills")),
        );
        let pops = g("partial_pops_home") + g("partial_steals");
        self.set("shard.steal_ratio", ratio(g("partial_steals"), pops));
        self.set(
            "shard.pushes_per_kop",
            ratio(g("partial_shard_pushes"), kop),
        );
        self.set(
            "remote.cas_per_free",
            ratio(g("remote_anchor_cas"), g("remote_free_blocks")),
        );
        self.set(
            "remote.ring_push_share",
            ratio(g("remote_ring_push_blocks"), g("remote_free_blocks")),
        );
        self.set(
            "remote.overflows_per_kop",
            ratio(g("remote_ring_overflows"), kop),
        );
        self.set(
            "remote.drain_batch",
            ratio(
                g("remote_ring_drain_blocks"),
                g("remote_ring_drain_batches"),
            ),
        );
        self.set("nvm.flush_lines_per_kop", ratio(g("flush_lines"), kop));
        self.set("nvm.flush_calls_per_kop", ratio(g("flush_calls"), kop));
        self.set("nvm.fences_per_kop", ratio(g("fences"), kop));
        self.set("nvm.modeled_ns_per_op", ratio(g("modeled_ns"), ops));
    }

    /// Span-derived allocator-call latencies.
    pub fn set_from_spans(&mut self, st: &SpanStats) {
        let (m, f) = (
            &st.hist[Kind::Malloc as usize],
            &st.hist[Kind::Free as usize],
        );
        self.set("tcache.malloc_ns_p50", m.quantile(0.5));
        self.set("tcache.free_ns_p50", f.quantile(0.5));
        self.set("heap.malloc_ns_p99", m.quantile(0.99));
        self.set("heap.malloc_ns_p999", m.quantile(0.999));
        self.set("heap.malloc_ns_max", m.max() as f64);
        self.set("heap.free_ns_p99", f.quantile(0.99));
        self.set("heap.free_ns_p999", f.quantile(0.999));
        self.set("heap.free_ns_max", f.max() as f64);
        let mut calls = m.clone();
        calls.merge(f);
        // "Slow" = beyond four fast-path medians; the 100 ns floor keeps
        // the threshold meaningful when the corrected median is ~0.
        let floor = (4.0 * calls.quantile(0.5)).max(100.0);
        self.set("heap.slow_call_share", calls.mass_share_above(floor));
    }
}

/// Cheap probes every traced run takes on its own persistent heap.
fn common_probes(run: &mut Partial, heap: &Ralloc) {
    let block = heap.malloc(64);
    if !block.is_null() {
        let off = block as usize - heap.pool().base() as usize;
        run.layers.set(
            "nvm.persist_line_ns",
            probes::persist_line_ns(heap.pool(), off),
        );
        heap.free(block);
    }
    run.layers
        .set("nvm.persist_line_free_ns", probes::persist_line_free_ns());
    run.layers
        .set("telemetry.snapshot_us", probes::snapshot_us(heap));
}

fn disturbed(w: &Window) -> u64 {
    u64::from(w.cpu_share < 0.9)
}

/// Running totals over a team's windows.
#[derive(Default)]
struct Lane {
    rates: Vec<f64>,
    cpu_shares: Vec<f64>,
    tally: Tally,
    disturbed: u64,
    windows: u64,
    busy_s: f64,
    /// Largest live payload seen at a window's end.
    peak_live: u64,
    live_now: i64,
}

impl Lane {
    /// The lane's team moved to a fresh heap: live bytes start over.
    fn new_heap(&mut self) {
        (self.peak_live, self.live_now) = (0, 0);
    }

    fn take(&mut self, w: &Window, base_live: u64) {
        self.rates.push(w.ops_per_s);
        self.cpu_shares.push(w.cpu_share);
        self.disturbed += disturbed(w);
        self.windows += 1;
        self.busy_s += w.busy_s;
        self.live_now += w.tally.live_delta;
        let live = base_live as i64 + self.live_now + w.tally.peak_live as i64;
        self.peak_live = self.peak_live.max(live.max(0) as u64);
        self.tally.add(&w.tally);
    }
}

fn json_nums(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::num(x)).collect())
}

fn write_spans(plan: &Plan, name: &str, bufs: &[SpanBuf]) -> (usize, String) {
    let path = plan.out_dir.join(format!("spans-{name}.jsonl"));
    let written = std::fs::create_dir_all(&plan.out_dir)
        .and_then(|()| span::write_jsonl(&path, bufs, SPANS_WRITTEN))
        .unwrap_or_else(|e| fatal(&format!("cannot write {}: {e}", path.display())));
    (written, path.display().to_string())
}

/// Run a loop workload end to end: `setups` times build everything, time
/// the set-up of the heap under test, then measure. An untraced run
/// spreads its window groups over all set-ups, so that what one heap's
/// placement in memory happens to cost does not decide the run's medians;
/// a traced run measures in the last set-up only.
pub fn run_loop<W: Loop>(w: &W, plan: &Plan) -> RunOut {
    let calib = span::calibrate();
    let plain = TeamOpts {
        epoch: Instant::now(),
        span_cap: 0,
        clock_ns: calib.inner_ns as u64,
    };
    let spans_on = TeamOpts {
        span_cap: SPAN_CAP,
        ..plain
    };
    let (mut setup_s, mut create_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut untraced = Untraced::default();
    let mut traced = None;
    for k in 0..plan.setups() {
        let trace_now = plan.trace && k + 1 == plan.setups();
        // The comparator lanes are built before the timer starts:
        // `setup_s` is the set-up of the heap under test alone.
        let heap_t = new_heap(transient_cfg());
        let (shape_t, failed_t) = w.build(&heap_t);
        let (shape_s, failed_s) = w.build(&Sys);
        let measures = trace_now || !plan.trace;
        let shape_g = (W::GLOBAL && measures).then(|| w.build(&Global).0);
        let variant = if trace_now {
            w.variant(plan.threads)
                .map(|v| (v, new_heap(persistent_cfg())))
        } else {
            None
        };
        let t0 = Instant::now();
        let heap_r = new_heap(persistent_cfg());
        create_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let (shape_r, failed_r) = w.build(&heap_r);
        failed += failed_r + failed_t + failed_s;
        std::thread::scope(|s| {
            let opts = if trace_now { &spans_on } else { &plain };
            let team_r = Team::spawn(s, &shape_r, &heap_r, plan.threads, opts);
            let mut warm = vec![team_r.fixed(w.warm_ops())];
            setup_s.push(t0.elapsed().as_secs_f64());
            let team_t = Team::spawn(s, &shape_t, &heap_t, plan.threads, &plain);
            let team_s = Team::spawn(s, &shape_s, &Sys, plan.threads, &plain);
            warm.push(team_t.fixed(w.warm_ops()));
            warm.push(team_s.fixed(w.warm_ops()));
            for warm in &warm {
                attempted += warm.tally.attempted;
                failed += warm.tally.failed;
            }
            let team_g = shape_g
                .as_ref()
                .map(|g| Team::spawn(s, g, &Global, plan.threads, &plain));
            let team_v = variant.as_ref().map(|(v, h)| {
                (
                    Team::spawn(s, &v.shape, h, v.threads, &plain),
                    v.rate,
                    v.scaling,
                )
            });
            let lanes = Lanes {
                r: &team_r,
                t: &team_t,
                s: &team_s,
                g: &team_g,
                v: &team_v,
            };
            if trace_now {
                traced = Some(measure_traced(w, plan, &heap_r, &shape_r, &lanes));
            } else if measures {
                untraced.measure(w, plan, &heap_r, &shape_r, &lanes, k);
            }
            for team in team_g.into_iter().chain(team_v.map(|v| v.0)) {
                team.finish();
            }
            let spans = team_r.finish();
            team_t.finish();
            team_s.finish();
            if let Some(run) = &mut traced {
                finish_traced::<W>(run, plan, &spans, calib);
            }
        });
        w.teardown(shape_r, &heap_r);
        w.teardown(shape_t, &heap_t);
        w.teardown(shape_s, &Sys);
        if let Some(shape_g) = shape_g {
            w.teardown(shape_g, &Global);
        }
        if let Some((v, heap_v)) = variant {
            w.teardown(v.shape, &heap_v);
        }
    }
    let mut run = traced.unwrap_or_else(|| untraced.finish::<W>());
    run.attempted += attempted;
    run.failed += failed;
    run.set("setup_s", median(&setup_s));
    run.layers.set("heap.create_ms", median(&create_ms));
    run.detail.push(("setup_s_each", json_nums(&setup_s)));
    run.finish(W::NAME, plan.trace)
}

/// A run being assembled.
struct Partial {
    e2e: Values,
    /// Absolute quantities an untraced run measured along the way, under
    /// their per-layer names: shown and filed, never gated.
    info: Values,
    layers: Layers,
    attempted: u64,
    failed: u64,
    disturbed: u64,
    windows: u64,
    notes: Vec<String>,
    detail: Vec<(&'static str, Json)>,
    /// Σ worker wall seconds of the traced windows (for span shares).
    traced_busy_s: f64,
}

impl Partial {
    fn new() -> Partial {
        Partial {
            e2e: END_TO_END.iter().map(|m| (m.name, 0.0)).collect(),
            info: Vec::new(),
            layers: Layers::default(),
            attempted: 0,
            failed: 0,
            disturbed: 0,
            windows: 0,
            notes: Vec::new(),
            detail: Vec::new(),
            traced_busy_s: 0.0,
        }
    }

    fn set(&mut self, name: &str, v: f64) {
        match self.e2e.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = v,
            None => fatal(&format!("unknown end-to-end metric {name}")),
        }
    }

    fn finish(mut self, workload: &'static str, traced: bool) -> RunOut {
        let fail_ratio = ratio(self.failed as f64, self.attempted as f64);
        if traced {
            self.layers.set("fail_ratio", fail_ratio);
            self.layers.set("disturbed_windows", self.disturbed as f64);
        } else {
            self.info.push(("fail_ratio", fail_ratio));
        }
        let metrics = if traced {
            self.layers.values()
        } else {
            self.e2e
        };
        for (name, _) in metrics.iter().filter(|(_, v)| !v.is_finite()) {
            self.notes.push(format!(
                "{name} could not be measured (a counter is gone or a probe failed)"
            ));
        }
        RunOut {
            workload,
            metrics,
            info: if traced { Vec::new() } else { self.info },
            traced,
            attempted: self.attempted,
            failed: self.failed,
            disturbed_windows: self.disturbed,
            windows: self.windows,
            notes: self.notes,
            detail: Json::obj(self.detail),
        }
    }

    /// Take a pair probe's time as the per-layer metric `name`, and its
    /// null mallocs as failed operations.
    fn take_pairs(&mut self, name: &'static str, pairs: probes::Pairs) {
        self.layers.set(name, pairs.ns);
        self.attempted += pairs.attempted;
        self.failed += pairs.failed;
        if pairs.failed > 0 {
            self.notes.push(format!(
                "{name}: {} of {} mallocs returned null",
                pairs.failed, pairs.attempted
            ));
        }
    }

    fn absorb(&mut self, lane: &Lane) {
        self.attempted += lane.tally.attempted;
        self.failed += lane.tally.failed;
        self.disturbed += lane.disturbed;
        self.windows += lane.windows;
    }
}

/// Note a violated [`Loop::EXPECT_REMOTE`].
fn check_remote<W: Loop>(run: &mut Partial, c: &Counters) {
    let remote = c.get("remote_free_blocks");
    let Some(expect_remote) = W::EXPECT_REMOTE else {
        return;
    };
    if remote.is_finite() && (remote > 0.0) != expect_remote {
        run.notes.push(format!(
            "remote_free_blocks = {remote} on {}, expected {}",
            W::NAME,
            if expect_remote { "> 0" } else { "0" }
        ));
    }
}

/// What the set-ups of an untraced run add up to.
#[derive(Default)]
struct Untraced {
    /// Per group: ralloc ÷ transient and ralloc ÷ system window rates.
    vs_t: Vec<f64>,
    vs_s: Vec<f64>,
    /// Per set-up: space amplification after its last window.
    amps: Vec<f64>,
    /// Per sampled window: p99 of the op latency.
    p99s: Vec<f64>,
    samples: u64,
    r: Lane,
    t: Lane,
    s: Lane,
    g: Lane,
    lat: Lane,
    counters: Counters,
}

impl Untraced {
    /// Set-up `k`'s share of the measurement: a warm-up window per team,
    /// then its share of the run's groups of interleaved (ralloc,
    /// transient, system) windows. Both gated ratios are taken per group
    /// of adjacent windows, so host drift cancels.
    fn measure<W: Loop>(
        &mut self,
        w: &W,
        plan: &Plan,
        heap: &Ralloc,
        shape: &W::S,
        lanes: &Lanes<'_, '_>,
        k: usize,
    ) {
        let groups = plan.untraced_groups(W::GLOBAL);
        // Groups are numbered over the whole run, so that the extra
        // windows fall at an even stride whatever the set-up.
        let share = k * groups / plan.setups()..(k + 1) * groups / plan.setups();
        let base_live = w.base_live(shape);
        let window = plan.window();
        for team in [
            Some(lanes.r),
            Some(lanes.t),
            Some(lanes.s),
            lanes.g.as_ref(),
        ]
        .into_iter()
        .flatten()
        {
            team.window(Mode::Plain, window, 0);
        }
        self.r.new_heap();
        let before = Counters::read(heap);
        for i in share {
            let wr = lanes.r.window(Mode::Plain, window, 0);
            let wt = lanes.t.window(Mode::Plain, window, 0);
            let ws = lanes.s.window(Mode::Plain, window, 0);
            self.vs_t.push(ratio(wr.ops_per_s, wt.ops_per_s));
            self.vs_s.push(ratio(wr.ops_per_s, ws.ops_per_s));
            self.r.take(&wr, base_live);
            self.t.take(&wt, 0);
            self.s.take(&ws, 0);
            if i % plan.extra_stride(groups) != 0 {
                continue;
            }
            let sampled = lanes.r.window(Mode::Sampled, window, 0);
            self.p99s.push(sampled.hist.quantile(0.99));
            self.samples += sampled.hist.count();
            // The sampled window ran on the same heap: its change in
            // live bytes carries over into the next plain window.
            self.r.live_now += sampled.tally.live_delta;
            self.lat.take(&sampled, 0);
            if let Some(team) = lanes.g {
                self.g.take(&team.window(Mode::Plain, window, 0), 0);
            }
        }
        self.counters.add(&Counters::read(heap).since(&before));
        let peak = self.r.peak_live.max(1);
        self.amps
            .push((heap.used_superblocks() * SB_SIZE) as f64 / peak as f64);
    }

    fn finish<W: Loop>(self) -> Partial {
        let mut run = Partial::new();
        run.set("vs_transient", median(&self.vs_t));
        run.set("vs_reference", median(&self.vs_s));
        run.set("space_amp", median(&self.amps));
        for lane in [&self.r, &self.t, &self.s, &self.g, &self.lat] {
            run.absorb(lane);
        }
        check_remote::<W>(&mut run, &self.counters);
        run.info = vec![
            ("ops_per_s", median(&self.r.rates)),
            ("op_p99_ns", median(&self.p99s)),
        ];
        if W::GLOBAL {
            run.info.push(("global_ops_per_s", median(&self.g.rates)));
        }
        run.info.extend([
            ("baseline.transient_ops_per_s", median(&self.t.rates)),
            ("baseline.system_ops_per_s", median(&self.s.rates)),
        ]);
        run.detail = vec![
            ("ops_per_s_windows", json_nums(&self.r.rates)),
            ("cpu_share_windows", json_nums(&self.r.cpu_shares)),
            ("transient_ops_per_s_windows", json_nums(&self.t.rates)),
            ("system_ops_per_s_windows", json_nums(&self.s.rates)),
            ("global_ops_per_s_windows", json_nums(&self.g.rates)),
            ("vs_transient_windows", json_nums(&self.vs_t)),
            ("vs_reference_windows", json_nums(&self.vs_s)),
            ("op_p99_ns_windows", json_nums(&self.p99s)),
            ("op_p99_samples", Json::Num(self.samples as f64)),
            ("space_amp_setups", json_nums(&self.amps)),
            ("counters", self.counters.to_json()),
        ];
        run
    }
}

struct Lanes<'a, 's> {
    r: &'a Team<'s>,
    t: &'a Team<'s>,
    s: &'a Team<'s>,
    g: &'a Option<Team<'s>>,
    /// The variant lane with its rate and scaling metric names.
    v: &'a Option<(Team<'s>, &'static str, Option<&'static str>)>,
}

/// Traced measurement: groups of one untraced and one traced ralloc
/// window plus one window of every reference lane, then the probes.
fn measure_traced<W: Loop>(
    w: &W,
    plan: &Plan,
    heap: &Ralloc,
    shape: &W::S,
    lanes: &Lanes<'_, '_>,
) -> Partial {
    let base_live = w.base_live(shape);
    let team_v = lanes.v.as_ref().map(|v| &v.0);
    let n_lanes = 3 + usize::from(lanes.g.is_some()) + usize::from(team_v.is_some());
    let groups = plan.traced_groups(n_lanes);
    let window = plan.window();
    for team in [
        Some(lanes.r),
        Some(lanes.t),
        Some(lanes.s),
        lanes.g.as_ref(),
        team_v,
    ]
    .into_iter()
    .flatten()
    {
        team.window(Mode::Plain, window, 0);
    }
    let (mut r, mut x, mut t, mut s) = (
        Lane::default(),
        Lane::default(),
        Lane::default(),
        Lane::default(),
    );
    let (mut g, mut v, mut lat) = (Lane::default(), Lane::default(), Lane::default());
    let (mut counters, mut p99s, mut samples) = (Counters::default(), Vec::new(), 0);
    for _ in 0..groups {
        // Counters cover the ralloc team's windows only: the other lanes
        // run on other heaps.
        let before = Counters::read(heap);
        r.take(&lanes.r.window(Mode::Plain, window, 0), base_live);
        x.take(&lanes.r.window(Mode::Traced, window, SPAN_QUOTA), base_live);
        counters.add(&Counters::read(heap).since(&before));
        let sampled = lanes.r.window(Mode::Sampled, window, 0);
        p99s.push(sampled.hist.quantile(0.99));
        samples += sampled.hist.count();
        lat.take(&sampled, base_live);
        t.take(&lanes.t.window(Mode::Plain, window, 0), 0);
        s.take(&lanes.s.window(Mode::Plain, window, 0), 0);
        if let Some(team) = lanes.g {
            g.take(&team.window(Mode::Plain, window, 0), 0);
        }
        if let Some(team) = team_v {
            v.take(&team.window(Mode::Plain, window, 0), 0);
        }
    }
    let mut run = Partial::new();
    let ops = (r.tally.ops + x.tally.ops) as f64;
    let mallocs = (r.tally.mallocs + x.tally.mallocs) as f64;
    run.layers.set_from_counters(&counters, ops, mallocs);
    run.layers.set("ops_per_s", median(&r.rates));
    run.layers.set("op_p99_ns", median(&p99s));
    run.layers
        .set("baseline.transient_ops_per_s", median(&t.rates));
    run.layers
        .set("baseline.system_ops_per_s", median(&s.rates));
    run.layers.set(
        "trace.overhead_ratio",
        ratio(median(&x.rates), median(&r.rates)),
    );
    if lanes.g.is_some() {
        run.layers.set("global_ops_per_s", median(&g.rates));
    }
    if let Some((_, rate, scaling)) = lanes.v {
        run.layers.set(rate, median(&v.rates));
        if let Some(scaling) = scaling {
            run.layers
                .set(scaling, ratio(median(&r.rates), median(&v.rates)));
        }
    }
    common_probes(&mut run, heap);
    if W::GLOBAL {
        let handle = probes::pair_ns(heap, 64, 2_000_000, 5);
        let global = probes::pair_ns(&Global, 64, 2_000_000, 5);
        run.layers
            .set("galloc.shim_ratio", ratio(handle.ns, global.ns));
        run.take_pairs("tcache.pair_ns", handle);
        run.take_pairs("galloc.pair_ns", global);
    }
    // Last: it moves the heap's frontier by 63 MiB.
    run.take_pairs("heap.large_pair_ns", probes::large_pair_ns(heap));
    for lane in [&r, &x, &t, &s, &g, &v, &lat] {
        run.absorb(lane);
    }
    // Traced windows end early by design; they are not host disturbance.
    run.disturbed -= x.disturbed;
    run.traced_busy_s = x.busy_s;
    check_remote::<W>(&mut run, &counters);
    run.detail = vec![
        ("ops_per_s_windows", json_nums(&r.rates)),
        ("traced_ops_per_s_windows", json_nums(&x.rates)),
        ("op_p99_ns_windows", json_nums(&p99s)),
        ("op_p99_samples", Json::Num(samples as f64)),
        ("counters", counters.to_json()),
    ];
    run
}

/// Fold the ralloc team's spans into the traced run and write them out.
fn finish_traced<W: Loop>(run: &mut Partial, plan: &Plan, spans: &[SpanBuf], calib: Calib) {
    let st = span::analyze(spans, calib);
    run.layers.set_from_spans(&st);
    W::span_layers(&st, run.traced_busy_s, &mut run.layers);
    let (written, path) = write_spans(plan, W::NAME, spans);
    run.detail.push((
        "span_calibration_ns",
        json_nums(&[calib.inner_ns, calib.total_ns]),
    ));
    run.detail
        .push(("spans_recorded", Json::Num(st.recorded as f64)));
    run.detail
        .push(("spans_written", Json::Num(written as f64)));
    run.detail.push(("span_file", Json::str(path)));
}

/// A context that times every `malloc` and keeps those across which the
/// heap's frontier counters advanced (single-threaded populate, so the
/// attribution is exact).
struct GrowWatch<'a> {
    heap: &'a Ralloc,
    grows_seen: f64,
    grow_calls_us: Vec<f64>,
}

impl GrowWatch<'_> {
    fn grows(heap: &Ralloc) -> f64 {
        let c = |n| heap.telemetry().counter_value(n).unwrap_or(0) as f64;
        c("heap_grows") + c("desc_grows")
    }
}

impl Ctx for GrowWatch<'_> {
    fn malloc(&mut self, size: usize) -> *mut u8 {
        self.op_malloc(size)
    }

    fn free(&mut self, p: *mut u8, _size: usize) {
        self.heap.free(p)
    }

    fn op<R>(&mut self, _kind: Kind, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }

    fn op_malloc(&mut self, size: usize) -> *mut u8 {
        let t0 = Instant::now();
        let p = self.heap.malloc(size);
        let took = t0.elapsed();
        // A grow commits memory and persists a frontier word; none is
        // faster than this, so only slow calls pay for a counter read.
        if took > Duration::from_nanos(400) {
            let now = Self::grows(self.heap);
            if now > self.grows_seen {
                self.grows_seen = now;
                self.grow_calls_us.push(took.as_secs_f64() * 1e6);
            }
        }
        p
    }

    fn op_free(&mut self, p: *mut u8, _size: usize) {
        self.heap.free(p)
    }

    fn handoff<R>(&mut self, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// How a cycle's populate thread calls the allocator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Via {
    Plain,
    Sampled,
    Traced,
    GrowWatch,
}

/// What comes back from a populate thread besides the counts.
#[derive(Default)]
struct PopulateExtra {
    hist: Option<LinHist>,
    spans: Option<SpanBuf>,
    grow_calls_us: Vec<f64>,
    counters: Counters,
}

fn run_cycle(
    fill: Fill,
    loose: bool,
    workers: usize,
    via: Via,
    calib: Calib,
    epoch: Instant,
) -> (restart::Cycle, PopulateExtra) {
    restart::cycle(fill, loose, workers, move |heap| {
        let before = Counters::read(heap);
        let mut extra = PopulateExtra::default();
        let populated = match via {
            Via::Plain => restart::populate(heap, &mut Plain(heap), fill, loose),
            Via::Sampled => {
                let mut hist = LinHist::default();
                let mut cx = Sampled::new(heap, &mut hist, calib.inner_ns as u64, 0);
                let p = restart::populate(heap, &mut cx, fill, loose);
                extra.hist = Some(hist);
                p
            }
            Via::Traced => {
                let mut buf = SpanBuf::new(0, epoch, SPAN_CAP);
                buf.open_window(SPAN_CAP);
                let p = restart::populate(
                    heap,
                    &mut Traced {
                        alloc: heap,
                        buf: &mut buf,
                    },
                    fill,
                    loose,
                );
                extra.spans = Some(buf);
                p
            }
            Via::GrowWatch => {
                let mut cx = GrowWatch {
                    heap,
                    grows_seen: GrowWatch::grows(heap),
                    grow_calls_us: Vec::new(),
                };
                let p = restart::populate(heap, &mut cx, fill, loose);
                extra.grow_calls_us = cx.grow_calls_us;
                p
            }
        };
        extra.counters = Counters::read(heap).since(&before);
        (populated, extra)
    })
}

/// Mallocs per turn when two heaps are populated in alternation.
const POPULATE_CHUNK: u64 = 8192;

/// One untraced cycle: the persistent heap and a transient twin are
/// populated in alternating chunks on one thread, so their time ratio is
/// taken under the same host conditions; then the persistent heap is
/// recovered. Returns the cycle, the transient counts and the ratio
/// `persistent rate ÷ transient rate`.
fn paired_cycle(workers: usize) -> (restart::Cycle, restart::Populated, f64) {
    let twin = new_heap(transient_cfg());
    let (cycle, transient) = restart::cycle(Fill::Standard, false, workers, |heap| {
        let mut r = restart::Populator::new(heap, Fill::Standard, false);
        let mut t = restart::Populator::new(&twin, Fill::Standard, false);
        loop {
            let more_t = t.step(&mut Plain(&twin), POPULATE_CHUNK);
            let more_r = r.step(&mut Plain(heap), POPULATE_CHUNK);
            if !more_t && !more_r {
                return (r.out, t.out);
            }
        }
    });
    // Same op sequence on both heaps, so the rate ratio is the time ratio.
    let vs = ratio(
        transient.wall.as_secs_f64(),
        cycle.populated.wall.as_secs_f64(),
    );
    (cycle, transient, vs)
}

fn take_verdict(run: &mut Partial, v: &restart::Verdict) {
    run.attempted += v.attempted;
    run.failed += v.failed;
    run.notes.extend(v.notes.iter().cloned());
}

fn take_cycle(run: &mut Partial, c: &restart::Cycle) {
    run.attempted += c.populated.mallocs;
    run.failed += c.populated.failed;
    take_verdict(run, &c.verdict);
}

/// Run the `restart` workload end to end.
pub fn run_restart(plan: &Plan) -> RunOut {
    let calib = span::calibrate();
    let epoch = Instant::now();
    let t = plan.threads;
    let mut run = Partial::new();
    // The correctness-only cycle on a Tracked pool comes first: if
    // unflushed lines survive a crash, nothing after it means anything.
    take_verdict(&mut run, &restart::crash_cycle());
    // Set-up is one whole unmeasured cycle: it brings the host to the
    // state every measured cycle starts from.
    let mut setup_s = Vec::new();
    for _ in 0..plan.setups() {
        let t0 = Instant::now();
        let (c, _) = run_cycle(Fill::Standard, false, t, Via::Plain, calib, epoch);
        setup_s.push(t0.elapsed().as_secs_f64());
        take_cycle(&mut run, &c);
    }
    let began = Instant::now();
    let budget = Duration::from_secs_f64(plan.seconds);
    let mut cycle_s: f64 = 0.0;
    // At least `min` cycles, then as many as fit the budget; `--quick`
    // stops at the minimum.
    let more = |done: usize, cycle_s: f64, min: usize| {
        done < min || (!plan.quick && began.elapsed() + Duration::from_secs_f64(cycle_s) < budget)
    };
    if plan.trace {
        restart_traced(plan, &mut run, calib, epoch, &mut cycle_s, &more);
    } else {
        let min_cycles = if plan.quick { 2 } else { 3 };
        let (mut recover_s, mut vs_t, mut vs_walk, mut amps) = (vec![], vec![], vec![], vec![]);
        let (mut rates, mut rates_t) = (vec![], vec![]);
        let mut i = 0;
        while more(i, cycle_s, min_cycles) {
            let t0 = Instant::now();
            let (c, transient, vs) = paired_cycle(t);
            run.attempted += transient.mallocs;
            run.failed += transient.failed;
            take_cycle(&mut run, &c);
            recover_s.push(c.recover_s);
            rates.push(c.populated.mallocs as f64 / c.populated.wall.as_secs_f64());
            rates_t.push(transient.mallocs as f64 / transient.wall.as_secs_f64());
            vs_t.push(vs);
            vs_walk.push(ratio(c.verdict.walk_s, c.recover_s));
            amps.push(c.space_amp);
            cycle_s = cycle_s.max(t0.elapsed().as_secs_f64());
            i += 1;
        }
        run.set("vs_transient", median(&vs_t));
        run.set("vs_reference", median(&vs_walk));
        run.set("space_amp", median(&amps));
        run.windows = i as u64;
        run.info = vec![
            ("populate_ops_per_s", median(&rates)),
            ("baseline.transient_ops_per_s", median(&rates_t)),
            ("recover_ms", median(&recover_s) * 1e3),
        ];
        run.detail = vec![
            ("recover_s_cycles", json_nums(&recover_s)),
            ("vs_transient_cycles", json_nums(&vs_t)),
            ("vs_reference_cycles", json_nums(&vs_walk)),
        ];
    }
    run.set("setup_s", median(&setup_s));
    run.detail.push(("setup_s_each", json_nums(&setup_s)));
    run.finish("restart", plan.trace)
}

/// The traced `restart` run: cycle kinds in rotation, then the probes.
fn restart_traced(
    plan: &Plan,
    run: &mut Partial,
    calib: Calib,
    epoch: Instant,
    cycle_s: &mut f64,
    more: &dyn Fn(usize, f64, usize) -> bool,
) {
    let t = plan.threads;
    // (fill, conservative roots, recovery workers, populate context)
    let kinds = [
        (Fill::Standard, false, t, Via::Traced),
        (Fill::Standard, false, t, Via::Sampled),
        (Fill::Standard, false, 1, Via::GrowWatch),
        (Fill::MarkHeavy, false, t, Via::Plain),
        (Fill::SweepHeavy, false, t, Via::Plain),
        (Fill::Standard, true, t, Via::Plain),
        (Fill::Standard, false, t, Via::Plain),
        (Fill::Standard, false, 1, Via::Plain),
    ];
    let (mut wn, mut w1, mut mark, mut sweep, mut cons) = (vec![], vec![], vec![], vec![], vec![]);
    let (mut rates, mut first_us, mut grow_us, mut p99s) = (vec![], vec![], vec![], vec![]);
    let mut create_ms = vec![];
    let mut counters = Counters::default();
    let (mut ops, mut last_std, mut traced_rate) = (0.0, None, 0.0);
    let mut spans = Vec::new();
    let mut i = 0;
    while more(i, *cycle_s, kinds.len()) {
        let t0 = Instant::now();
        let (fill, loose, workers, via) = kinds[i % kinds.len()];
        // One traced populate is enough spans; later turns run it plain.
        let via = if via == Via::Traced && !spans.is_empty() {
            Via::Plain
        } else {
            via
        };
        let (c, extra) = run_cycle(fill, loose, workers, via, calib, epoch);
        take_cycle(run, &c);
        create_ms.push(c.create_s * 1e3);
        let ms = c.recover_s * 1e3;
        match (fill, loose, workers) {
            (Fill::MarkHeavy, ..) => mark.push(ms),
            (Fill::SweepHeavy, ..) => sweep.push(ms),
            (_, true, _) => cons.push(ms),
            (_, _, 1) if t > 1 => w1.push(ms),
            _ => wn.push(ms),
        }
        if fill == Fill::Standard && !loose {
            first_us.push(c.verdict.first_malloc_us);
            counters.add(&extra.counters);
            ops += c.populated.mallocs as f64;
            let rate = c.populated.mallocs as f64 / c.populated.wall.as_secs_f64();
            match via {
                Via::Plain => rates.push(rate),
                Via::Traced => traced_rate = rate,
                _ => {}
            }
            last_std = Some((c.stats.clone(), c.used_sbs));
        }
        grow_us.extend(extra.grow_calls_us);
        p99s.extend(extra.hist.map(|h| h.quantile(0.99)));
        spans.extend(extra.spans);
        *cycle_s = cycle_s.max(t0.elapsed().as_secs_f64());
        i += 1;
    }
    let (c, transient, _) = paired_cycle(t);
    take_cycle(run, &c);
    run.attempted += transient.mallocs;
    run.failed += transient.failed;
    let rate_t = transient.mallocs as f64 / transient.wall.as_secs_f64();
    run.windows = i as u64 + 1;
    let l = &mut run.layers;
    // A populate malloc is the op here; every third bulk block is freed.
    l.set_from_counters(&counters, ops, ops);
    if t == 1 {
        w1 = wn.clone();
    }
    l.set("recovery.ms_wn", median(&wn));
    l.set("recovery.ms_w1", median(&w1));
    l.set("recovery.speedup", ratio(median(&w1), median(&wn)));
    l.set("recovery.mark_heavy_ms", median(&mark));
    l.set("recovery.sweep_heavy_ms", median(&sweep));
    l.set("recovery.conservative_ms", median(&cons));
    l.set("recovery.first_malloc_us", median(&first_us));
    l.set("recover_ms", median(&wn));
    l.set("op_p99_ns", median(&p99s));
    l.set("populate_ops_per_s", median(&rates));
    l.set("baseline.transient_ops_per_s", rate_t);
    if let Some((stats, used_sbs)) = last_std {
        // Mark cost per reachable block and sweep cost per superblock,
        // from the two runs that isolate them.
        l.set(
            "recovery.ns_per_reachable_block",
            ratio(median(&mark) * 1e6, restart::ROOTED_NODES as f64),
        );
        l.set(
            "recovery.ns_per_superblock",
            ratio(median(&sweep) * 1e6, used_sbs as f64),
        );
        l.set("recovery.reachable_blocks", stats.reachable_blocks as f64);
        l.set("recovery.free_sb", stats.free_superblocks as f64);
        l.set("recovery.partial_sb", stats.partial_superblocks as f64);
        l.set("recovery.full_sb", stats.full_superblocks as f64);
    }
    l.set("heap.create_ms", median(&create_ms));
    l.set("heap.grow_call_us_p50", median(&grow_us));
    l.set(
        "heap.grow_call_us_max",
        grow_us.iter().copied().fold(0.0, f64::max),
    );
    let st = span::analyze(&spans, calib);
    l.set_from_spans(&st);
    l.set("trace.overhead_ratio", ratio(traced_rate, median(&rates)));
    match probes::lifecycle(&plan.out_dir) {
        Ok(life) => {
            l.set("heap.shrink_ms", life.shrink_ms);
            l.set("heap.shrink_sb_released", life.shrink_sb_released);
            l.set("heap.close_ms", life.close_ms);
            l.set("heap.open_clean_ms", life.open_clean_ms);
            run.notes.extend(life.notes);
        }
        Err(e) => run.notes.push(format!("lifecycle probe failed: {e}")),
    }
    let heap = new_heap(persistent_cfg());
    common_probes(run, &heap);
    run.take_pairs("heap.large_pair_ns", probes::large_pair_ns(&heap));
    let (written, path) = write_spans(plan, "restart", &spans);
    run.detail = vec![
        ("recover_ms_wn_cycles", json_nums(&wn)),
        ("recover_ms_w1_cycles", json_nums(&w1)),
        ("grow_call_us", json_nums(&grow_us)),
        ("counters", counters.to_json()),
        ("spans_recorded", Json::Num(st.recorded as f64)),
        ("spans_written", Json::Num(written as f64)),
        ("span_file", Json::str(path)),
    ];
}

/// Dispatch by workload name.
pub fn run_workload(name: &str, plan: &Plan) -> Option<RunOut> {
    Some(match name {
        "fastpath" => run_loop(&FastPathLoop, plan),
        "churn" => run_loop(&ChurnLoop(plan.seed), plan),
        "prodcon" => run_loop(&ProdConLoop, plan),
        "kv" => run_loop(&KvLoop(plan.seed), plan),
        "restart" => run_restart(plan),
        _ => return None,
    })
}
