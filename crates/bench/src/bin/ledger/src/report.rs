//! The metric and workload catalogue (mirrored by `BENCHMARK.json`),
//! result files, and the two readers of result files: `compare` and the
//! `--repeat` spread table.

use crate::json::Json;
use crate::stats::{median, rel_iqr};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fastpath",
        why: "64 B malloc/free pairs on a private ring: tcache does all the work, the bypass workload for every slow-path change",
    },
    Workload {
        name: "churn",
        why: "14336 B blocks (4 per superblock) in 64 random slots: every ~5th malloc is a cache fill, so the heap slow path and shard lists dominate",
    },
    Workload {
        name: "prodcon",
        why: "producer hands 1 KiB blocks to a consumer in batches of 64: every free is remote, so rings and cross-shard flushes dominate",
    },
    Workload {
        name: "kv",
        why: "YCSB-A, zipf 0.99, on a 100k-record hash map in the heap (40 MB, beyond cache): allocator calls are a minority of each op",
    },
    Workload {
        name: "restart",
        why: "cold populate to 8192 superblocks, then recover_parallel and verify: recovery/gc do the timed work, nvm flushes are frequent",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "vs_transient",
        unit: "ratio",
        better: Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "vs_reference",
        unit: "ratio",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "space_amp",
        unit: "ratio",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 78] = [
    // tcache
    pl("tcache.hit_ratio", "ratio", Higher),
    pl("tcache.fill_batch", "blocks", Higher),
    pl("tcache.flush_batch", "blocks", Higher),
    pl("tcache.pair_ns", "ns", Lower),
    pl("tcache.malloc_ns_p50", "ns", Lower),
    pl("tcache.free_ns_p50", "ns", Lower),
    // heap slow path
    pl("heap.fills_per_kop", "1/kop", Lower),
    pl("heap.flushes_per_kop", "1/kop", Lower),
    pl("heap.anchor_cas_per_kop", "1/kop", Lower),
    pl("heap.carves_per_kop", "1/kop", Lower),
    pl("heap.grows", "count", Lower),
    pl("heap.scavenges_per_kop", "1/kop", Lower),
    pl("heap.bestfit_probes_per_fill", "ratio", Lower),
    pl("heap.malloc_ns_p99", "ns", Lower),
    pl("heap.malloc_ns_p999", "ns", Lower),
    pl("heap.malloc_ns_max", "ns", Lower),
    pl("heap.free_ns_p99", "ns", Lower),
    pl("heap.free_ns_p999", "ns", Lower),
    pl("heap.free_ns_max", "ns", Lower),
    pl("heap.slow_call_share", "ratio", Lower),
    // heap frontier / lifecycle
    pl("heap.create_ms", "ms", Lower),
    pl("heap.grow_call_us_p50", "us", Lower),
    pl("heap.grow_call_us_max", "us", Lower),
    pl("heap.shrink_ms", "ms", Lower),
    pl("heap.shrink_sb_released", "count", Higher),
    pl("heap.close_ms", "ms", Lower),
    pl("heap.open_clean_ms", "ms", Lower),
    pl("heap.large_pair_ns", "ns", Lower),
    // shard / lists
    pl("shard.steal_ratio", "ratio", Lower),
    pl("shard.pushes_per_kop", "1/kop", Lower),
    pl("shard.churn_x1_ops_per_s", "ops/s", Higher),
    pl("shard.scaling", "ratio", Higher),
    // remote
    pl("remote.cas_per_free", "ratio", Lower),
    pl("remote.ring_push_share", "ratio", Higher),
    pl("remote.overflows_per_kop", "1/kop", Lower),
    pl("remote.drain_batch", "blocks", Higher),
    pl("remote.free_ns_p50", "ns", Lower),
    pl("remote.free_ns_p99", "ns", Lower),
    pl("remote.malloc_ns_p50", "ns", Lower),
    pl("remote.malloc_ns_p99", "ns", Lower),
    pl("remote.handoff_share", "ratio", Lower),
    pl("remote.two_cpu_ops_per_s", "ops/s", Higher),
    // nvm
    pl("nvm.flush_lines_per_kop", "1/kop", Lower),
    pl("nvm.flush_calls_per_kop", "1/kop", Lower),
    pl("nvm.fences_per_kop", "1/kop", Lower),
    pl("nvm.modeled_ns_per_op", "ns", Lower),
    pl("nvm.persist_line_ns", "ns", Lower),
    pl("nvm.persist_line_free_ns", "ns", Lower),
    // recovery / gc
    pl("recovery.ms_w1", "ms", Lower),
    pl("recovery.ms_wn", "ms", Lower),
    pl("recovery.speedup", "ratio", Higher),
    pl("recovery.mark_heavy_ms", "ms", Lower),
    pl("recovery.sweep_heavy_ms", "ms", Lower),
    pl("recovery.ns_per_reachable_block", "ns", Lower),
    pl("recovery.ns_per_superblock", "ns", Lower),
    pl("recovery.reachable_blocks", "count", Higher),
    pl("recovery.free_sb", "count", Higher),
    pl("recovery.partial_sb", "count", Lower),
    pl("recovery.full_sb", "count", Lower),
    pl("recovery.conservative_ms", "ms", Lower),
    pl("recovery.first_malloc_us", "us", Lower),
    // galloc
    pl("galloc.pair_ns", "ns", Lower),
    pl("galloc.shim_ratio", "ratio", Higher),
    // telemetry
    pl("telemetry.snapshot_us", "us", Lower),
    // kv generator
    pl("kv.get_ns_p50", "ns", Lower),
    pl("kv.set_ns_p50", "ns", Lower),
    pl("kv.set_ns_p99", "ns", Lower),
    pl("kv.alloc_share", "ratio", Lower),
    // reference
    pl("baseline.system_ops_per_s", "ops/s", Higher),
    pl("baseline.transient_ops_per_s", "ops/s", Higher),
    pl("trace.overhead_ratio", "ratio", Higher),
    // Absolute end-to-end quantities. They swing with the host (a shared
    // 2-vCPU VM moves them by 10-30 % between quiet and busy minutes) or
    // exist on one workload only, so they are reported here and never
    // gated; 0 where they do not apply.
    pl("ops_per_s", "ops/s", Higher),
    pl("op_p99_ns", "ns", Lower),
    pl("global_ops_per_s", "ops/s", Higher),
    pl("populate_ops_per_s", "ops/s", Higher),
    pl("recover_ms", "ms", Lower),
    pl("fail_ratio", "ratio", Lower),
    pl("disturbed_windows", "count", Lower),
];

/// Named values of one run, in catalogue order.
pub type Values = Vec<(&'static str, f64)>;

/// What one workload run produced.
pub struct RunOut {
    pub workload: &'static str,
    /// End-to-end values (untraced runs) or per-layer values (traced runs).
    pub metrics: Values,
    /// Ungated absolute quantities of an untraced run (throughput,
    /// recovery time), under their per-layer names.
    pub info: Values,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Windows whose CPU share fell below 0.9, and how many were taken.
    pub disturbed_windows: u64,
    pub windows: u64,
    /// Violated expectations that are not operation failures.
    pub notes: Vec<String>,
    /// Free-form detail for the result file (per-window series, counters).
    pub detail: Json,
}

/// What the result line shows for a metric without a value (every real
/// value is ≥ 0); the run's notes say which and why.
pub const UNMEASURED: f64 = -1.0;

/// A metric's unit and direction, from whichever catalogue lists it.
fn meta_of(name: &str) -> (&'static str, Better) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find(|(n, ..)| *n == name)
        .map_or(("", Higher), |(_, unit, better)| (unit, better))
}

impl RunOut {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The benchmark contract's result object: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, every value a number. A metric
    /// that could not be measured reads [`UNMEASURED`], never 0: 0 would be
    /// a perfect score where lower is better.
    pub fn contract_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, v)| {
            let value = Json::Num(if v.is_finite() { v } else { UNMEASURED });
            (
                name,
                Json::obj([("value", value), ("unit", Json::str(meta_of(name).0))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The fuller record kept in result files.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "fail_ratio",
                Json::num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("windows", Json::Num(self.windows as f64)),
            (
                "disturbed_windows",
                Json::Num(self.disturbed_windows as f64),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(n, v)| (n, Json::num(v)))),
            ),
            (
                "info",
                Json::obj(self.info.iter().map(|&(n, v)| (n, Json::num(v)))),
            ),
            ("detail", self.detail.clone()),
        ])
    }

    pub fn print_table(&self) {
        println!(
            "== {} ({}) attempted {} failed {} disturbed windows {}/{}",
            self.workload,
            if self.traced {
                "traced, per-layer"
            } else {
                "end to end"
            },
            self.attempted,
            self.failed,
            self.disturbed_windows,
            self.windows
        );
        for (name, v) in &self.metrics {
            let (unit, better) = meta_of(name);
            println!(
                "  {name:<32} {:>16} {unit:<7} {} is better",
                fmt_value(*v),
                better.name()
            );
        }
        for (name, v) in &self.info {
            println!(
                "  {name:<32} {:>16} {:<7} not gated",
                fmt_value(*v),
                meta_of(name).0
            );
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
    }
}

pub fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if a >= 1e5 || (v.fract() == 0.0 && a < 1e15) {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// A result file: provenance plus one or more sets of workload runs.
pub fn result_file(provenance: Json, sets: &[Vec<RunOut>]) -> Json {
    let sets = sets
        .iter()
        .map(|set| Json::Arr(set.iter().map(RunOut::to_json).collect()))
        .collect();
    Json::obj([
        ("ledger", Json::Num(1.0)),
        ("provenance", provenance),
        ("sets", Json::Arr(sets)),
    ])
}

/// Every value a result file holds for `(workload, metric)`, one per set.
fn series(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    let sets = file.get("sets").and_then(Json::as_arr).unwrap_or(&[]);
    sets.iter()
        .filter_map(Json::as_arr)
        .flatten()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|run| run.get("traced").and_then(Json::as_bool) == Some(false))
        .filter_map(|run| run.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    /// The runs' own spread exceeds the bound, so nothing can be said.
    Unresolved,
}

/// Judge `new` against `base` for a metric: worse or better only beyond
/// the bound, and only when neither side's spread exceeds it.
pub fn judge(m: &EndToEnd, base: &[f64], new: &[f64]) -> (f64, Verdict) {
    let (b, n) = (median(base), median(new));
    let ratio = if b == 0.0 { f64::NAN } else { n / b };
    let noisy = |v: &[f64]| rel_iqr(v).is_some_and(|s| s > m.bound);
    let gain = match m.better {
        Higher => ratio - 1.0,
        Lower => 1.0 - ratio,
    };
    let verdict = if !ratio.is_finite() || noisy(base) || noisy(new) {
        Verdict::Unresolved
    } else if gain < -m.bound {
        Verdict::Worse
    } else if gain > m.bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (ratio, verdict)
}

fn is_quick(file: &Json) -> bool {
    file.get("provenance")
        .and_then(|p| p.get("quick"))
        .and_then(Json::as_bool)
        .unwrap_or(true)
}

/// `ledger compare base.json new.json`: one row per (metric, workload).
/// Returns the number of `worse` rows.
pub fn compare(base: &Json, new: &Json) -> Result<usize, String> {
    if is_quick(base) || is_quick(new) {
        return Err(
            "refusing to compare: a file is from --quick (or carries no provenance)".into(),
        );
    }
    println!(
        "{:<14} {:<10} {:>14} {:>14} {:>8} {:>6}  verdict",
        "metric", "workload", "base", "new", "ratio", "bound"
    );
    let mut worse = 0;
    for m in &END_TO_END {
        for w in &WORKLOADS {
            let (b, n) = (series(base, w.name, m.name), series(new, w.name, m.name));
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let (ratio, verdict) = judge(m, &b, &n);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<14} {:<10} {:>14} {:>14} {:>8.3} {:>6.2}  {}",
                m.name,
                w.name,
                fmt_value(median(&b)),
                fmt_value(median(&n)),
                ratio,
                m.bound,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    Ok(worse)
}

/// The `--repeat N` table: per (metric, workload) min / median / max and
/// the relative IQR, against the bound for the gated metrics. The ungated
/// absolute quantities follow, so their spread is on record too.
pub fn print_spread(sets: &[Vec<RunOut>]) {
    println!(
        "{:<28} {:<10} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "metric", "workload", "min", "median", "max", "rel_iqr", "bound"
    );
    let runs = || sets.iter().flatten().filter(|r| !r.traced);
    let mut info: Vec<&str> = Vec::new();
    for (name, _) in runs().flat_map(|r| &r.info) {
        if !info.contains(name) {
            info.push(name);
        }
    }
    let gated = END_TO_END.iter().map(|m| (m.name, Some(m.bound)));
    for (metric, bound) in gated.chain(info.into_iter().map(|n| (n, None))) {
        for w in &WORKLOADS {
            let vals: Vec<f64> = runs()
                .filter(|r| r.workload == w.name)
                .filter_map(|r| r.metrics.iter().chain(&r.info).find(|(n, _)| *n == metric))
                .map(|&(_, v)| v)
                .collect();
            if vals.is_empty() {
                continue;
            }
            let (lo, hi) = vals
                .iter()
                .fold((f64::MAX, f64::MIN), |(a, b), &v| (a.min(v), b.max(v)));
            let spread = rel_iqr(&vals);
            println!(
                "{:<28} {:<10} {:>14} {:>14} {:>14} {:>8} {:>6}{}",
                metric,
                w.name,
                fmt_value(lo),
                fmt_value(median(&vals)),
                fmt_value(hi),
                spread.map_or("-".into(), |s| format!("{s:.4}")),
                bound.map_or("-".into(), |b| format!("{b:.2}")),
                if spread.zip(bound).is_some_and(|(s, b)| s > b) {
                    "  EXCEEDS"
                } else {
                    ""
                }
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &'static str, metrics: Values) -> RunOut {
        RunOut {
            workload,
            metrics,
            info: vec![],
            traced: false,
            attempted: 10,
            failed: 0,
            disturbed_windows: 0,
            windows: 4,
            notes: vec![],
            detail: Json::Null,
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_flags_missing_values() {
        let out = run(
            "churn",
            vec![("vs_transient", 0.98), ("space_amp", f64::NAN)],
        );
        let line = Json::parse(&out.contract_line().to_string()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
        let m = line.get("metrics").unwrap();
        let vs = m.get("vs_transient").unwrap();
        assert_eq!(vs.as_obj().unwrap().len(), 2);
        assert_eq!(vs.get("value").unwrap().as_f64(), Some(0.98));
        assert_eq!(vs.get("unit").unwrap().as_str(), Some("ratio"));
        assert_eq!(
            m.get("space_amp").unwrap().get("value").unwrap().as_f64(),
            Some(UNMEASURED)
        );
    }

    /// The names the ledger emits are the names `BENCHMARK.json` declares,
    /// with the same units, directions and bounds.
    #[test]
    fn catalogue_equals_benchmark_json() {
        let text = include_str!("../../../../../../BENCHMARK.json");
        let decl = Json::parse(text).expect("BENCHMARK.json parses");
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
        let declared = |key: &str| decl.get(key).and_then(Json::as_arr).unwrap().to_vec();

        let w: Vec<_> = declared("workloads")
            .iter()
            .map(|v| (field(v, "name"), field(v, "why")))
            .collect();
        let ours: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(w, ours);

        let e: Vec<_> = declared("end_to_end")
            .iter()
            .map(|v| {
                (
                    field(v, "name"),
                    field(v, "unit"),
                    field(v, "better"),
                    v.get("bound").unwrap().as_f64(),
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(e, ours);

        let p: Vec<_> = declared("per_layer")
            .iter()
            .map(|v| (field(v, "name"), field(v, "unit"), field(v, "better")))
            .collect();
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                )
            })
            .collect();
        assert_eq!(p, ours);

        let keys: Vec<&str> = decl
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            decl.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS),
            "the default --seconds is the declared run length"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        // The issue's two ratios hold its tenth; nothing exceeds the
        // contract's quarter, and set-up time has the widest bound.
        let bound = |n: &str| END_TO_END.iter().find(|m| m.name == n).unwrap().bound;
        assert!(bound("vs_transient") <= 0.10 && bound("space_amp") <= 0.10);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= bound("setup_s") && m.bound <= 0.25));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn judge_uses_direction_bound_and_spread() {
        let ops = &EndToEnd {
            name: "up",
            unit: "ratio",
            better: Higher,
            bound: 0.10,
        };
        let amp = &EndToEnd {
            name: "down",
            unit: "ratio",
            better: Lower,
            bound: 0.25,
        };
        assert_eq!(judge(ops, &[100.0], &[85.0]).1, Verdict::Worse);
        assert_eq!(judge(ops, &[100.0], &[95.0]).1, Verdict::Within);
        assert_eq!(judge(ops, &[100.0], &[120.0]).1, Verdict::Better);
        assert_eq!(judge(amp, &[100.0], &[130.0]).1, Verdict::Worse);
        assert_eq!(judge(amp, &[100.0], &[70.0]).1, Verdict::Better);
        // A base whose own runs spread wider than the bound resolves nothing.
        let noisy = [60.0, 80.0, 100.0, 120.0, 140.0];
        assert_eq!(judge(ops, &noisy, &[50.0]).1, Verdict::Unresolved);
    }

    #[test]
    fn compare_reads_result_files_and_refuses_quick_ones() {
        let prov = |quick| Json::obj([("quick", Json::Bool(quick))]);
        let base = result_file(
            prov(false),
            &[vec![run("churn", vec![("vs_transient", 1.0)])]],
        );
        let slow = result_file(
            prov(false),
            &[vec![run("churn", vec![("vs_transient", 0.8)])]],
        );
        let base = Json::parse(&base.to_string()).unwrap();
        let slow = Json::parse(&slow.to_string()).unwrap();
        assert_eq!(series(&base, "churn", "vs_transient"), [1.0]);
        assert_eq!(compare(&base, &slow), Ok(1));
        assert_eq!(compare(&base, &base), Ok(0));
        let quick = result_file(
            prov(true),
            &[vec![run("churn", vec![("vs_transient", 1.0)])]],
        );
        assert!(compare(&base, &quick).is_err());
    }
}
