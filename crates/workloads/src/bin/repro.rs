//! `repro` — regenerate every figure of the paper's evaluation.
//!
//! ```text
//! repro <fig5a|fig5b|fig5c|fig5d|fig5e|fig5f|fig6a|fig6b|all>...
//!       [--quick] [--scale F] [--threads 1,2,4,...] [--flush optane|free]
//! ```
//!
//! Output is CSV on stdout, one row per figure point:
//!
//! ```text
//! figure,workload,allocator,threads,metric,value
//! 5a,threadtest,ralloc,4,seconds,0.812
//! ...
//! 6a,gc_stack,ralloc,1,blocks:100001:seconds,0.021
//! ```
//!
//! `--quick` shrinks the workloads to a smoke-test scale; the default
//! scale is sized for a laptop rather than the paper's 40-core testbed.
//! An unknown figure or option prints the usage and exits 2, printing nothing.

use nvm::FlushModel;
use workloads::gcbench::{self, Structure};
use workloads::{
    default_threads, larson, make_allocator, prodcon, shbench, threadtest, vacation, ycsb,
    AllocKind,
};

const FIGURES: [&str; 8] = [
    "fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f", "fig6a", "fig6b",
];

fn usage(code: i32) -> ! {
    eprintln!(
        "usage: repro <fig5a..fig6b|all>... [--quick] [--scale F] \
         [--threads 1,2,4] [--flush optane|free]"
    );
    std::process::exit(code)
}

struct Opts {
    figures: Vec<String>,
    scale: f64,
    threads: Vec<usize>,
    flush: FlushModel,
    capacity: usize,
}

fn parse_args() -> Opts {
    let mut figures = Vec::new();
    let mut scale = 0.25;
    let mut threads = default_threads();
    let mut flush = FlushModel::optane();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => scale = 0.02,
            "--scale" => {
                scale = args.next().expect("--scale F").parse().expect("scale float")
            }
            "--threads" => {
                threads = args
                    .next()
                    .expect("--threads list")
                    .split(',')
                    .map(|s| s.parse().expect("thread count"))
                    .collect()
            }
            "--flush" => {
                flush = match args.next().expect("--flush kind").as_str() {
                    "optane" => FlushModel::optane(),
                    "free" => FlushModel::free(),
                    _ => usage(2),
                }
            }
            "--help" | "-h" => usage(0),
            fig if fig == "all" || FIGURES.contains(&fig) => figures.push(fig.to_string()),
            other => {
                eprintln!("repro: unknown figure or option: {other}");
                usage(2)
            }
        }
    }
    if figures.is_empty() || figures.iter().any(|f| f == "all") {
        figures = FIGURES.map(String::from).to_vec();
    }
    Opts { figures, scale, threads, flush, capacity: 512 << 20 }
}

fn row(figure: &str, workload: &str, alloc: &str, threads: usize, metric: &str, value: f64) {
    println!("{figure},{workload},{alloc},{threads},{metric},{value:.6}");
}

fn main() {
    let o = parse_args();
    println!("figure,workload,allocator,threads,metric,value");
    for fig in &o.figures {
        match fig.as_str() {
            "fig5a" => {
                for &t in &o.threads {
                    for kind in AllocKind::all() {
                        let a = make_allocator(kind, o.capacity, o.flush);
                        let d = threadtest::run(&a, threadtest::Params::scaled(t, o.scale));
                        row("5a", "threadtest", kind.name(), t, "seconds", d.as_secs_f64());
                    }
                }
            }
            "fig5b" => {
                for &t in &o.threads {
                    for kind in AllocKind::all() {
                        let a = make_allocator(kind, o.capacity, o.flush);
                        let d = shbench::run(&a, shbench::Params::scaled(t, o.scale));
                        row("5b", "shbench", kind.name(), t, "seconds", d.as_secs_f64());
                    }
                }
            }
            "fig5c" => {
                for &t in &o.threads {
                    for kind in AllocKind::all() {
                        let a = make_allocator(kind, o.capacity, o.flush);
                        let tput = larson::run(&a, larson::Params::scaled(t, o.scale));
                        row("5c", "larson", kind.name(), t, "mops_per_sec", tput / 1e6);
                    }
                }
            }
            "fig5d" => {
                for &t in &o.threads {
                    for kind in AllocKind::all() {
                        let a = make_allocator(kind, o.capacity, o.flush);
                        let d = prodcon::run(&a, prodcon::Params::scaled(t, o.scale));
                        row("5d", "prodcon", kind.name(), t, "seconds", d.as_secs_f64());
                    }
                }
            }
            "fig5e" => {
                // Persistent allocators only, as in the paper.
                for &t in &o.threads {
                    for kind in AllocKind::persistent() {
                        let a = make_allocator(kind, o.capacity, o.flush);
                        let d = vacation::run(&a, vacation::Params::scaled(t, o.scale));
                        row("5e", "vacation", kind.name(), t, "seconds", d.as_secs_f64());
                    }
                }
            }
            "fig5f" => {
                for &t in &o.threads {
                    for kind in AllocKind::all() {
                        let a = make_allocator(kind, o.capacity, o.flush);
                        let kops = ycsb::run(&a, ycsb::Params::workload_a(t, o.scale));
                        row("5f", "memcached_ycsb_a", kind.name(), t, "kops_per_sec", kops);
                    }
                    // §6.3 also discusses workload B; emit it alongside.
                    for kind in AllocKind::all() {
                        let a = make_allocator(kind, o.capacity, o.flush);
                        let kops = ycsb::run(&a, ycsb::Params::workload_b(t, o.scale));
                        row("5f", "memcached_ycsb_b", kind.name(), t, "kops_per_sec", kops);
                    }
                }
            }
            "fig6a" | "fig6b" => {
                let (structure, name) = if fig == "fig6a" {
                    (Structure::Stack, "gc_stack")
                } else {
                    (Structure::Tree, "gc_tree")
                };
                // Paper sweeps 10^7..5*10^7 reachable blocks; scale down.
                let base = (2_000_000.0 * o.scale) as usize;
                for mult in 1..=5 {
                    let nodes = (base * mult).max(1_000);
                    let point = gcbench::run(structure, nodes);
                    row(
                        if fig == "fig6a" { "6a" } else { "6b" },
                        name,
                        "ralloc",
                        1,
                        &format!("blocks:{}:seconds", point.reachable_blocks),
                        point.recovery_time.as_secs_f64(),
                    );
                }
            }
            _ => unreachable!("parse_args admits only FIGURES"),
        }
    }
}
