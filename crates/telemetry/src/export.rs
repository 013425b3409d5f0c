//! Exporter: a JSON snapshot of any set of registries.
//!
//! It takes a list of `(scope, registry)` pairs so one dump can combine
//! the heap's registry with its pmem pool's; the scope becomes the JSON
//! object key.

use crate::registry::{Metric, Registry};

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// A JSON object with one sub-object per scope; counters and gauges
/// export as numbers, histograms as `{count, sum, mean, p50, p99, p999,
/// buckets: [[upper, count], ...]}`.
pub fn to_json(scopes: &[(&str, &Registry)]) -> String {
    let mut s = String::from("{");
    for (si, (scope, reg)) in scopes.iter().enumerate() {
        if si > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{}\": {{", json_escape(scope)));
        for (mi, (name, metric)) in reg.entries().iter().enumerate() {
            if mi > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": ", json_escape(name)));
            match metric {
                Metric::Counter(c) => s.push_str(&c.get().to_string()),
                Metric::Gauge(g) => s.push_str(&g.get().to_string()),
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let buckets: Vec<String> = snap
                        .nonzero_buckets()
                        .iter()
                        .map(|(upper, n)| format!("[{upper}, {n}]"))
                        .collect();
                    s.push_str(&format!(
                        "{{\"count\": {}, \"sum\": {}, \"mean\": {:.1}, \"p50\": {}, \"p99\": {}, \"p999\": {}, \"buckets\": [{}]}}",
                        snap.count,
                        snap.sum,
                        snap.mean(),
                        snap.p50(),
                        snap.p99(),
                        snap.p999(),
                        buckets.join(", ")
                    ));
                }
            }
        }
        s.push('}');
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("fills").add(42);
        reg.gauge("committed_len").set(1 << 20);
        let h = reg.histogram("malloc_ns");
        for v in [10u64, 20, 30, 1000, 5000] {
            h.observe(v);
        }
        reg
    }

    #[test]
    fn json_round_trips_through_parser() {
        let reg = sample_registry();
        let dump = to_json(&[("heap", &reg)]);
        let v = json::parse(&dump).expect("exporter output must be valid JSON");
        let heap = v.get("heap").expect("scope object");
        assert_eq!(heap.get("fills").and_then(|v| v.as_u64()), Some(42));
        assert_eq!(heap.get("committed_len").and_then(|v| v.as_i64()), Some(1 << 20));
        let hist = heap.get("malloc_ns").expect("histogram object");
        assert_eq!(hist.get("count").and_then(|v| v.as_u64()), Some(5));
        assert_eq!(hist.get("sum").and_then(|v| v.as_u64()), Some(6060));
        assert!(hist.get("p50").and_then(|v| v.as_u64()).unwrap() >= 20);
        assert!(hist.get("buckets").unwrap().as_array().unwrap().len() >= 3);
    }

    #[test]
    fn json_combines_scopes() {
        let r1 = sample_registry();
        let r2 = Registry::new();
        r2.counter("fences").add(7);
        let dump = to_json(&[("heap", &r1), ("pmem", &r2)]);
        let v = json::parse(&dump).unwrap();
        assert!(v.get("heap").is_some());
        assert_eq!(
            v.get("pmem").and_then(|p| p.get("fences")).and_then(|v| v.as_u64()),
            Some(7)
        );
    }
}
