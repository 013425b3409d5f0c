//! Metric registry: named counters/gauges/histograms, enumerable by
//! exporters.
//!
//! One [`Registry`] per instrumented component (a heap, a pmem pool):
//! independent instances never share counters, and a registry dies with
//! its owner. Registration takes a lock once per metric name; after
//! that, callers hold a cloned handle and never touch the registry on
//! the hot path. A registry also owns the set of per-thread
//! [`LocalBlock`]s its slotted counters are summed over.

use crate::metrics::{Counter, Gauge, Histogram, LocalBlock, LocalSet};
use parking_lot::Mutex;
use std::sync::Arc;

/// A registered metric, as enumerated by [`Registry::entries`].
#[derive(Clone)]
pub enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Default)]
struct Inner {
    // A Vec, not a map: registries hold tens of metrics and are scanned
    // only at registration and export time; insertion order is the
    // export order, which keeps dumps stable and diffable.
    entries: Mutex<Vec<(&'static str, Metric)>>,
    // The thread blocks of this registry's slotted counters.
    locals: Arc<LocalSet>,
}

/// A named collection of metrics. Cheaply cloneable; clones share state.
#[derive(Clone, Default)]
pub struct Registry(Arc<Inner>);

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The metric under `name`, made from what is already registered if
    /// there is none yet.
    fn get_or_insert(
        &self,
        name: &'static str,
        make: impl FnOnce(&[(&'static str, Metric)]) -> Metric,
    ) -> Metric {
        let mut entries = self.0.entries.lock();
        if let Some((_, m)) = entries.iter().find(|(n, _)| *n == name) {
            return m.clone();
        }
        let m = make(&entries);
        entries.push((name, m.clone()));
        m
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &'static str) -> Counter {
        match self.get_or_insert(name, |_| Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// The counter registered under `name`, creating it on first use
    /// with the next free slot of this registry's [`LocalBlock`]s — slots
    /// go out in registration order, so the `n`-th distinct name gets
    /// slot `n` ([`Counter::slot`]).
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind, or
    /// every slot is taken.
    pub fn slotted_counter(&self, name: &'static str) -> Counter {
        let make = |entries: &[(&'static str, Metric)]| {
            let taken = entries
                .iter()
                .filter(|(_, m)| matches!(m, Metric::Counter(c) if c.slot().is_some()))
                .count();
            Metric::Counter(Counter::with_slot(taken, self.0.locals.clone()))
        };
        match self.get_or_insert(name, make) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// A fresh block of this registry's counter slots for one thread to
    /// count into; it folds itself back when dropped.
    pub fn local_block(&self) -> LocalBlock {
        self.0.locals.block()
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        match self.get_or_insert(name, |_| Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        match self.get_or_insert(name, |_| Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// All registered metrics in registration order.
    pub fn entries(&self) -> Vec<(&'static str, Metric)> {
        self.0.entries.lock().clone()
    }

    /// Convenience: the current value of a registered counter, or `None`
    /// if `name` is unregistered or not a counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.0.entries.lock().iter().find_map(|(n, m)| match m {
            Metric::Counter(c) if *n == name => Some(c.get()),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_returns_same_metric() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        assert_eq!(b.get(), 3, "handles for one name share state");
        assert_eq!(reg.entries().len(), 1);
        assert_eq!(reg.counter_value("x"), Some(3));
        assert_eq!(reg.counter_value("y"), None);
    }

    #[test]
    fn registration_order_is_export_order() {
        let reg = Registry::new();
        reg.counter("b");
        reg.gauge("a");
        reg.histogram("c");
        let names: Vec<_> = reg.entries().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["b", "a", "c"]);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn independent_registries_do_not_share() {
        let r1 = Registry::new();
        let r2 = Registry::new();
        r1.counter("x").add(5);
        assert_eq!(r2.counter("x").get(), 0);
    }
}
