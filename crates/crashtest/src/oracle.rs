//! Visibility oracles: decide whether a recovered structure is
//! consistent with the persisted op-log.
//!
//! Two families cover every structure under test:
//!
//! * **Conservation** (queue, stack): values are globally unique
//!   (`tid << 32 | seq`), so the recovered snapshot plus the acked
//!   consumer results must account for every acked producer op exactly
//!   once, with a slack of at most one unrecorded consumption per
//!   in-flight consumer. Per-producer order (FIFO for the queue, LIFO
//!   for the stack) is checked on the surviving values.
//! * **Last-writer maps** (kv, nmtree, rbtree): keys are partitioned by
//!   thread (`tid << 32 | k`), so each thread's log replays to the exact
//!   expected state of its keys; the single possibly-in-flight op makes
//!   exactly one key two-valued (pre- or post-state, at most once).

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::oplog::{LogOp, OpKind, RES_NONE};

/// Check a producer/consumer structure (queue or stack).
///
/// `snapshot` is the recovered structure's content — front-to-back for
/// the queue, top-to-bottom for the stack. `lifo` selects the
/// per-producer order direction the snapshot must honor.
pub fn check_conservation(
    logs: &[Vec<LogOp>],
    snapshot: &[u64],
    lifo: bool,
) -> Result<(), String> {
    let mut produced_acked: HashSet<u64> = HashSet::new();
    let mut produced_inflight: HashSet<u64> = HashSet::new();
    let mut consumed: Vec<u64> = Vec::new();
    let mut consumers_inflight = 0usize;
    for (t, ops) in logs.iter().enumerate() {
        for op in ops {
            match op.kind {
                OpKind::Enqueue | OpKind::Push => {
                    if op.acked {
                        produced_acked.insert(op.a);
                    } else {
                        produced_inflight.insert(op.a);
                    }
                }
                OpKind::Dequeue | OpKind::Pop => {
                    if op.acked {
                        if op.res != RES_NONE {
                            consumed.push(op.res);
                        }
                    } else {
                        consumers_inflight += 1;
                    }
                }
                OpKind::Churn => {}
                other => {
                    return Err(format!("thread {t}: unexpected op {other:?} in \
                                        conservation log"))
                }
            }
        }
    }

    // 1. The snapshot holds no duplicates and only values some producer
    //    actually (or possibly) produced.
    let mut seen = HashSet::new();
    for &v in snapshot {
        if !seen.insert(v) {
            return Err(format!("value {v:#x} appears twice in the snapshot"));
        }
        if !produced_acked.contains(&v) && !produced_inflight.contains(&v) {
            return Err(format!("value {v:#x} in snapshot was never produced"));
        }
    }

    // 2. Acked consumptions are of produced values, at most once each,
    //    and a consumed value cannot still be in the structure.
    let mut consumed_set = HashSet::new();
    for &v in &consumed {
        if !consumed_set.insert(v) {
            return Err(format!("value {v:#x} consumed twice"));
        }
        if !produced_acked.contains(&v) && !produced_inflight.contains(&v) {
            return Err(format!("consumed value {v:#x} was never produced"));
        }
        if seen.contains(&v) {
            return Err(format!("value {v:#x} both consumed and still present"));
        }
    }

    // 3. Exactly-once for acked producers: every acked value is present
    //    or consumed, except at most one per in-flight consumer (which
    //    may have removed a value without acking it).
    let missing: Vec<u64> = produced_acked
        .iter()
        .filter(|v| !seen.contains(v) && !consumed_set.contains(v))
        .copied()
        .collect();
    if missing.len() > consumers_inflight {
        return Err(format!(
            "{} acked-produced values vanished (e.g. {:#x}) but only {} \
             consumers were in flight",
            missing.len(),
            missing[0],
            consumers_inflight
        ));
    }

    // 4. Per-producer order among surviving values: a single producer's
    //    sequence numbers must appear monotonically (increasing for
    //    FIFO front-to-back, decreasing for LIFO top-to-bottom).
    let mut last: HashMap<u64, u64> = HashMap::new();
    for &v in snapshot {
        let (tid, seq) = (v >> 32, v & 0xffff_ffff);
        if let Some(&prev) = last.get(&tid) {
            let ok = if lifo { seq < prev } else { seq > prev };
            if !ok {
                return Err(format!(
                    "producer {tid}: seq {seq} after {prev} violates \
                     {} order",
                    if lifo { "LIFO" } else { "FIFO" }
                ));
            }
        }
        last.insert(tid, seq);
    }
    Ok(())
}

/// Map-structure semantics the replay has to mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapSemantics {
    /// `insert` overwrites an existing key (`PKv::set`, `PRbTree::insert`).
    Upsert,
    /// `insert` fails on an existing key (NmTree).
    InsertIfAbsent,
}

/// Check a key-value structure against the logs.
///
/// `entries` is the recovered structure's full content. Keys are
/// partitioned: key `tid << 32 | k` belongs to thread `tid`, so each
/// thread's sequential log determines its keys' expected values exactly,
/// modulo its one possibly-in-flight op.
pub fn check_map(
    logs: &[Vec<LogOp>],
    entries: &BTreeMap<u64, u64>,
    semantics: MapSemantics,
) -> Result<(), String> {
    // Partition the recovered entries by owning thread.
    let mut actual: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); logs.len()];
    for (&k, &v) in entries {
        let tid = (k >> 32) as usize;
        if tid >= logs.len() {
            return Err(format!("key {k:#x} belongs to no workload thread"));
        }
        actual[tid].insert(k, v);
    }

    for (t, ops) in logs.iter().enumerate() {
        let mut expect: BTreeMap<u64, u64> = BTreeMap::new();
        let mut inflight: Option<(u64, Option<u64>, Option<u64>)> = None; // key, pre, post
        for op in ops {
            let key = op.a;
            if (key >> 32) as usize != t {
                return Err(format!("thread {t} logged foreign key {key:#x}"));
            }
            let pre = expect.get(&key).copied();
            let post = match op.kind {
                OpKind::Insert => match semantics {
                    MapSemantics::Upsert => Some(op.b),
                    MapSemantics::InsertIfAbsent => pre.or(Some(op.b)),
                },
                OpKind::Remove => None,
                other => {
                    return Err(format!("thread {t}: unexpected op {other:?} in map log"))
                }
            };
            if !op.acked {
                // Only the last record can be in flight (read_logs
                // enforced that): either state of this key is legal.
                inflight = Some((key, pre, post));
            } else if let Some(v) = post {
                expect.insert(key, v);
            } else {
                expect.remove(&key);
            }
        }
        // Every key but the in-flight one holds exactly its expected
        // value; the in-flight key is in its pre- or post-state.
        let (if_key, if_pre, if_post) = inflight.unwrap_or((u64::MAX, None, None));
        expect.remove(&if_key);
        let got = actual[t].remove(&if_key);
        for k in expect.keys().chain(actual[t].keys()) {
            match (expect.get(k), actual[t].get(k)) {
                (want, have) if want == have => {}
                (Some(v), None) => {
                    return Err(format!("thread {t} key {k:#x}: acked value {v:#x} missing from structure"))
                }
                (want, have) => {
                    return Err(format!("thread {t} key {k:#x}: acked ops leave {want:x?}, structure has {have:x?}"))
                }
            }
        }
        if if_key != u64::MAX && got != if_pre && got != if_post {
            return Err(format!(
                "thread {t} in-flight key {if_key:#x}: structure has {got:?}, \
                 expected pre {if_pre:?} or post {if_post:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oplog::OpKind;

    fn op(kind: OpKind, a: u64, b: u64, res: u64, acked: bool) -> LogOp {
        LogOp { kind, a, b, res, acked }
    }

    #[test]
    fn conservation_accepts_consistent_history() {
        // Thread 0 enqueued 0,1,2 (acked); thread 1 dequeued value 0.
        let logs = vec![
            vec![
                op(OpKind::Enqueue, 0, 0, 0, true),
                op(OpKind::Enqueue, 1, 0, 0, true),
                op(OpKind::Enqueue, 2, 0, 0, true),
            ],
            vec![op(OpKind::Dequeue, 0, 0, 0, true)],
        ];
        check_conservation(&logs, &[1, 2], false).unwrap();
    }

    #[test]
    fn conservation_rejects_lost_ack() {
        let logs = vec![vec![op(OpKind::Enqueue, 7, 0, 0, true)]];
        let err = check_conservation(&logs, &[], false).unwrap_err();
        assert!(err.contains("vanished"), "{err}");
    }

    #[test]
    fn conservation_allows_inflight_consumer_slack() {
        let logs = vec![
            vec![op(OpKind::Enqueue, 7, 0, 0, true)],
            vec![op(OpKind::Dequeue, 0, 0, RES_NONE, false)],
        ];
        check_conservation(&logs, &[], false).unwrap();
    }

    #[test]
    fn conservation_rejects_duplicate_and_foreign_values() {
        let logs = vec![vec![op(OpKind::Enqueue, 7, 0, 0, true)]];
        assert!(check_conservation(&logs, &[7, 7], false).is_err());
        assert!(check_conservation(&logs, &[9], false).is_err());
    }

    #[test]
    fn conservation_checks_fifo_order() {
        let logs = vec![vec![
            op(OpKind::Enqueue, 1, 0, 0, true),
            op(OpKind::Enqueue, 2, 0, 0, true),
        ]];
        check_conservation(&logs, &[1, 2], false).unwrap();
        assert!(check_conservation(&logs, &[2, 1], false).is_err());
        // Same snapshot is fine for a stack (LIFO top-to-bottom).
        check_conservation(&logs, &[2, 1], true).unwrap();
    }

    #[test]
    fn map_accepts_replayed_history_and_inflight_slack() {
        let k = |t: u64, i: u64| (t << 32) | i;
        let logs = vec![vec![
            op(OpKind::Insert, k(0, 1), 10, 1, true),
            op(OpKind::Insert, k(0, 2), 20, 1, true),
            op(OpKind::Remove, k(0, 1), 0, 10, true),
            op(OpKind::Insert, k(0, 3), 30, RES_NONE, false),
        ]];
        // In-flight insert of key 3: absent...
        let mut m = BTreeMap::new();
        m.insert(k(0, 2), 20);
        check_map(&logs, &m, MapSemantics::Upsert).unwrap();
        // ...or present.
        m.insert(k(0, 3), 30);
        check_map(&logs, &m, MapSemantics::Upsert).unwrap();
        // But never with the wrong value.
        m.insert(k(0, 3), 31);
        assert!(check_map(&logs, &m, MapSemantics::Upsert).is_err());
    }

    #[test]
    fn map_rejects_lost_acked_insert() {
        let k = 5u64; // tid 0, key 5
        let logs = vec![vec![op(OpKind::Insert, k, 50, 1, true)]];
        let err = check_map(&logs, &BTreeMap::new(), MapSemantics::Upsert).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn map_honors_insert_if_absent_semantics() {
        let k = 5u64; // tid 0, key 5
        let logs = vec![vec![
            op(OpKind::Insert, k, 50, 1, true),
            op(OpKind::Insert, k, 60, 0, true), // failed: key existed
        ]];
        let mut m = BTreeMap::new();
        m.insert(k, 50);
        check_map(&logs, &m, MapSemantics::InsertIfAbsent).unwrap();
        // Upsert semantics would require 60.
        assert!(check_map(&logs, &m, MapSemantics::Upsert).is_err());
    }
}
