//! # pds — persistent data structures for the evaluation
//!
//! The paper's experiments run data structures *on top of* the allocators
//! under test (§6.2–§6.4). This crate implements each of them from
//! scratch, one body per shape:
//!
//! | structure | figure | crash harness | paper reference |
//! |---|---|---|---|
//! | [`PQueue`] | Prod-con (Fig. 5d) | `queue`, `churn`, `prodcon` | Michael & Scott, PODC'96 |
//! | [`PKv`] | memcached/YCSB (Fig. 5f) | `kv` | library-mode memcached |
//! | [`PStack`] | recovery (Fig. 6a) | `stack` | Treiber stack |
//! | [`NmTree`] | recovery (Fig. 6b) | `nmtree` | Natarajan & Mittal, PPoPP'14 |
//! | [`RbTree`] | Vacation OLTP (Fig. 5e) | `rbtree`, as [`PRbTree`]'s index | STAMP's red-black trees |
//!
//! `PQueue`, `PKv` and `RbTree` are generic over any
//! [`ralloc::PersistentAllocator`], because the figures that run them
//! compare allocators. Every structure but `RbTree` is **recoverable** on
//! a Ralloc heap: its data lives entirely inside the persistent region,
//! reachable from a registered root, with filter functions
//! ([`ralloc::Trace`] impls) so the recovery GC traces it precisely. Every
//! link is a [`ralloc::Link<48>`](ralloc::Link): the offset of its target
//! from `region_base()`, with an ABA counter or mark bits in its tag where
//! it is CASed, and every link word that threads share is a
//! [`ralloc::AtomicLink<48>`](ralloc::AtomicLink). On a Ralloc heap that is a superblock-region offset, so
//! every structure is position-independent by construction. `RbTree`'s
//! rebalancing rewrites several pointers at once, so [`PRbTree`] makes it
//! recoverable as a persistent op-log in front of a transient index.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

mod nmtree;
mod pkv;
mod pqueue;
mod prbtree;
mod rbtree;
mod stack;

pub use nmtree::{NmNode, NmTree};
pub use pkv::{KvHead, PKv};
pub use pqueue::{PQueue, QueueHead};
pub use prbtree::{PRbTree, TreeLogHead};
pub use rbtree::RbTree;
pub use stack::{PStack, StackHead};

use ralloc::Link;

/// The block `link` names in the region whose first byte is at `base`.
#[inline]
fn block<T>(base: usize, link: Link<48>) -> Option<*mut T> {
    link.target().map(|off| (base + off as usize) as *mut T)
}

/// The target of a link to `block` in the region at `base`: its offset.
/// Always `Some`, the shape [`Link::new`] and [`Link::advance`] take.
#[inline]
fn offset<T>(base: usize, block: *const T) -> Option<u64> {
    Some((block as usize - base) as u64)
}

#[cfg(test)]
/// The watchdog of every `mixed_operations_on_every_thread_*` test: the
/// runs `0..runs` go on a thread of their own, and the test fails unless
/// all of them pass within 5 s. A livelocked structure loops forever
/// instead of failing; its thread cannot be joined, and the test process
/// ends it.
fn runs_within_5s(what: &str, runs: u64, run: impl Fn(u64) -> Result<(), String> + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || tx.send((0..runs).try_for_each(run)));
    match rx.recv_timeout(std::time::Duration::from_secs(5)) {
        Ok(verdict) => {
            runner.join().expect("the runs' thread").expect("the verdict was received");
            verdict.unwrap()
        }
        Err(_) => panic!("{runs} runs did not finish in 5 s: the {what} livelocked"),
    }
}
