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
//!
//! **Persist before publish.** A block must be durable before the link
//! that publishes it (paper §4.5). Each structure persists a node or
//! record where it writes it, and every persisted link store and CAS goes
//! through one crate-private primitive: `store_link` and `cas_link`
//! assert that each fresh block the new link publishes is durable
//! ([`ralloc::PersistentAllocator::is_durable`]; only a `Mode::Tracked`
//! pool can say no), panicking with the caller's file and line when one
//! is not, then persist the link word. Their `persist_link` half persists
//! a link word unchecked: one another thread may have stored (the
//! queue's `help_tail`, the tree's tag) or the queue's tail hint, which
//! recovery never follows. `RbTree`'s two persists model Fig. 5e's cost
//! and publish nothing that recovery follows.

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

use ralloc::{AtomicLink, Link, PersistentAllocator};

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

/// The bytes of the `T` at `block`: a fresh block a link publishes.
#[inline]
fn fresh<T>(block: *const T) -> (*const u8, usize) {
    (block.cast(), std::mem::size_of::<T>())
}

/// Store `to` into `link` and persist the word, after asserting that the
/// `fresh` blocks the new link publishes are durable (the crate docs'
/// persist-before-publish rule). The blocks are persisted where they are
/// written, not here: a block is written once but may be linked only
/// after several CAS retries.
#[track_caller]
fn store_link<A: PersistentAllocator>(alloc: &A, link: &AtomicLink<48>, to: Link<48>, fresh: &[(*const u8, usize)]) {
    assert_durable(alloc, fresh);
    link.store(to);
    persist_link(alloc, link);
}

/// [`store_link`] as a CAS from `current`: the word is persisted only if
/// it changed.
#[track_caller]
fn cas_link<A: PersistentAllocator>(
    alloc: &A,
    link: &AtomicLink<48>,
    current: Link<48>,
    new: Link<48>,
    fresh: &[(*const u8, usize)],
) -> Result<Link<48>, Link<48>> {
    assert_durable(alloc, fresh);
    let swapped = link.compare_exchange(current, new);
    if swapped.is_ok() {
        persist_link(alloc, link);
    }
    swapped
}

/// Persist a link word, unchecked: the half of the primitive for a link
/// that another thread may have stored, and for a hint recovery never
/// follows.
fn persist_link<A: PersistentAllocator>(alloc: &A, link: &AtomicLink<48>) {
    alloc.persist((link as *const AtomicLink<48>).cast(), 8);
}

#[track_caller]
fn assert_durable<A: PersistentAllocator>(alloc: &A, fresh: &[(*const u8, usize)]) {
    let site = std::panic::Location::caller();
    for &(at, len) in fresh {
        assert!(alloc.is_durable(at, len), "{site}: a link publishes {len} bytes at {at:p} that are not durable");
    }
}

#[cfg(test)]
/// The watchdog of every `mixed_operations_on_every_thread_*` test: the
/// runs `0..runs` go on a thread of their own, and the test fails unless
/// all of them pass within 5 s. A livelocked structure loops forever
/// instead of failing; its thread cannot be joined, and the test process
/// ends it. A run that panics fails the test with its own payload.
fn runs_within_5s(what: &str, runs: u64, run: impl Fn(u64) -> Result<(), String> + Send + 'static) {
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || tx.send((0..runs).try_for_each(run)));
    match rx.recv_timeout(std::time::Duration::from_secs(5)) {
        Ok(verdict) => {
            runner.join().expect("the runs' thread").expect("the verdict was received");
            verdict.unwrap()
        }
        Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(runner.join().expect_err("no verdict")),
        Err(RecvTimeoutError::Timeout) => panic!("{runs} runs did not finish in 5 s: the {what} livelocked"),
    }
}

/// Join scoped workers, resuming the first one's panic with its own
/// payload (a failed publish check names its site there).
#[cfg(test)]
fn join_all<T>(workers: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    workers.into_iter().map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p))).collect()
}
