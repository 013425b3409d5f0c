//! # baselines — comparison allocators for the evaluation (paper §6.1)
//!
//! The paper compares Ralloc against four allocators. Two of them are
//! reproduced faithfully by construction elsewhere:
//!
//! * **LRMalloc** = `Ralloc` in transient mode (`RallocConfig::transient()`),
//!   exactly the paper's "Ralloc without flush and fence".
//! * **JEMalloc** → [`SystemAlloc`], the process allocator, standing in as
//!   the well-tuned transient reference point.
//!
//! The other two are closed or C-bound systems that we re-implement as
//! *cost-faithful simulations* on the same [`nvm::PmemPool`] substrate:
//!
//! * [`MakaluSim`] models HPE's Makalu (Bhandari et al., OOPSLA'16): a
//!   lock-based persistent allocator derived from the Boehm GC heap.
//!   Its defining costs, which the paper's §6.2 attributes the ~10× gap
//!   to, are (a) an eagerly persisted per-block allocation header on
//!   **every** alloc/free (flush + fence), and (b) a central,
//!   mutex-protected pool per size class refilled/drained by thread-local
//!   buffers that return only **half** their contents when over-full
//!   (§6.3 credits this policy for Makalu's memcached locality edge).
//! * [`PmdkSim`] models Intel PMDK's `libpmemobj` allocator: a
//!   `malloc_to`/`free_from` interface where every operation writes a
//!   redo-log entry, persists it, applies the allocation (persistent free
//!   list + per-block header + destination pointer, each persisted), and
//!   retires the log — several fenced flushes plus a per-class lock on
//!   *every* operation.
//!
//! Both simulations allocate from the same 64 KiB-chunk geometry as
//! Ralloc so that fragmentation behaviour is comparable, and both are
//! exercised through the shared [`ralloc::PersistentAllocator`] trait.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

mod chunked;
mod makalu;
mod pmdk;
mod system;
mod tls;

pub use chunked::CHUNK_SIZE;
pub use makalu::MakaluSim;
pub use pmdk::PmdkSim;
pub use system::SystemAlloc;
