//! A recoverable chained hash map of `u64 → bytes`, generic over the
//! allocator: the library-mode memcached of YCSB (paper §6.3, Fig. 5f)
//! runs it on every allocator, and the kill harness (`crates/crashtest`)
//! runs it on a Ralloc heap.
//!
//! The paper converted memcached into a library so the client calls the
//! key-value code directly, putting the allocator on the critical path of
//! every set. This map has that shape: a bucket block and one entry per
//! key (header and value bytes inline) drawn from the allocator, each
//! bucket guarded by a transient reader-writer lock. A `set` on an
//! existing key allocates a new entry and frees the old one, as
//! memcached's item replacement does.
//!
//! Links are [`Link<48>`]s with tag 0, the target's offset from
//! `region_base()`: on a Ralloc heap a superblock-region offset, so the
//! map is position-independent, and
//! [`ralloc::Trace`] filters make recovery tracing precise.
//!
//! Crash safety (durable linearizability, paper §2.2): every mutation is
//! one 8-byte link store, made under the bucket's write lock. The new
//! entry is persisted before the store, and the store is persisted before
//! the old entry is freed, so a crash exposes the map before or after the
//! op, never a torn entry or a freed one.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::RwLock;
use ralloc::{Link, PersistentAllocator, Ralloc, Trace, Tracer};

use crate::{block, offset};

/// Bucket block: the bucket count, then that many link slots. It lives in
/// the allocator's memory, registered as a persistent root by
/// [`PKv::create`].
#[repr(C)]
pub struct KvHead {
    /// Number of slots that follow (a power of two).
    buckets: u64,
    // `buckets` × AtomicU64 slots follow, each a `Link<48>` to a chain's
    // first entry (no target = empty).
}

/// A chain entry; `vlen` value bytes follow it. Only `next` changes after
/// publication (an unlink of its successor).
#[repr(C)]
struct KvEntry {
    key: u64,
    vlen: u64,
    /// The next entry (a `Link<48>`; no target = end).
    next: AtomicU64,
}

const HDR: usize = std::mem::size_of::<KvEntry>();

#[inline]
fn head_bytes(buckets: usize) -> usize {
    8 + 8 * buckets
}

/// The first `n` slots of the head at `head`.
///
/// # Safety
/// The head's block holds at least `n` slots after its count.
#[inline]
unsafe fn slots<'a>(head: *const KvHead, n: u64) -> &'a [AtomicU64] {
    // SAFETY: the caller guarantees the block holds `n` slots.
    unsafe { std::slice::from_raw_parts((head as *const u8).add(8) as *const AtomicU64, n as usize) }
}

/// The slot array that follows a head at `head`.
#[inline]
fn slots_of<'a>(head: *const KvHead) -> &'a [AtomicU64] {
    // SAFETY: a live handle's head holds its count plus that many slots
    // (`new` allocates it so, and `attach` checks the block's usable size).
    unsafe { slots(head, (*head).buckets) }
}

// SAFETY: every non-empty slot names a chain's first entry; the chain's
// entries are visited through `next`.
unsafe impl Trace for KvHead {
    fn trace(&self, t: &mut Tracer<'_>) {
        // Recovery runs before `attach` can check the count, so visit no
        // more slots than the block holds.
        let at = self as *const KvHead;
        let room = t.block_bytes(at as usize).map_or(0, |bytes| bytes.saturating_sub(8) / 8);
        // SAFETY: the block holds `room` slots after its count.
        for slot in unsafe { slots(at, self.buckets.min(room)) } {
            t.visit_link::<KvEntry>(Link(slot.load(Ordering::Relaxed)));
        }
    }
}

// SAFETY: `next` is an entry's only link; the value bytes hold none.
unsafe impl Trace for KvEntry {
    fn trace(&self, t: &mut Tracer<'_>) {
        t.visit_link::<KvEntry>(Link(self.next.load(Ordering::Relaxed)));
    }
}

/// Fibonacci hash: good spread for sequential YCSB keys.
#[inline]
fn hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A concurrent `u64 → bytes` hash map over allocator `A`, recoverable
/// when `A` is a Ralloc heap.
///
/// There is no `Drop`: a rooted map must outlive its handle. A map built
/// by [`PKv::new`] is returned to its allocator by [`PKv::destroy`].
pub struct PKv<A: PersistentAllocator = Ralloc> {
    alloc: A,
    /// `alloc.region_base()`, read once: the base of every link.
    base: usize,
    head: *mut KvHead,
    locks: Box<[RwLock<()>]>,
    mask: u64,
    len: AtomicUsize,
}

// SAFETY: a chain is read under its bucket's read lock and changed under
// its write lock; entries are freed only under the write lock.
unsafe impl<A: PersistentAllocator> Send for PKv<A> {}
// SAFETY: as above.
unsafe impl<A: PersistentAllocator> Sync for PKv<A> {}

impl<A: PersistentAllocator> PKv<A> {
    /// Build an unrooted map with `buckets` buckets (rounded up to a
    /// power of two, at least 16), its bucket block drawn from `alloc` and
    /// persisted.
    pub fn new(alloc: A, buckets: usize) -> PKv<A> {
        let n = buckets.next_power_of_two().max(16);
        let head = alloc.malloc(head_bytes(n)) as *mut KvHead;
        assert!(!head.is_null(), "allocator exhausted creating kv bucket block");
        // SAFETY: fresh block of `head_bytes(n)` bytes, exclusively owned.
        unsafe {
            (*head).buckets = n as u64;
            std::ptr::write_bytes((head as *mut u8).add(8), 0, 8 * n);
        }
        alloc.persist(head as *const u8, head_bytes(n));
        PKv::with_head(alloc, head)
    }

    fn with_head(alloc: A, head: *mut KvHead) -> PKv<A> {
        let n = slots_of(head).len();
        let locks = (0..n).map(|_| RwLock::new(())).collect();
        let base = alloc.region_base();
        PKv { alloc, base, head, locks, mask: n as u64 - 1, len: AtomicUsize::new(0) }
    }

    /// Return every entry and the bucket block to the allocator. For a map
    /// from [`PKv::new`]; a rooted map's root would dangle.
    pub fn destroy(self) {
        for slot in slots_of(self.head) {
            let mut cur = Link(slot.load(Ordering::Relaxed));
            while let Some(e) = block::<KvEntry>(self.base, cur) {
                // SAFETY: the handle is consumed, so no other operation
                // runs; every chained entry is still allocated.
                cur = Link(unsafe { (*e).next.load(Ordering::Relaxed) });
                self.alloc.free(e as *mut u8);
            }
        }
        self.alloc.free(self.head as *mut u8);
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A bucket's lock and its slot.
    #[inline]
    fn bucket(&self, key: u64) -> (&RwLock<()>, &AtomicU64) {
        let i = (hash(key) & self.mask) as usize;
        (&self.locks[i], &slots_of(self.head)[i])
    }

    /// The link that names `key`'s entry, and the entry (`None` if
    /// absent). The caller holds the bucket's lock.
    fn find<'a>(&self, slot: &'a AtomicU64, key: u64) -> (&'a AtomicU64, Option<*mut KvEntry>) {
        let mut link = slot;
        loop {
            match block::<KvEntry>(self.base, Link(link.load(Ordering::Acquire))) {
                // SAFETY: a chained entry stays allocated while the bucket
                // lock is held; the reference lives as long as the lock.
                Some(e) if unsafe { (*e).key } != key => link = unsafe { &(*e).next },
                e => return (link, e),
            }
        }
    }

    /// Store `to` into `link` and persist it: the one write of every
    /// mutation.
    #[inline]
    fn publish(&self, link: &AtomicU64, to: Link<48>) {
        link.store(to.0, Ordering::Release);
        self.alloc.persist(link as *const AtomicU64 as *const u8, 8);
    }

    /// Insert or replace; returns true if the key was new. The new entry
    /// is persisted, then linked where the old one was (or at the chain's
    /// head), and the old one is freed after the link is persisted.
    pub fn set(&self, key: u64, value: &[u8]) -> bool {
        let e = self.alloc.malloc(HDR + value.len()) as *mut KvEntry;
        assert!(!e.is_null(), "allocator exhausted in PKv::set");
        let (lock, slot) = self.bucket(key);
        let _w = lock.write();
        let (link, old) = self.find(slot, key);
        let next = match old {
            None => slot.load(Ordering::Acquire),
            // SAFETY: `old` is chained and we hold the write lock.
            Some(old) => unsafe { (*old).next.load(Ordering::Acquire) },
        };
        // SAFETY: fresh block of HDR + value.len() bytes, unpublished.
        unsafe {
            e.write(KvEntry { key, vlen: value.len() as u64, next: AtomicU64::new(next) });
            std::ptr::copy_nonoverlapping(value.as_ptr(), (e as *mut u8).add(HDR), value.len());
        }
        self.alloc.persist(e as *const u8, HDR + value.len());
        let to_e = Link::new(offset(self.base, e), 0);
        let Some(old) = old else {
            self.publish(slot, to_e);
            self.len.fetch_add(1, Ordering::Relaxed);
            return true;
        };
        self.publish(link, to_e);
        self.alloc.free(old as *mut u8);
        false
    }

    /// Read a value into `buf` (truncated to its length); returns the
    /// value's full length if the key is present.
    pub fn get_into(&self, key: u64, buf: &mut [u8]) -> Option<usize> {
        let (lock, slot) = self.bucket(key);
        let _r = lock.read();
        let e = self.find(slot, key).1?;
        // SAFETY: a chained entry holds `vlen` value bytes and stays
        // allocated while the read lock is held.
        unsafe {
            let vlen = (*e).vlen as usize;
            let n = vlen.min(buf.len());
            std::ptr::copy_nonoverlapping((e as *const u8).add(HDR), buf.as_mut_ptr(), n);
            Some(vlen)
        }
    }

    /// Read a value as an owned vector.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let (lock, slot) = self.bucket(key);
        let _r = lock.read();
        // SAFETY: as in `get_into`.
        self.find(slot, key).1.map(|e| unsafe { Self::value_of(e) })
    }

    /// Unlink `key`'s entry, free it and return its value.
    pub fn delete(&self, key: u64) -> Option<Vec<u8>> {
        let (lock, slot) = self.bucket(key);
        let _w = lock.write();
        let (link, e) = self.find(slot, key);
        let e = e?;
        // SAFETY: `e` is chained and we hold the write lock.
        let (value, next) = unsafe { (Self::value_of(e), (*e).next.load(Ordering::Acquire)) };
        self.publish(link, Link(next));
        self.alloc.free(e as *mut u8);
        self.len.fetch_sub(1, Ordering::Relaxed);
        Some(value)
    }

    /// Copy an entry's value out.
    ///
    /// # Safety
    /// `e` is a chained entry, and its bucket's lock is held.
    unsafe fn value_of(e: *const KvEntry) -> Vec<u8> {
        // SAFETY: the caller's contract; the entry holds `vlen` bytes.
        unsafe {
            let n = (*e).vlen as usize;
            std::slice::from_raw_parts((e as *const u8).add(HDR), n).to_vec()
        }
    }

    /// Every `(key, value)` pair, unordered (offline use).
    pub fn snapshot(&self) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        for (i, slot) in slots_of(self.head).iter().enumerate() {
            let _r = self.locks[i].read();
            let mut cur = Link(slot.load(Ordering::Acquire));
            while let Some(e) = block::<KvEntry>(self.base, cur) {
                // SAFETY: chained entries, read under the bucket lock.
                unsafe {
                    out.push(((*e).key, Self::value_of(e)));
                    cur = Link((*e).next.load(Ordering::Acquire));
                }
            }
        }
        out
    }
}

impl PKv<Ralloc> {
    /// Create a fresh map on `heap` with `buckets` buckets whose bucket
    /// block is registered as root `root`.
    pub fn create(heap: &Ralloc, root: usize, buckets: usize) -> PKv {
        let m = PKv::new(heap.clone(), buckets);
        heap.set_root::<KvHead>(root, m.head);
        m
    }

    /// Re-attach to a map persisted at root `root` (offline — the caller
    /// owns the quiescent post-recovery heap). Refuses a missing root and
    /// a bucket count that is not a power of two or that the head block
    /// cannot hold.
    pub fn attach(heap: &Ralloc, root: usize) -> Result<PKv, String> {
        let head = heap.get_root::<KvHead>(root);
        if head.is_null() {
            return Err(format!("no kv bucket block at root {root}"));
        }
        // SAFETY: a registered root is a live block of at least 8 bytes.
        let n = unsafe { (*head).buckets };
        let room = heap.usable_size(head as *mut u8).saturating_sub(8) as u64 / 8;
        if !n.is_power_of_two() || n > room {
            return Err(format!("corrupt kv bucket block: {n} buckets"));
        }
        let m = PKv::with_head(heap.clone(), head);
        m.len.store(m.snapshot().len(), Ordering::Relaxed);
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::SystemAlloc;
    use ralloc::RallocConfig;

    fn heap() -> Ralloc {
        Ralloc::create(16 << 20, RallocConfig::tracked())
    }

    #[test]
    fn set_get_delete() {
        let kv = PKv::new(SystemAlloc::new(), 64);
        assert!(kv.set(1, b"hello"));
        assert!(!kv.set(1, b"world"), "update is not an insert");
        assert_eq!(kv.get(1).as_deref(), Some(&b"world"[..]));
        assert_eq!(kv.delete(1).as_deref(), Some(&b"world"[..]));
        assert_eq!(kv.delete(1), None);
        assert_eq!(kv.get(1), None);
        kv.destroy();
    }

    /// Every thread inserts, updates (to a value of another size),
    /// deletes and reads on one map. Each thread owns a key stripe
    /// (`tid << 32 | k`), but a bucket is picked by the key's low bits,
    /// so every stripe spans all 16 buckets and threads race on the same
    /// chains and bucket locks; a per-thread model predicts every result
    /// and the final contents. A lost link drops, resurrects or garbles
    /// an entry.
    #[test]
    fn mixed_operations_on_every_thread_match_per_thread_models() {
        use std::collections::BTreeMap;
        const THREADS: u64 = 4;
        const OPS: u64 = 20_000;
        const KEYS: u64 = 256;
        const RUNS: u64 = 8;
        // A value whose length and bytes name the key and the op.
        let value = |key: u64, i: u64| vec![(key ^ i) as u8; 1 + ((key + i) % 97) as usize];
        let run = move |seed: u64| -> Result<(), String> {
            let kv = PKv::new(Ralloc::create(64 << 20, RallocConfig::default()), 16);
            let models = std::thread::scope(|s| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|tid| {
                        let kv = &kv;
                        s.spawn(move || {
                            let mut model = BTreeMap::new();
                            let mut x = (seed * THREADS + tid + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                            for i in 0..OPS {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                let key = (tid << 32) | ((x >> 8) % KEYS);
                                match x % 3 {
                                    0 => {
                                        let v = value(key, i);
                                        let fresh = model.insert(key, v.clone()).is_none();
                                        if kv.set(key, &v) != fresh {
                                            return Err(format!("run {seed}: set({key:#x}) != {fresh}"));
                                        }
                                    }
                                    1 => {
                                        let (got, want) = (kv.delete(key), model.remove(&key));
                                        if got != want {
                                            return Err(format!("run {seed}: delete({key:#x}) = {got:?}, not {want:?}"));
                                        }
                                    }
                                    _ => {
                                        if kv.get(key).as_ref() != model.get(&key) {
                                            return Err(format!("run {seed}: get({key:#x}) differs from the model"));
                                        }
                                    }
                                }
                            }
                            Ok(model)
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect::<Result<Vec<_>, _>>()
            })?;
            let want: BTreeMap<u64, Vec<u8>> = models.into_iter().flatten().collect();
            let got: BTreeMap<u64, Vec<u8>> = kv.snapshot().into_iter().collect();
            if got != want || kv.len() != want.len() {
                return Err(format!("run {seed}: the map holds {} keys, the models {}", got.len(), want.len()));
            }
            kv.destroy();
            Ok(())
        };
        crate::runs_within_5s("map", RUNS, run);
    }

    #[test]
    fn different_size_update_reallocates() {
        let kv = PKv::new(Ralloc::create(8 << 20, RallocConfig::default()), 64);
        kv.set(9, &[7u8; 100]);
        kv.set(9, &[8u8; 400]); // forces replacement
        assert_eq!(kv.get(9).unwrap(), vec![8u8; 400]);
        kv.set(9, &[9u8; 16]);
        assert_eq!(kv.get(9).unwrap(), vec![9u8; 16]);
        assert_eq!(kv.len(), 1);
        kv.destroy();
    }

    #[test]
    fn get_into_reports_full_length() {
        let kv = PKv::new(SystemAlloc::new(), 64);
        kv.set(5, &[3u8; 64]);
        let mut buf = [0u8; 16];
        assert_eq!(kv.get_into(5, &mut buf), Some(64));
        assert_eq!(buf, [3u8; 16]);
        assert_eq!(kv.get_into(6, &mut buf), None);
        kv.destroy();
    }

    #[test]
    fn many_keys_chain_correctly() {
        let kv = PKv::new(SystemAlloc::new(), 16); // force chains
        for k in 0..2000u64 {
            kv.set(k, &k.to_le_bytes());
        }
        assert_eq!(kv.len(), 2000);
        for k in 0..2000u64 {
            assert_eq!(kv.get(k).unwrap(), k.to_le_bytes());
        }
        for k in (0..2000u64).step_by(2) {
            assert!(kv.delete(k).is_some());
        }
        assert_eq!(kv.len(), 1000);
        for k in 0..2000u64 {
            assert_eq!(kv.get(k).is_some(), k % 2 == 1);
        }
        kv.destroy();
    }

    #[test]
    fn concurrent_disjoint_writers_and_readers() {
        let kv = PKv::new(Ralloc::create(64 << 20, RallocConfig::default()), 1024);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let kv = &kv;
                s.spawn(move || {
                    for i in 0..5000u64 {
                        let k = t * 5000 + i;
                        kv.set(k, &k.to_le_bytes());
                    }
                });
            }
        });
        assert_eq!(kv.len(), 20_000);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let kv = &kv;
                s.spawn(move || {
                    for i in 0..5000u64 {
                        let k = t * 5000 + i;
                        assert_eq!(kv.get(k).unwrap(), k.to_le_bytes());
                    }
                });
            }
        });
        kv.destroy();
    }

    #[test]
    fn basic_map_semantics() {
        let h = heap();
        let m = PKv::create(&h, 0, 512);
        assert_eq!(m.get(1), None);
        m.set(1, &10u64.to_le_bytes());
        m.set(2, &20u64.to_le_bytes());
        assert_eq!(m.get(1).unwrap(), 10u64.to_le_bytes());
        m.set(1, &11u64.to_le_bytes());
        assert_eq!(m.get(1).unwrap(), 11u64.to_le_bytes());
        assert_eq!(m.delete(1).unwrap(), 11u64.to_le_bytes());
        assert_eq!(m.get(1), None);
        assert_eq!(m.delete(1), None);
        // Re-insert after a delete; u64::MAX is an ordinary value.
        m.set(1, &u64::MAX.to_le_bytes());
        assert_eq!(m.get(1).unwrap(), u64::MAX.to_le_bytes());
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn concurrent_disjoint_keys() {
        let h = Ralloc::create(64 << 20, RallocConfig::default());
        let m = PKv::create(&h, 0, 512);
        let n_threads = 8u64;
        let per = 2000u64;
        std::thread::scope(|sc| {
            for t in 0..n_threads {
                let m = &m;
                sc.spawn(move || {
                    for i in 0..per {
                        let k = t * per + i;
                        m.set(k, &(k * 2).to_le_bytes());
                        if i % 3 == 0 {
                            m.delete(k);
                        }
                    }
                });
            }
        });
        for t in 0..n_threads {
            for i in 0..per {
                let k = t * per + i;
                let expect = (i % 3 != 0).then(|| (k * 2).to_le_bytes().to_vec());
                assert_eq!(m.get(k), expect, "key {k}");
            }
        }
    }

    #[test]
    fn racing_inserts_on_one_key_keep_one_entry() {
        let h = Ralloc::create(64 << 20, RallocConfig::default());
        let m = PKv::create(&h, 0, 512);
        std::thread::scope(|sc| {
            for t in 0..8u64 {
                let m = &m;
                sc.spawn(move || {
                    for _ in 0..500 {
                        m.set(42, &(t + 1).to_le_bytes());
                    }
                });
            }
        });
        let v = u64::from_le_bytes(m.get(42).expect("key present").try_into().unwrap());
        assert!((1..=8).contains(&v));
        assert_eq!(m.snapshot().iter().filter(|(k, _)| *k == 42).count(), 1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn survives_crash_and_recovery() {
        let h = heap();
        let m = PKv::create(&h, 0, 512);
        for k in 0..200u64 {
            m.set(k, &(k + 1000).to_le_bytes());
        }
        for k in 0..50 {
            m.delete(k);
        }
        h.crash_simulated();
        let stats = h.recover();
        // Bucket block + 150 entries (a delete frees its entry).
        assert_eq!(stats.reachable_blocks, 151);
        let m = PKv::attach(&h, 0).unwrap();
        assert_eq!(m.len(), 150);
        for k in 0..200u64 {
            let expect = (k >= 50).then(|| (k + 1000).to_le_bytes().to_vec());
            assert_eq!(m.get(k), expect);
        }
        // Still operational.
        m.set(7, &7u64.to_le_bytes());
        assert_eq!(m.get(7).unwrap(), 7u64.to_le_bytes());
    }

    #[test]
    fn position_independent_across_remap() {
        let h = heap();
        let m = PKv::create(&h, 0, 512);
        for k in 0..64u64 {
            m.set(k, &(k * k).to_le_bytes());
        }
        let image = h.pool().persistent_image();
        drop((m, h));
        let (h2, dirty) = Ralloc::from_image(&image, RallocConfig::tracked());
        assert!(dirty);
        let _ = h2.get_root::<KvHead>(0);
        h2.recover();
        let m2 = PKv::attach(&h2, 0).unwrap();
        assert_eq!(m2.len(), 64);
        assert_eq!(m2.get(9).unwrap(), 81u64.to_le_bytes());
    }

    #[test]
    fn recovery_bounds_a_flipped_bucket_count_and_attach_refuses_it() {
        let h = heap();
        let m = PKv::create(&h, 0, 16);
        for k in 0..64 {
            assert!(m.set(k, b"value"));
        }
        // SAFETY: quiescent; the head block is live.
        unsafe { (*m.head).buckets = 1 << 60 };
        h.persist(m.head as *const u8, 8);
        let image = h.pool().persistent_image();
        let (h, dirty) = Ralloc::from_image(&image, RallocConfig::tracked());
        assert!(dirty);
        let _ = h.get_root::<KvHead>(0);
        let stats = h.recover();
        assert_eq!(stats.reachable_blocks, 65, "the head and every entry its 16 slots reach");
        let err = PKv::attach(&h, 0).err().expect("a 16-slot block cannot hold 2^60 buckets");
        assert!(err.contains("corrupt kv bucket block"), "{err}");
    }

    #[test]
    fn attach_refuses_a_count_the_block_cannot_hold() {
        let h = heap();
        let m = PKv::create(&h, 0, 16);
        // SAFETY: quiescent; the head block is live.
        unsafe { (*m.head).buckets = 1 << 20 };
        let err = PKv::attach(&h, 0).err().expect("a 16-slot block cannot hold 2^20 buckets");
        assert!(err.contains("corrupt kv bucket block"), "{err}");
        // SAFETY: as above.
        unsafe { (*m.head).buckets = 12 };
        assert!(PKv::attach(&h, 0).is_err(), "12 is not a power of two");
    }
}
