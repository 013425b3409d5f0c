//! `kv`: a striped, chained hash map that lives in the heap under test.
//!
//! YCSB-A (50 % get / 50 % update) over 100 k records with zipf-0.99 key
//! popularity. Values cycle through {64, 128, 256, 512, 1024} B, so every
//! update allocates from a different size class than the value it frees.
//! The ≈ 40 MB working set exceeds the CPU caches and the allocator is a
//! minority of each operation: this workload bounds what an allocator
//! gain can be worth to an application.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::ctx::{Alloc, Ctx};
use crate::span::Kind;
use crate::stats::Rng;
use crate::team::{Shape, Tally, Until};

pub const RECORDS: usize = 100_000;
pub const VALUE_SIZES: [usize; 5] = [64, 128, 256, 512, 1024];
pub const ZIPF_THETA: f64 = 0.99;
const BUCKETS: usize = 1 << 17;
const STRIPES: usize = 1 << 12;
const VALUE_MAGIC: u64 = 0x1ED6_E4A1_10C8_7A61;

/// A record, allocated from the heap under test.
#[repr(C)]
struct Rec {
    key: u64,
    /// Address of the current value block.
    val: usize,
    len: u32,
    ver: u32,
    /// Address of the next record in the bucket chain, 0 at the end.
    next: usize,
}

const REC_SIZE: usize = std::mem::size_of::<Rec>();

fn value_len(key: u64, ver: u32) -> usize {
    VALUE_SIZES[(key as usize + ver as usize) % VALUE_SIZES.len()]
}

/// Stamp a value block: `[key, ver]` up front, a check word at the end,
/// and one word per cache line in between so the whole block is touched.
///
/// # Safety
/// `p` must be a live, 8-aligned block of at least `len` bytes that no
/// other thread accesses; `len` is a multiple of 64.
unsafe fn write_value(p: *mut u8, len: usize, key: u64, ver: u32) {
    let words = p as *mut u64;
    // SAFETY: every index is below len / 8 (caller's contract).
    unsafe {
        for line in 1..len / 64 {
            words.add(line * 8).write(key ^ line as u64);
        }
        words.write(key);
        words.add(1).write(ver as u64);
        words.add(len / 8 - 1).write(key ^ ver as u64 ^ VALUE_MAGIC);
    }
}

/// # Safety
/// `p` must be a live value block of `len` bytes written by
/// [`write_value`] and not concurrently written.
unsafe fn value_intact(p: *const u8, len: usize, key: u64, ver: u32) -> bool {
    let words = p as *const u64;
    // SAFETY: every index is below len / 8 (caller's contract).
    unsafe {
        words.read() == key
            && words.add(1).read() == ver as u64
            && words.add(len / 8 - 1).read() == key ^ ver as u64 ^ VALUE_MAGIC
    }
}

fn bucket_of(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize % BUCKETS
}

/// YCSB's zipfian generator (Gray et al.): closed-form sampling after a
/// one-off zeta sum, with the rank scrambled so hot keys spread out.
#[derive(Clone)]
pub struct Zipf {
    n: f64,
    zetan: f64,
    half_pow: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let zetan: f64 = (1..=n).map(|i| (i as f64).powf(-theta)).sum();
        let half_pow = 0.5f64.powf(theta);
        let zeta2 = 1.0 + half_pow;
        Zipf {
            n: n as f64,
            zetan,
            half_pow,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// A popularity rank in `0..n`, rank 0 the most popular.
    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < 1.0 + self.half_pow {
            1
        } else {
            ((self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64)
                .min(self.n as u64 - 1)
        }
    }

    /// The key that holds popularity rank `rank`.
    pub fn key_of(&self, rank: u64) -> u64 {
        let mut h = rank.wrapping_add(1).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h % self.n as u64
    }
}

pub struct Kv {
    seed: u64,
    /// Address of the bucket array (`BUCKETS` words, in the heap).
    buckets: usize,
    locks: Vec<AtomicBool>,
    zipf: Zipf,
    /// Live payload bytes right after the load.
    pub loaded_bytes: u64,
}

pub struct Client {
    rng: Rng,
}

impl Kv {
    /// Build the table in `alloc`'s heap and insert every record.
    /// Returns the table and the number of failed allocations.
    pub fn load<A: Alloc>(alloc: &A, seed: u64) -> (Kv, u64) {
        let (mut failed, mut bytes) = (0, (BUCKETS * 8) as u64);
        let buckets = alloc.malloc(BUCKETS * 8) as *mut usize;
        if buckets.is_null() {
            crate::fatal("kv: the heap under test cannot hold the bucket array");
        }
        // SAFETY: a fresh block of BUCKETS words, exclusively ours.
        unsafe { std::slice::from_raw_parts_mut(buckets, BUCKETS) }.fill(0);
        for key in 0..RECORDS as u64 {
            let len = value_len(key, 0);
            let rec = alloc.malloc(REC_SIZE) as *mut Rec;
            let val = alloc.malloc(len);
            if rec.is_null() || val.is_null() {
                failed += 1;
                continue;
            }
            // SAFETY: `val` is a fresh block of `len` bytes; `rec` a fresh
            // block of REC_SIZE bytes; the bucket word is in bounds. The
            // load is single-threaded.
            unsafe {
                write_value(val, len, key, 0);
                let head = buckets.add(bucket_of(key));
                rec.write(Rec {
                    key,
                    val: val as usize,
                    len: len as u32,
                    ver: 0,
                    next: *head,
                });
                *head = rec as usize;
            }
            bytes += (REC_SIZE + len) as u64;
        }
        let kv = Kv {
            seed,
            buckets: buckets as usize,
            locks: (0..STRIPES).map(|_| AtomicBool::new(false)).collect(),
            zipf: Zipf::new(RECORDS, ZIPF_THETA),
            loaded_bytes: bytes,
        };
        (kv, failed)
    }

    /// Free every record, value and the bucket array (single-threaded).
    pub fn unload<A: Alloc>(self, alloc: &A) {
        let buckets = self.buckets as *mut usize;
        for b in 0..BUCKETS {
            // SAFETY: the table is quiescent and exclusively ours; chain
            // words are record addresses written by `load`.
            let mut at = unsafe { *buckets.add(b) };
            while at != 0 {
                // SAFETY: `at` is a live record (see above).
                let rec = unsafe { (at as *const Rec).read() };
                alloc.free(rec.val as *mut u8, rec.len as usize);
                alloc.free(at as *mut u8, REC_SIZE);
                at = rec.next;
            }
        }
        alloc.free(buckets as *mut u8, BUCKETS * 8);
    }

    /// Run `f` on `key`'s record under its stripe lock.
    fn with_record<R>(&self, key: u64, f: impl FnOnce(&mut Rec) -> R) -> Option<R> {
        let b = bucket_of(key);
        let lock = &self.locks[b % STRIPES];
        // Clients never outnumber cores, so a short spin beats parking.
        while lock
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        // SAFETY: the bucket word is in bounds; chains hold live records
        // (records are never removed) and the stripe lock serializes all
        // access to this bucket's records and their values.
        let mut at = unsafe { *(self.buckets as *const usize).add(b) };
        let mut out = None;
        while at != 0 {
            // SAFETY: as above.
            let rec = unsafe { &mut *(at as *mut Rec) };
            if rec.key == key {
                out = Some(f(rec));
                break;
            }
            at = rec.next;
        }
        lock.store(false, Ordering::Release);
        out
    }

    fn get(&self, key: u64) -> bool {
        self.with_record(key, |rec| {
            // SAFETY: under the stripe lock `rec.val` is the record's
            // current value block of `rec.len` bytes.
            unsafe { value_intact(rec.val as *const u8, rec.len as usize, rec.key, rec.ver) }
        })
        .unwrap_or(false)
    }

    /// Replace `key`'s value; returns the change in live bytes, or `None`
    /// when the operation failed.
    fn update<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<i64> {
        // The version is only known under the lock; read it first so the
        // new value can be built outside the critical section.
        let ver = self.with_record(key, |rec| rec.ver)?.wrapping_add(1);
        let len = value_len(key, ver);
        let val = cx.malloc(len);
        if val.is_null() {
            return None;
        }
        // SAFETY: `val` is a fresh block of `len` bytes, not yet shared.
        unsafe { write_value(val, len, key, ver) };
        let swapped = self.with_record(key, |rec| {
            // A racing update of the same key may have moved the version
            // on; then this one loses and frees its own block.
            if rec.ver.wrapping_add(1) != ver {
                return None;
            }
            let old = (rec.val, rec.len as usize);
            (rec.val, rec.len, rec.ver) = (val as usize, len as u32, ver);
            Some(old)
        })?;
        match swapped {
            Some((old, old_len)) => {
                cx.free(old as *mut u8, old_len);
                Some(len as i64 - old_len as i64)
            }
            None => {
                cx.free(val, len);
                Some(0)
            }
        }
    }
}

impl Shape for Kv {
    type State = Client;

    fn init<C: Ctx>(&self, _cx: &mut C, tid: usize) -> Client {
        Client {
            rng: Rng::new(self.seed, 100 + tid as u64),
        }
    }

    fn run<C: Ctx>(&self, cx: &mut C, st: &mut Client, until: &Until<'_>) -> Tally {
        let mut t = Tally::default();
        while !until.done(t.ops) && !cx.exhausted() {
            for _ in 0..16 {
                let key = self.zipf.key_of(self.zipf.rank(&mut st.rng));
                if st.rng.next() & 1 == 0 {
                    let ok = cx.op(Kind::Get, |_| self.get(key));
                    t.failed += u64::from(!ok);
                } else {
                    t.mallocs += 1;
                    match cx.op(Kind::Set, |cx| self.update(cx, key)) {
                        Some(delta) => t.live_delta += delta,
                        None => t.failed += 1,
                    }
                }
            }
            t.ops += 16;
        }
        t.attempted = t.ops;
        t
    }

    fn fini<C: Ctx>(&self, _cx: &mut C, _st: Client) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{Plain, Sys};

    #[test]
    fn zipf_is_skewed_in_range_and_repeatable() {
        let z = Zipf::new(1000, ZIPF_THETA);
        let mut rng = Rng::new(1, 1);
        let mut hits = vec![0u32; 1000];
        for _ in 0..100_000 {
            hits[z.rank(&mut rng) as usize] += 1;
        }
        // P(rank 0) = 1/zeta(1000, 0.99) ≈ 0.13; the tail is still reached.
        assert!(
            (11_000..16_000).contains(&hits[0]),
            "rank 0 drew {}",
            hits[0]
        );
        assert!(hits[0] > hits[1] && hits[1] > hits[10] && hits[10] > hits[500]);
        assert!(hits[900..].iter().sum::<u32>() > 0);
        assert!((0..1000).all(|r| z.key_of(r) < 1000));
        assert_eq!(z.rank(&mut Rng::new(5, 5)), z.rank(&mut Rng::new(5, 5)));
    }

    #[test]
    fn updates_replace_values_and_reads_verify_them() {
        let (kv, failed) = Kv::load(&Sys, 1);
        assert_eq!(failed, 0);
        let mut cx = Plain(&Sys);
        assert!(kv.get(42));
        let first = kv.update(&mut cx, 42).expect("update");
        assert_eq!(first, value_len(42, 1) as i64 - value_len(42, 0) as i64);
        assert!(kv.get(42));
        // Five updates walk the whole size cycle back to the start.
        let net: i64 = first + (0..4).map(|_| kv.update(&mut cx, 42).unwrap()).sum::<i64>();
        assert_eq!(net, 0);
        // A torn value is reported, not ignored.
        kv.with_record(7, |rec| {
            // SAFETY: the record's value block is live and ≥ 64 bytes.
            unsafe { (rec.val as *mut u64).write(!7) };
        });
        assert!(!kv.get(7));
        assert!(!kv.get(RECORDS as u64 + 1), "absent keys read as failures");
        kv.unload(&Sys);
    }
}
