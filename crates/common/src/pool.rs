//! Reusable frame-buffer pool for the wire hot path.
//!
//! Without a pool every message the live runtime sends allocates a fresh
//! `Vec<u8>` to encode into and frees it once the transport is done.
//! [`BufferPool`] keeps a bounded free list of `Vec<u8>` buffers so the
//! steady state recycles capacity instead of round-tripping the
//! allocator per frame.
//!
//! A [`PooledBuf`] checked out of the pool derefs to `Vec<u8>`; encoding
//! appends straight into it (see `Encode::encode_append`), the transport
//! writes from it, and dropping it returns the capacity to the pool.
//! Buffers that grew past [`BufferPool::MAX_RECYCLED_BYTES`] are released
//! to the allocator rather than pinned in the free list, so one jumbo
//! frame cannot permanently bloat the pool.
//!
//! The pool is `Clone` + `Send` + cheap to share (`Arc` inside), and all
//! counters are atomics: hit/miss rates and the outstanding high-water
//! mark are exported as `tpc_pool_*` metrics for spotting thrash.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Snapshot of pool counters — exported as `tpc_pool_*` metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out (hits + misses).
    pub checkouts: u64,
    /// Checkouts served from the free list (no allocation).
    pub hits: u64,
    /// Checkouts that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned to the free list on drop.
    pub recycled: u64,
    /// Buffers dropped instead of recycled (free list full or buffer
    /// oversized).
    pub discarded: u64,
    /// Buffers currently checked out.
    pub outstanding: u64,
    /// Most buffers ever checked out at once.
    pub outstanding_high_water: u64,
    /// Buffers currently idle in the free list.
    pub idle: u64,
}

impl PoolStats {
    /// Folds a sibling pool's snapshot in (a multi-lane node runs one
    /// pool per lane transport): counters add, the high-water mark takes
    /// the max — a conservative per-pool peak, not a cluster-wide one.
    pub fn absorb(&mut self, other: &PoolStats) {
        self.checkouts += other.checkouts;
        self.hits += other.hits;
        self.misses += other.misses;
        self.recycled += other.recycled;
        self.discarded += other.discarded;
        self.outstanding += other.outstanding;
        self.outstanding_high_water = self
            .outstanding_high_water
            .max(other.outstanding_high_water);
        self.idle += other.idle;
    }
}

#[derive(Debug, Default)]
struct PoolInner {
    idle: Mutex<Vec<Vec<u8>>>,
    checkouts: AtomicU64,
    hits: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
    outstanding: AtomicU64,
    high_water: AtomicU64,
}

/// Bounded free list of reusable byte buffers. Cloning shares the pool.
#[derive(Clone, Debug, Default)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// Free-list bound: enough for every lane of a busy node to have a
    /// few frames in flight, small enough to be an invisible footprint
    /// (≤ 256 × 1 MiB worst case, far less in practice).
    pub const MAX_IDLE: usize = 256;

    /// Buffers that grew beyond this are not recycled. Matches the TCP
    /// sender's coalescing cap so batch buffers still recycle, while a
    /// pathological frame goes back to the allocator.
    pub const MAX_RECYCLED_BYTES: usize = 1 << 20;

    /// Initial capacity for pool-allocated buffers (a typical 2PC frame
    /// is well under this).
    pub const DEFAULT_BUF_BYTES: usize = 512;

    /// A fresh, empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Checks out an empty buffer, reusing a recycled one when possible.
    pub fn checkout(&self) -> PooledBuf {
        self.inner.checkouts.fetch_add(1, Ordering::Relaxed);
        let out = self.inner.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner.high_water.fetch_max(out, Ordering::Relaxed);
        let reused = self.inner.idle.lock().expect("pool poisoned").pop();
        let buf = match reused {
            Some(b) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => Vec::with_capacity(Self::DEFAULT_BUF_BYTES),
        };
        PooledBuf {
            buf,
            pool: Some(Arc::clone(&self.inner)),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        let checkouts = self.inner.checkouts.load(Ordering::Relaxed);
        let hits = self.inner.hits.load(Ordering::Relaxed);
        PoolStats {
            checkouts,
            hits,
            misses: checkouts - hits,
            recycled: self.inner.recycled.load(Ordering::Relaxed),
            discarded: self.inner.discarded.load(Ordering::Relaxed),
            outstanding: self.inner.outstanding.load(Ordering::Relaxed),
            outstanding_high_water: self.inner.high_water.load(Ordering::Relaxed),
            idle: self.inner.idle.lock().expect("pool poisoned").len() as u64,
        }
    }
}

/// A byte buffer on loan from a [`BufferPool`] (or detached, when built
/// via `From<Vec<u8>>`). Dereferences to `Vec<u8>`; dropping it recycles
/// the capacity.
#[derive(Debug, Default)]
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Option<Arc<PoolInner>>,
}

impl PooledBuf {
    /// Detaches the buffer from the pool, keeping the bytes. The pool
    /// counts it as discarded (its capacity will not come back).
    pub fn into_vec(mut self) -> Vec<u8> {
        if let Some(pool) = self.pool.take() {
            pool.outstanding.fetch_sub(1, Ordering::Relaxed);
            pool.discarded.fetch_add(1, Ordering::Relaxed);
        }
        std::mem::take(&mut self.buf)
    }
}

impl From<Vec<u8>> for PooledBuf {
    /// Wraps an ordinary vector as a detached (pool-less) buffer, so
    /// call sites without a pool speak the same type.
    fn from(buf: Vec<u8>) -> Self {
        PooledBuf { buf, pool: None }
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let Some(pool) = self.pool.take() else {
            return;
        };
        pool.outstanding.fetch_sub(1, Ordering::Relaxed);
        let mut buf = std::mem::take(&mut self.buf);
        if buf.capacity() == 0 || buf.capacity() > BufferPool::MAX_RECYCLED_BYTES {
            pool.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        buf.clear();
        let mut idle = pool.idle.lock().expect("pool poisoned");
        if idle.len() < BufferPool::MAX_IDLE {
            idle.push(buf);
            drop(idle);
            pool.recycled.fetch_add(1, Ordering::Relaxed);
        } else {
            drop(idle);
            pool.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_miss_then_recycle_then_hit() {
        let pool = BufferPool::new();
        let mut a = pool.checkout();
        a.extend_from_slice(b"hello");
        let cap = a.capacity();
        drop(a);
        let s = pool.stats();
        assert_eq!(s.checkouts, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.recycled, 1);
        assert_eq!(s.idle, 1);
        assert_eq!(s.outstanding, 0);

        let b = pool.checkout();
        assert!(b.is_empty(), "recycled buffer comes back cleared");
        assert_eq!(b.capacity(), cap, "capacity is what got recycled");
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.idle, 0);
        assert_eq!(s.outstanding, 1);
        assert_eq!(s.outstanding_high_water, 1);
    }

    #[test]
    fn oversized_buffers_are_not_recycled() {
        let pool = BufferPool::new();
        let mut a = pool.checkout();
        a.reserve(BufferPool::MAX_RECYCLED_BYTES + 1);
        drop(a);
        let s = pool.stats();
        assert_eq!(s.recycled, 0);
        assert_eq!(s.discarded, 1);
        assert_eq!(s.idle, 0);
    }

    #[test]
    fn detached_buffers_skip_the_pool() {
        let pool = BufferPool::new();
        let v = pool.checkout().into_vec();
        drop(v);
        let s = pool.stats();
        assert_eq!(s.recycled, 0);
        assert_eq!(s.outstanding, 0);
        // A From<Vec> wrapper never touches pool counters.
        let loose = PooledBuf::from(vec![1, 2, 3]);
        assert_eq!(&loose[..], &[1, 2, 3]);
        drop(loose);
        assert_eq!(pool.stats().checkouts, 1);
    }

    #[test]
    fn high_water_tracks_concurrent_checkouts() {
        let pool = BufferPool::new();
        let bufs: Vec<_> = (0..5).map(|_| pool.checkout()).collect();
        assert_eq!(pool.stats().outstanding_high_water, 5);
        drop(bufs);
        let s = pool.stats();
        assert_eq!(s.outstanding, 0);
        assert_eq!(s.outstanding_high_water, 5, "high water is sticky");
        assert_eq!(s.idle, 5);
    }

    #[test]
    fn pool_is_shared_across_clones_and_threads() {
        let pool = BufferPool::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let p = pool.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let mut b = p.checkout();
                    b.extend_from_slice(&[0u8; 64]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.checkouts, 400);
        assert_eq!(s.outstanding, 0);
        assert!(s.hits > 0, "steady state must reuse buffers");
        assert_eq!(s.recycled + s.discarded, 400);
    }
}
