//! Per-batch bump-allocator arena for tape-free inference.
//!
//! During serve scoring every intermediate [`Matrix`](crate::Matrix) is
//! short-lived: it is produced by one op, consumed by the next, and dead by
//! the end of the batch. The scratch pool (PR 2) already avoids the system
//! allocator for these, but each take/recycle still pays a `RefCell` borrow,
//! a bucket scan, and per-buffer bookkeeping. The arena removes even that:
//! inside an [`scoped`] region, `Matrix` storage comes from a thread-local
//! bump allocator — an offset increment into a retained chunk — and dropping
//! a matrix is a single atomic decrement.
//!
//! # Lifecycle
//!
//! * [`scoped`] is entered once per padded batch, by the serving forwards
//!   only (`Uae::infer_batch` and `RecScorer::score`). Entering the
//!   *outermost* scope **resets** the bump offset, reusing the chunks left
//!   over from the previous batch, so a
//!   warmed-up serving thread performs **zero heap allocations per batch**
//!   ([`ArenaStats::heap_allocs`] stays flat — the counter CI gates on).
//! * Matrices may outlive the scope (the scorer reads logits out *after*
//!   `infer_batch` returns). Each lease holds an `Arc` on its chunk, so the
//!   memory stays valid; the next scope entry only reuses chunks whose live
//!   count has returned to zero.
//! * If any lease from the previous batch is still alive at reset time the
//!   arena **retires** those chunks instead of reusing them (the leaseholders
//!   keep them alive; fresh chunks are allocated). That makes cross-request
//!   reuse hazards structurally impossible — a leak shows up as a non-zero
//!   [`ArenaStats::retires`] / `heap_allocs` counter, never as corrupted
//!   scores.
//!
//! Outside a scope (training, training-side prediction, and anything else
//! that does not enter one) `Matrix` storage comes from the scratch pool.

use std::cell::{RefCell, UnsafeCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Default chunk size: 1 MiB of `f32`. Oversized requests get a dedicated
/// chunk of exactly their (rounded) size.
const CHUNK_FLOATS: usize = 256 * 1024;
/// Lease granularity in floats (64 bytes): keeps rows of successive
/// matrices from sharing a cache line.
const ALIGN_FLOATS: usize = 16;

/// One retained slab of arena memory. The boxed slice never moves or grows,
/// so raw pointers into it stay valid for the `Arc`'s lifetime.
struct ChunkBuf {
    data: UnsafeCell<Box<[f32]>>,
    /// Outstanding leases into this chunk.
    live: AtomicUsize,
}

// Safety: the arena hands out non-overlapping ranges, and a range is only
// ever written through the `&mut Matrix` that owns its lease. The chunk
// itself is only read/written through those disjoint leases; `live` is
// atomic. Chunks are reused only after `live` returns to zero.
unsafe impl Sync for ChunkBuf {}
unsafe impl Send for ChunkBuf {}

/// Owning handle to one bump-allocated range. Dropping it decrements the
/// chunk's live count; the `Arc` keeps the memory valid even if the lease
/// outlives the arena scope (or the thread).
pub struct Lease {
    ptr: *mut f32,
    len: usize,
    keep: Arc<ChunkBuf>,
}

// Safety: the lease exclusively owns its disjoint range (see `ChunkBuf`);
// shared references only permit reads, mutation requires `&mut`.
unsafe impl Send for Lease {}
unsafe impl Sync for Lease {}

impl Lease {
    #[inline]
    pub(crate) fn slice(&self) -> &[f32] {
        // Safety: `ptr..ptr+len` is a live, initialized, exclusively-owned
        // range of the Arc'd chunk.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    #[inline]
    pub(crate) fn slice_mut(&mut self) -> &mut [f32] {
        // Safety: as `slice`, plus `&mut self` guarantees exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        self.keep.live.fetch_sub(1, Ordering::Release);
    }
}

impl std::fmt::Debug for Lease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lease").field("len", &self.len).finish()
    }
}

#[derive(Default)]
struct ArenaState {
    chunks: Vec<Arc<ChunkBuf>>,
    /// Chunk currently being bumped.
    cur: usize,
    /// Bump offset (floats) into `chunks[cur]`.
    offset: usize,
    /// `scoped` nesting depth; allocation is active while > 0.
    depth: usize,
    /// Bytes bump-allocated in the current scope generation.
    scope_bytes: u64,
    allocs: u64,
    heap_allocs: u64,
    resets: u64,
    retires: u64,
    hwm_bytes: u64,
}

impl ArenaState {
    fn live(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.live.load(Ordering::Acquire))
            .sum()
    }

    /// Rewinds the bump offset for a new batch. Chunks with outstanding
    /// leases are retired (their memory survives via the leases' `Arc`s) so
    /// a leaked matrix can never alias a new allocation.
    fn begin_scope(&mut self) {
        if self.live() > 0 {
            self.chunks.clear();
            self.retires += 1;
        }
        self.cur = 0;
        self.offset = 0;
        self.scope_bytes = 0;
        self.resets += 1;
    }

    fn bump(&mut self, len: usize) -> Lease {
        let rounded = len.div_ceil(ALIGN_FLOATS) * ALIGN_FLOATS;
        // Advance through retained chunks until one fits.
        loop {
            match self.chunks.get(self.cur) {
                Some(c) => {
                    // Safety: sizing only; contents untouched.
                    let cap = unsafe { (&*c.data.get()).len() };
                    if self.offset + rounded <= cap {
                        break;
                    }
                    self.cur += 1;
                    self.offset = 0;
                }
                None => {
                    let size = rounded.max(CHUNK_FLOATS);
                    self.chunks.push(Arc::new(ChunkBuf {
                        data: UnsafeCell::new(vec![0.0f32; size].into_boxed_slice()),
                        live: AtomicUsize::new(0),
                    }));
                    self.heap_allocs += 1;
                    self.offset = 0;
                    break;
                }
            }
        }
        let chunk = &self.chunks[self.cur];
        // Safety: the range [offset, offset+len) is in bounds and disjoint
        // from every previously handed-out lease of this generation.
        let ptr = unsafe { (*chunk.data.get()).as_mut_ptr().add(self.offset) };
        chunk.live.fetch_add(1, Ordering::AcqRel);
        self.offset += rounded;
        self.allocs += 1;
        self.scope_bytes += (rounded * 4) as u64;
        self.hwm_bytes = self.hwm_bytes.max(self.scope_bytes);
        Lease {
            ptr,
            len,
            keep: Arc::clone(chunk),
        }
    }
}

thread_local! {
    static ARENA: RefCell<ArenaState> = RefCell::new(ArenaState::default());
}

/// Runs `f` with bump allocation active on this thread. The outermost entry
/// rewinds the arena (see the module docs for the reset/retire rules);
/// nested entries are transparent.
pub fn scoped<R>(f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            let _ = ARENA.try_with(|a| {
                if let Ok(mut a) = a.try_borrow_mut() {
                    a.depth -= 1;
                }
            });
        }
    }
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        if a.depth == 0 {
            a.begin_scope();
        }
        a.depth += 1;
    });
    let _guard = Guard;
    f()
}

/// A bump-allocated lease of `len` floats (unspecified contents), or `None`
/// when no scope is active on this thread (or `len == 0`). Called by
/// `Matrix::uninit`.
pub(crate) fn alloc(len: usize) -> Option<Lease> {
    if len == 0 {
        return None;
    }
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        if a.depth == 0 {
            return None;
        }
        Some(a.bump(len))
    })
}

/// Arena counters for the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Bump allocations served (one per arena-backed matrix).
    pub allocs: u64,
    /// Chunk allocations that hit the system allocator. Zero per batch once
    /// a serving thread is warm — the CI-gated number.
    pub heap_allocs: u64,
    /// Scope generations started (≈ batches scored).
    pub resets: u64,
    /// Resets that found leftover live leases and had to retire chunks
    /// instead of reusing them (0 in a well-behaved serving loop).
    pub retires: u64,
    /// High-water mark of bytes bump-allocated within one scope generation.
    pub hwm_bytes: u64,
    /// Leases currently outstanding.
    pub live: usize,
}

/// Snapshot of this thread's arena counters.
pub fn arena_stats() -> ArenaStats {
    ARENA.with(|a| {
        let a = a.borrow();
        ArenaStats {
            allocs: a.allocs,
            heap_allocs: a.heap_allocs,
            resets: a.resets,
            retires: a.retires,
            hwm_bytes: a.hwm_bytes,
            live: a.live(),
        }
    })
}

/// Zeroes this thread's arena counters (retained chunks are kept, so a
/// warmed-up thread measures `heap_allocs == 0` from here on).
pub fn reset_arena_stats() {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        a.allocs = 0;
        a.heap_allocs = 0;
        a.resets = 0;
        a.retires = 0;
        a.hwm_bytes = 0;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn alloc_outside_scope_is_none() {
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(alloc(16).is_none());
            });
        });
    }

    #[test]
    fn scoped_allocations_bump_and_reset() {
        std::thread::scope(|s| {
            s.spawn(|| {
                reset_arena_stats();
                scoped(|| {
                    let a = Matrix::zeros(8, 8);
                    let b = Matrix::filled(4, 4, 2.0);
                    assert_eq!(a.data()[0], 0.0);
                    assert_eq!(b.data()[0], 2.0);
                });
                let s1 = arena_stats();
                assert_eq!(s1.allocs, 2);
                assert_eq!(s1.heap_allocs, 1, "first batch allocates one chunk");
                assert_eq!(s1.live, 0, "matrices dropped inside the scope");
                // Second batch: same chunk reused, no heap traffic.
                scoped(|| {
                    let _a = Matrix::zeros(8, 8);
                });
                let s2 = arena_stats();
                assert_eq!(s2.heap_allocs, 1, "steady state: zero new chunks");
                assert_eq!(s2.resets, 2);
                assert_eq!(s2.retires, 0);
            });
        });
    }

    #[test]
    fn values_survive_scope_exit_and_leak_forces_retire() {
        std::thread::scope(|s| {
            s.spawn(|| {
                reset_arena_stats();
                let kept = scoped(|| Matrix::filled(16, 16, 7.0));
                // The lease outlives the scope: contents intact.
                assert!(kept.data().iter().all(|&v| v == 7.0));
                assert_eq!(arena_stats().live, 1);
                // Entering a new scope with a live lease must retire the
                // chunk, never overwrite it.
                scoped(|| {
                    let noise = Matrix::filled(16, 16, -3.0);
                    assert!(kept.data().iter().all(|&v| v == 7.0));
                    drop(noise);
                });
                assert_eq!(arena_stats().retires, 1);
                drop(kept);
                assert_eq!(arena_stats().live, 0);
            });
        });
    }

    #[test]
    fn dropping_before_next_scope_reuses_cleanly() {
        std::thread::scope(|s| {
            s.spawn(|| {
                reset_arena_stats();
                for _ in 0..5 {
                    let out = scoped(|| Matrix::filled(32, 32, 1.5));
                    assert!(out.data().iter().all(|&v| v == 1.5));
                    drop(out); // dead before the next scope entry
                }
                let st = arena_stats();
                assert_eq!(st.retires, 0);
                assert_eq!(st.heap_allocs, 1);
            });
        });
    }

    #[test]
    fn oversize_requests_get_dedicated_chunks() {
        std::thread::scope(|s| {
            s.spawn(|| {
                reset_arena_stats();
                scoped(|| {
                    let big = Matrix::zeros(2048, 256); // 2 MiB > chunk size
                    assert_eq!(big.len(), 2048 * 256);
                });
                assert_eq!(arena_stats().heap_allocs, 1);
                scoped(|| {
                    let _big = Matrix::zeros(2048, 256);
                });
                assert_eq!(arena_stats().heap_allocs, 1, "oversize chunk reused");
            });
        });
    }

    #[test]
    fn bump_allocation_happens_only_inside_a_scope() {
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(alloc(8).is_none());
                scoped(|| assert!(alloc(8).is_some()));
                assert!(alloc(8).is_none());
            });
        });
    }
}
