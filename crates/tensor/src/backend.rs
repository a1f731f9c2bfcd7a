//! Deterministic parallel compute backend.
//!
//! Everything hot in the workspace — the matmul family on [`crate::Matrix`],
//! the batched attention products, and the backward-pass gradient products in
//! [`crate::Tape`] — funnels through this module. It provides three things:
//!
//! 1. **Cache-blocked kernels** (`matmul`, `matmul_tn`, `matmul_nt`, and the
//!    bias-fused `matmul_bias`) with tight, bounds-check-free inner loops the
//!    compiler can vectorize. A `Naive` kernel mode reproduces the seed's
//!    simple triple loops; tests select it with [`with_kernel_mode`] as
//!    their oracle, and `ops_microbench` times it against the blocked ones.
//! 2. **A scoped-thread worker pool** (`std::thread::scope`, dependency-free)
//!    that row-partitions work. Row partitioning never splits the f32
//!    accumulation of a single output element, so results are **bit-identical
//!    for every thread count** — the property PR 1's bit-identical
//!    checkpoint/resume guarantee relies on. Thread count comes from
//!    `UAE_NUM_THREADS` (default: available parallelism); tests can pin it
//!    per-thread with [`with_num_threads`].
//! 3. **A scratch-buffer pool** (thread-local, size-class bucketed) that
//!    recycles every dropped [`crate::Matrix`]'s allocation, so tape
//!    forward/backward reuses activation and gradient buffers across steps
//!    instead of hitting the allocator for every op.
//!
//! # Determinism argument
//!
//! A parallel region hands each worker a contiguous, disjoint range of
//! *output rows*. Every output element is produced by exactly one worker
//! running exactly the serial per-row code, with the same k-ascending
//! accumulation order. No partial sums ever cross a thread boundary, so the
//! result is byte-identical to the single-threaded run. (Contrast with
//! split-K or atomic-accumulation schemes, which reorder float addition.)
//!
//! Pooled buffers are handed out with their *length* set but contents
//! unspecified (stale initialized floats from an earlier use); every consumer
//! fully overwrites them before the matrix is readable, so reuse cannot leak
//! state into results.

#![allow(clippy::too_many_arguments)]

use std::cell::{Cell, RefCell};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::LocalKey;

// --------------------------------------------------------------------- config

/// Which matmul kernels run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Cache-blocked, unrolled kernels (default).
    Blocked,
    /// The seed's reference triple loops: the test oracle, selected only
    /// through [`with_kernel_mode`].
    Naive,
}

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static MODE: Cell<KernelMode> = const { Cell::new(KernelMode::Blocked) };
}

fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("UAE_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// The configured worker count: the per-thread override if set (see
/// [`with_num_threads`]), else `UAE_NUM_THREADS`, else available parallelism.
pub fn num_threads() -> usize {
    THREAD_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(env_threads)
        .max(1)
}

/// True when the thread count was pinned by [`with_num_threads`]; a pinned
/// count bypasses the small-work heuristics so tests exercise the real
/// parallel path even on tiny shapes.
fn threads_forced() -> bool {
    THREAD_OVERRIDE.with(Cell::get).is_some()
}

/// Runs `f` with the worker count pinned to `n` on this thread (scoped;
/// restores the previous override afterwards, panic-safe).
pub fn with_num_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    with_cell(&THREAD_OVERRIDE, Some(n.max(1)), f)
}

/// The active kernel mode: the [`with_kernel_mode`] override on this thread,
/// else [`KernelMode::Blocked`].
pub fn kernel_mode() -> KernelMode {
    MODE.with(Cell::get)
}

/// Runs `f` with the kernel mode pinned on this thread (scoped, panic-safe).
pub fn with_kernel_mode<R>(mode: KernelMode, f: impl FnOnce() -> R) -> R {
    with_cell(&MODE, mode, f)
}

/// A thread's backend overrides: the [`with_num_threads`] worker count and
/// the [`with_kernel_mode`] mode. Both are thread-local, so a thread spawned
/// to run kernels starts from the defaults; capture the spawner's settings
/// with [`ThreadSettings::current`] and re-install them with
/// [`ThreadSettings::apply`] on the new thread.
#[derive(Debug, Clone, Copy)]
pub struct ThreadSettings {
    threads: Option<usize>,
    mode: KernelMode,
}

impl ThreadSettings {
    /// The calling thread's overrides.
    pub fn current() -> Self {
        ThreadSettings {
            threads: THREAD_OVERRIDE.with(Cell::get),
            mode: kernel_mode(),
        }
    }

    /// Runs `f` under these overrides on the calling thread (scoped,
    /// panic-safe).
    pub fn apply<R>(self, f: impl FnOnce() -> R) -> R {
        with_cell(&THREAD_OVERRIDE, self.threads, || {
            with_kernel_mode(self.mode, f)
        })
    }
}

/// Sets the thread-local `key` to `value` while `f` runs, restoring the
/// previous value afterwards (also when `f` panics).
pub(crate) fn with_cell<T: Copy + 'static, R>(
    key: &'static LocalKey<Cell<T>>,
    value: T,
    f: impl FnOnce() -> R,
) -> R {
    struct Restore<T: Copy + 'static>(&'static LocalKey<Cell<T>>, T);
    impl<T: Copy + 'static> Drop for Restore<T> {
        fn drop(&mut self) {
            self.0.with(|c| c.set(self.1));
        }
    }
    let _guard = Restore(key, key.with(|c| c.replace(value)));
    f()
}

// ------------------------------------------------------------- dispatch stats

thread_local! {
    static KERNEL_CALLS: Cell<u64> = const { Cell::new(0) };
    static ELEMWISE_CALLS: Cell<u64> = const { Cell::new(0) };
    static PAR_REGIONS: Cell<u64> = const { Cell::new(0) };
    static SERIAL_REGIONS: Cell<u64> = const { Cell::new(0) };
    static PAR_WORKERS: Cell<u64> = const { Cell::new(0) };
    static KERNEL_NANOS: Cell<u64> = const { Cell::new(0) };
    /// Per-dispatch wall-clock distribution in microseconds, telemetry
    /// sessions only (the totals above can't distinguish one slow dispatch
    /// from many fast ones; the tail quantiles can).
    static KERNEL_US_HIST: RefCell<uae_obs::Histogram> =
        RefCell::new(uae_obs::Histogram::new());
}

/// Kernel-dispatch counters for the calling thread. Counts are maintained
/// unconditionally (a TLS increment per dispatch); `kernel_nanos` is only
/// accumulated while a telemetry sink is installed, so the disabled-path
/// cost stays one branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Matmul-family dispatches (`matmul`, `matmul_bias`, `matmul_tn`,
    /// `matmul_nt`, `batched_matmul`, `batched_matmul_grads`).
    pub kernel_calls: u64,
    /// Element-wise dispatches (`map_elems`, `zip_map_elems`).
    pub elemwise_calls: u64,
    /// Row-partitioned regions that fanned out to the worker pool.
    pub par_regions: u64,
    /// Regions that stayed serial (small work or one thread configured).
    pub serial_regions: u64,
    /// Sum of worker counts over parallel regions; divide by `par_regions`
    /// for mean fan-out.
    pub par_workers: u64,
    /// Wall-clock nanoseconds inside matmul-family dispatches, telemetry
    /// sessions only (0 when telemetry stayed disabled).
    pub kernel_nanos: u64,
}

impl DispatchStats {
    /// Mean worker count across parallel regions (0 when none ran).
    pub fn mean_par_workers(&self) -> f64 {
        if self.par_regions == 0 {
            0.0
        } else {
            self.par_workers as f64 / self.par_regions as f64
        }
    }
}

/// Snapshot of this thread's kernel-dispatch counters.
pub fn dispatch_stats() -> DispatchStats {
    DispatchStats {
        kernel_calls: KERNEL_CALLS.with(Cell::get),
        elemwise_calls: ELEMWISE_CALLS.with(Cell::get),
        par_regions: PAR_REGIONS.with(Cell::get),
        serial_regions: SERIAL_REGIONS.with(Cell::get),
        par_workers: PAR_WORKERS.with(Cell::get),
        kernel_nanos: KERNEL_NANOS.with(Cell::get),
    }
}

/// Zeroes this thread's kernel-dispatch counters.
pub fn reset_dispatch_stats() {
    KERNEL_CALLS.with(|c| c.set(0));
    ELEMWISE_CALLS.with(|c| c.set(0));
    PAR_REGIONS.with(|c| c.set(0));
    SERIAL_REGIONS.with(|c| c.set(0));
    PAR_WORKERS.with(|c| c.set(0));
    KERNEL_NANOS.with(|c| c.set(0));
    KERNEL_US_HIST.with(|h| *h.borrow_mut() = uae_obs::Histogram::new());
}

/// This thread's per-dispatch kernel latency distribution (microseconds),
/// populated only while a telemetry sink is installed. Mergeable across
/// threads by the caller via [`uae_obs::Histogram::merge`].
pub fn kernel_latency_histogram() -> uae_obs::Histogram {
    KERNEL_US_HIST.with(|h| h.borrow().clone())
}

#[inline]
fn bump(cell: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    cell.with(|c| c.set(c.get() + by));
}

/// RAII guard around one matmul-family dispatch: counts the call always,
/// accumulates wall-clock only when telemetry is enabled.
struct KernelTimer {
    start: Option<std::time::Instant>,
}

impl KernelTimer {
    #[inline]
    fn begin() -> KernelTimer {
        bump(&KERNEL_CALLS, 1);
        KernelTimer {
            start: if uae_obs::enabled() {
                Some(std::time::Instant::now())
            } else {
                None
            },
        }
    }
}

impl Drop for KernelTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = start.elapsed().as_nanos() as u64;
            bump(&KERNEL_NANOS, nanos);
            KERNEL_US_HIST.with(|h| h.borrow_mut().record(nanos / 1_000));
        }
    }
}

/// Emits this thread's backend counters (kernel dispatch, thread-pool
/// utilization, scratch-pool hit/miss) to the active telemetry sink.
/// Cheap no-op when telemetry is disabled.
pub fn emit_backend_telemetry() {
    if !uae_obs::enabled() {
        return;
    }
    let d = dispatch_stats();
    uae_obs::counter("backend.kernel_calls", d.kernel_calls);
    uae_obs::counter("backend.elemwise_calls", d.elemwise_calls);
    uae_obs::counter("backend.par_regions", d.par_regions);
    uae_obs::counter("backend.serial_regions", d.serial_regions);
    uae_obs::gauge("backend.mean_par_workers", d.mean_par_workers());
    uae_obs::gauge("backend.kernel_ms", d.kernel_nanos as f64 / 1e6);
    let kh = kernel_latency_histogram();
    if !kh.is_empty() {
        uae_obs::gauge("backend.kernel_us_p50", kh.quantile(0.50) as f64);
        uae_obs::gauge("backend.kernel_us_p99", kh.quantile(0.99) as f64);
        uae_obs::gauge("backend.kernel_us_max", kh.max() as f64);
    }
    let s = scratch_stats();
    uae_obs::counter("scratch.hits", s.hits);
    uae_obs::counter("scratch.misses", s.misses);
    uae_obs::counter("scratch.returned", s.returned);
    uae_obs::gauge("scratch.hit_rate", s.hit_rate());
    let a = crate::arena::arena_stats();
    uae_obs::counter("exec.arena.allocs", a.allocs);
    uae_obs::counter("exec.arena.heap_allocs", a.heap_allocs);
    uae_obs::counter("exec.arena.resets", a.resets);
    uae_obs::counter("exec.arena.retires", a.retires);
    uae_obs::gauge("exec.arena.hwm_bytes", a.hwm_bytes as f64);
    uae_obs::gauge("exec.arena.live_leases", a.live as f64);
    let e = crate::exec::exec_stats();
    uae_obs::counter("exec.param_materializations", e.param_materializations);
}

// --------------------------------------------------------------- scratch pool

/// Total bytes the pool may retain per thread; recycling beyond this frees.
const MAX_POOL_BYTES: usize = 64 << 20;
/// Buffers of `2^NBUCKETS` elements or more bypass the pool entirely.
const NBUCKETS: usize = 28;

#[derive(Default)]
struct Pool {
    /// `buckets[b]` holds buffers whose capacity `c` satisfies
    /// `2^b <= c < 2^(b+1)`. Invariant: `len == capacity` and every element
    /// is an initialized `f32` (of unspecified value).
    buckets: Vec<Vec<Vec<f32>>>,
    bytes: usize,
    hits: u64,
    misses: u64,
    returned: u64,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool {
        buckets: (0..NBUCKETS).map(|_| Vec::new()).collect(),
        ..Pool::default()
    });
}

/// Allocation-reuse counters for the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Allocations served from the pool without touching the allocator.
    pub hits: u64,
    /// Allocations that fell through to the system allocator.
    pub misses: u64,
    /// Buffers returned to the pool by dropped matrices.
    pub returned: u64,
}

impl ScratchStats {
    /// Fraction of allocations served from the pool (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Snapshot of this thread's scratch-pool counters.
pub fn scratch_stats() -> ScratchStats {
    POOL.with(|p| {
        let p = p.borrow();
        ScratchStats {
            hits: p.hits,
            misses: p.misses,
            returned: p.returned,
        }
    })
}

/// Zeroes this thread's scratch-pool counters (pooled buffers remain).
pub fn reset_scratch_stats() {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.hits = 0;
        p.misses = 0;
        p.returned = 0;
    });
}

fn bucket_of(len: usize) -> usize {
    debug_assert!(len > 0);
    (usize::BITS - 1 - len.leading_zeros()) as usize
}

/// A buffer of exactly `len` initialized-but-unspecified floats. The caller
/// must overwrite every element before the result is read.
pub(crate) fn take_uninit(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let lo = bucket_of(len);
        if lo >= NBUCKETS {
            // Too large to pool (give_back refuses these sizes too, so no
            // bucket could ever satisfy the request): allocate directly.
            p.misses += 1;
            return vec![0.0; len];
        }
        // The length's own bucket may hold a large-enough buffer; every
        // buffer in the next two buckets is large enough by construction.
        let found = p.buckets[lo]
            .iter()
            .rposition(|v| v.capacity() >= len)
            .map(|i| (lo, i))
            .or_else(|| {
                (lo + 1..(lo + 3).min(NBUCKETS))
                    .find(|&b| !p.buckets[b].is_empty())
                    .map(|b| (b, p.buckets[b].len() - 1))
            });
        match found {
            Some((b, i)) => {
                let mut v = p.buckets[b].swap_remove(i);
                p.bytes -= v.capacity() * 4;
                p.hits += 1;
                v.truncate(len);
                v
            }
            None => {
                p.misses += 1;
                vec![0.0; len]
            }
        }
    })
}

/// Returns a buffer to the calling thread's pool (called by `Matrix::drop`).
pub(crate) fn recycle(mut v: Vec<f32>) {
    let cap = v.capacity();
    if cap == 0 || bucket_of(cap) >= NBUCKETS {
        return;
    }
    // Survive TLS teardown: a matrix dropped during thread exit just frees.
    let _ = POOL.try_with(|p| {
        let Ok(mut p) = p.try_borrow_mut() else {
            return;
        };
        if p.bytes + cap * 4 > MAX_POOL_BYTES {
            return;
        }
        // Re-establish the invariant len == capacity with initialized
        // contents; the tail write only runs for the (rare) shrunk case.
        v.resize(cap, 0.0);
        p.bytes += cap * 4;
        p.returned += 1;
        let b = bucket_of(cap);
        p.buckets[b].push(v);
    });
}

// ------------------------------------------------------------ parallel driver

/// Work below this many flops per extra worker stays serial: a scoped-thread
/// spawn costs tens of microseconds, so fanning out needs roughly an order of
/// magnitude more compute per worker to amortise.
const MIN_FLOPS_PER_THREAD: usize = 1 << 19;

/// How many workers a row-partitioned region should use.
fn plan_threads(rows: usize, flops: usize) -> usize {
    let requested = num_threads().min(rows.max(1));
    if requested <= 1 {
        return 1;
    }
    if threads_forced() {
        // Pinned counts (tests) bypass the amortization heuristic.
        return requested;
    }
    requested.min((flops / MIN_FLOPS_PER_THREAD).max(1))
}

/// How a region of `rows` rows and `flops` of work runs: its worker count
/// and its contiguous row ranges `(first_row, row_count)`, `per_worker` of
/// them per worker (`ceil(rows / ranges)` rows each, the remainder last).
/// One worker and one range when the region stays serial.
pub(crate) fn row_chunks(
    rows: usize,
    flops: usize,
    per_worker: usize,
) -> (usize, Vec<(usize, usize)>) {
    let workers = plan_threads(rows, flops);
    if rows == 0 || workers == 1 {
        return (1, vec![(0, rows)]);
    }
    let chunk = rows.div_ceil(workers * per_worker).max(1);
    let ranges = (0..rows)
        .step_by(chunk)
        .map(|r0| (r0, chunk.min(rows - r0)))
        .collect();
    (workers, ranges)
}

/// `buf` (`width` floats per row) cut at the row ranges of `chunks`.
pub(crate) fn split_rows<'a>(
    mut buf: &'a mut [f32],
    width: usize,
    chunks: &[(usize, usize)],
) -> Vec<&'a mut [f32]> {
    chunks
        .iter()
        .map(|&(_, n)| {
            let (head, tail) = std::mem::take(&mut buf).split_at_mut(n * width);
            buf = tail;
            head
        })
        .collect()
}

/// Cuts every buffer of `bufs` (given with its row width) at the row ranges
/// of `chunks`: entry `k` of the result holds chunk `k`'s rows of each
/// buffer, in order.
pub(crate) fn split_bufs<'a>(
    bufs: impl IntoIterator<Item = (&'a mut [f32], usize)>,
    chunks: &[(usize, usize)],
) -> Vec<Vec<&'a mut [f32]>> {
    let mut parts: Vec<Vec<&mut [f32]>> = chunks.iter().map(|_| Vec::new()).collect();
    for (buf, width) in bufs {
        for (part, rows) in parts.iter_mut().zip(split_rows(buf, width, chunks)) {
            part.push(rows);
        }
    }
    parts
}

/// Runs `work` on every part with `workers` threads: `workers − 1` scoped
/// workers and the calling thread each claim the next unclaimed part until
/// none is left. A worker that starts late (its vCPU busy elsewhere) claims
/// fewer parts instead of holding the region up, and results cannot depend
/// on who ran a part: the caller pre-splits whatever the parts own (output
/// rows, scratch) into disjoint pieces, so workers never allocate or touch
/// the caller's pool.
pub(crate) fn par_parts<P: Send>(parts: Vec<P>, workers: usize, work: &(dyn Fn(P) + Sync)) {
    let workers = workers.min(parts.len());
    if workers <= 1 {
        bump(&SERIAL_REGIONS, 1);
        parts.into_iter().for_each(work);
        return;
    }
    bump(&PAR_REGIONS, 1);
    bump(&PAR_WORKERS, workers as u64);
    let queue = Mutex::new(parts.into_iter());
    let drain = || loop {
        // Claiming is the only use of the lock, and it cannot panic.
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        match next {
            Some(part) => work(part),
            None => break,
        }
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(drain);
        }
        drain();
    });
}

/// Splits `out` into per-worker contiguous row ranges and runs
/// `kernel(first_row, row_count, chunk)` on each, the calling thread taking
/// its share ([`par_parts`]). `kernel` must fully overwrite its chunk.
fn par_rows(
    out: &mut [f32],
    rows: usize,
    row_width: usize,
    flops: usize,
    kernel: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
) {
    debug_assert_eq!(out.len(), rows * row_width);
    par_rows2(
        out,
        row_width,
        &mut [],
        0,
        rows,
        flops,
        &|r0, n, chunk, _| kernel(r0, n, chunk),
    );
}

/// A [`par_rows2`] worker body: `(first_row, row_count, a_chunk, b_chunk)`.
type PairKernel<'a> = dyn Fn(usize, usize, &mut [f32], &mut [f32]) + Sync + 'a;

/// [`par_rows`] over two buffers split in lockstep: row `r` of the work owns
/// `a[r·a_width..]` and `b[r·b_width..]`, and each worker gets the matching
/// chunks of both (`kernel(first_row, row_count, a_chunk, b_chunk)`). The
/// second buffer is a second output or caller-owned scratch, so no worker
/// allocates.
fn par_rows2(
    a: &mut [f32],
    a_width: usize,
    b: &mut [f32],
    b_width: usize,
    rows: usize,
    flops: usize,
    kernel: &PairKernel<'_>,
) {
    debug_assert_eq!(a.len(), rows * a_width);
    debug_assert_eq!(b.len(), rows * b_width);
    let (workers, chunks) = if a.is_empty() {
        (1, vec![(0, rows)])
    } else {
        row_chunks(rows, flops, 1)
    };
    let parts: Vec<_> = chunks
        .iter()
        .zip(split_rows(a, a_width, &chunks))
        .zip(split_rows(b, b_width, &chunks))
        .map(|((&(r0, n), a), b)| (r0, n, a, b))
        .collect();
    par_parts(parts, workers, &|(r0, n, a, b)| kernel(r0, n, a, b));
}

// -------------------------------------------------------------- dot primitive

/// Dot product with a fixed 8-lane accumulator split so the compiler can keep
/// it in SIMD registers. The lane structure is constant, so results are
/// deterministic across runs and thread counts (they differ from a strictly
/// sequential sum, which is fine: only run-to-run identity is guaranteed).
#[inline]
fn dot8(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let split = x.len() - x.len() % 8;
    let (xc, xr) = x.split_at(split);
    let (yc, yr) = y.split_at(split);
    let mut acc = [0.0f32; 8];
    for (xs, ys) in xc.chunks_exact(8).zip(yc.chunks_exact(8)) {
        for l in 0..8 {
            acc[l] += xs[l] * ys[l];
        }
    }
    let mut tail = 0.0f32;
    for (&a, &b) in xr.iter().zip(yr) {
        tail += a * b;
    }
    (((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))) + tail
}

/// 16-lane variant of [`dot8`] for long shared dimensions: twice the
/// accumulator width lets the compiler keep two full SIMD vectors in flight.
/// Same determinism contract — the lane structure is fixed, so results are
/// identical across runs and thread counts.
#[inline]
fn dot16(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let split = x.len() - x.len() % 16;
    let (xc, xr) = x.split_at(split);
    let (yc, yr) = y.split_at(split);
    let mut acc = [0.0f32; 16];
    for (xs, ys) in xc.chunks_exact(16).zip(yc.chunks_exact(16)) {
        for l in 0..16 {
            acc[l] += xs[l] * ys[l];
        }
    }
    let mut tail = 0.0f32;
    for (&a, &b) in xr.iter().zip(yr) {
        tail += a * b;
    }
    let mut half = [0.0f32; 8];
    for l in 0..8 {
        half[l] = acc[l] + acc[l + 8];
    }
    (((half[0] + half[4]) + (half[2] + half[6])) + ((half[1] + half[5]) + (half[3] + half[7])))
        + tail
}

/// Kernel selection by shared-dimension length (shape-only, so the choice —
/// and therefore the summation order — is deterministic for a given shape).
#[inline]
fn dot_lanes(x: &[f32], y: &[f32]) -> f32 {
    if x.len() >= 32 {
        dot16(x, y)
    } else {
        dot8(x, y)
    }
}

// ------------------------------------------------------------------- kernels
//
// All kernels compute output rows `[r0, r0 + nrows)` into `chunk` (the
// sub-slice of the output covering exactly those rows) and fully overwrite
// it. Accumulation over the shared dimension is k-ascending per output
// element in both modes, so serial and parallel runs agree bitwise.

/// Shared-dimension tile: one tile of `b` rows (`KB × n` floats) is streamed
/// against every output row in the chunk before moving on, keeping it hot in
/// L1/L2 across the whole chunk.
const KB: usize = 256;
/// `matmul_nt` tile over `b` rows, reused across the chunk's output rows.
const JB: usize = 64;

/// Rows of `a·b` (`a: m×k`, `b: k×n`), blocked over k.
fn matmul_rows_blocked(a: &[f32], b: &[f32], k: usize, n: usize, r0: usize, chunk: &mut [f32]) {
    if n == 0 {
        return;
    }
    if k == 0 {
        chunk.fill(0.0);
        return;
    }
    // The k = 0 term initialises the output: no prior zero-fill needed.
    for (i, orow) in chunk.chunks_exact_mut(n).enumerate() {
        let a0 = a[(r0 + i) * k];
        for (o, &bv) in orow.iter_mut().zip(&b[..n]) {
            *o = a0 * bv;
        }
    }
    let mut kb = 1;
    while kb < k {
        let ke = (kb + KB).min(k);
        for (i, orow) in chunk.chunks_exact_mut(n).enumerate() {
            let arow = &a[(r0 + i) * k..(r0 + i) * k + k];
            accumulate_k_span(arow, b, n, kb, ke, orow);
        }
        kb = ke;
    }
}

/// Accumulates `Σ_{kk in [kb, ke)} a[kk] · b[kk,:]` into `orow`, unrolled 4
/// k-steps at a time. Per output element the adds stay strictly k-ascending
/// and sequential, so this is bit-identical to the unrolled-by-1 loop.
#[inline]
fn accumulate_k_span(arow: &[f32], b: &[f32], n: usize, kb: usize, ke: usize, orow: &mut [f32]) {
    let mut kk = kb;
    while kk + 4 <= ke {
        let (a0, a1, a2, a3) = (arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]);
        let b0 = &b[kk * n..kk * n + n];
        let b1 = &b[(kk + 1) * n..(kk + 1) * n + n];
        let b2 = &b[(kk + 2) * n..(kk + 2) * n + n];
        let b3 = &b[(kk + 3) * n..(kk + 3) * n + n];
        for ((((o, &v0), &v1), &v2), &v3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            *o += a0 * v0;
            *o += a1 * v1;
            *o += a2 * v2;
            *o += a3 * v3;
        }
        kk += 4;
    }
    while kk < ke {
        let av = arow[kk];
        let brow = &b[kk * n..kk * n + n];
        for (o, &bv) in orow.iter_mut().zip(brow) {
            *o += av * bv;
        }
        kk += 1;
    }
}

/// The seed's i-k-j loop with the zero-skip, kept as a verification and
/// benchmarking reference.
fn matmul_rows_naive(a: &[f32], b: &[f32], k: usize, n: usize, r0: usize, chunk: &mut [f32]) {
    if n == 0 {
        return;
    }
    for (i, orow) in chunk.chunks_exact_mut(n).enumerate() {
        orow.fill(0.0);
        for kk in 0..k {
            let av = a[(r0 + i) * k + kk];
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * n..kk * n + n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Rows of `a·b + bias` — the fused dense-layer forward. The bias row seeds
/// the accumulators, so the separate broadcast-add (and its full-matrix
/// copy) disappears.
fn matmul_bias_rows(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    k: usize,
    n: usize,
    r0: usize,
    chunk: &mut [f32],
) {
    if n == 0 {
        return;
    }
    for (i, orow) in chunk.chunks_exact_mut(n).enumerate() {
        orow.copy_from_slice(bias);
        let arow = &a[(r0 + i) * k..(r0 + i) * k + k];
        let mut kb = 0;
        while kb < k {
            let ke = (kb + KB).min(k);
            accumulate_k_span(arow, b, n, kb, ke, orow);
            kb = ke;
        }
    }
}

/// `n == 1` fast path for `a·b`: every output element is one full-row dot
/// product, served by the widest lane kernel for the shape ([`dot_lanes`]).
fn matvec_rows(a: &[f32], b: &[f32], k: usize, r0: usize, chunk: &mut [f32]) {
    for (i, o) in chunk.iter_mut().enumerate() {
        *o = dot_lanes(&a[(r0 + i) * k..(r0 + i) * k + k], &b[..k]);
    }
}

/// `n == 1` fast path for `a·b + bias` (a dense layer with a single output
/// unit — the logit head): `bias + dot`.
fn matvec_bias_rows(a: &[f32], b: &[f32], bias: f32, k: usize, r0: usize, chunk: &mut [f32]) {
    for (i, o) in chunk.iter_mut().enumerate() {
        *o = bias + dot_lanes(&a[(r0 + i) * k..(r0 + i) * k + k], &b[..k]);
    }
}

/// Rows `[c0, c0+nrows)` of `aᵀ·b` (`a: r×c`, `b: r×n`): output row i is
/// `Σ_k a[k,i]·b[k,:]`. k-outer keeps the `a` and `b` accesses contiguous
/// while the chunk of output rows stays hot.
fn matmul_tn_rows_blocked(
    a: &[f32],
    b: &[f32],
    a_rows: usize,
    a_cols: usize,
    n: usize,
    c0: usize,
    nrows: usize,
    chunk: &mut [f32],
) {
    if n == 0 || nrows == 0 {
        return;
    }
    if a_rows == 0 {
        chunk.fill(0.0);
        return;
    }
    for (i, orow) in chunk.chunks_exact_mut(n).enumerate() {
        let a0 = a[c0 + i];
        for (o, &bv) in orow.iter_mut().zip(&b[..n]) {
            *o = a0 * bv;
        }
    }
    let mut kk = 1;
    while kk + 4 <= a_rows {
        let av0 = &a[kk * a_cols + c0..kk * a_cols + c0 + nrows];
        let av1 = &a[(kk + 1) * a_cols + c0..(kk + 1) * a_cols + c0 + nrows];
        let av2 = &a[(kk + 2) * a_cols + c0..(kk + 2) * a_cols + c0 + nrows];
        let av3 = &a[(kk + 3) * a_cols + c0..(kk + 3) * a_cols + c0 + nrows];
        let b0 = &b[kk * n..kk * n + n];
        let b1 = &b[(kk + 1) * n..(kk + 1) * n + n];
        let b2 = &b[(kk + 2) * n..(kk + 2) * n + n];
        let b3 = &b[(kk + 3) * n..(kk + 3) * n + n];
        for (i, orow) in chunk.chunks_exact_mut(n).enumerate() {
            // Per element the adds stay k-ascending and sequential: bitwise
            // equal to four separate k passes.
            for ((((o, &v0), &v1), &v2), &v3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                *o += av0[i] * v0;
                *o += av1[i] * v1;
                *o += av2[i] * v2;
                *o += av3[i] * v3;
            }
        }
        kk += 4;
    }
    while kk < a_rows {
        let avals = &a[kk * a_cols + c0..kk * a_cols + c0 + nrows];
        let brow = &b[kk * n..kk * n + n];
        for (&av, orow) in avals.iter().zip(chunk.chunks_exact_mut(n)) {
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
        kk += 1;
    }
}

fn matmul_tn_rows_naive(
    a: &[f32],
    b: &[f32],
    a_rows: usize,
    a_cols: usize,
    n: usize,
    c0: usize,
    nrows: usize,
    chunk: &mut [f32],
) {
    chunk.fill(0.0);
    if n == 0 || nrows == 0 {
        return;
    }
    for kk in 0..a_rows {
        let brow = &b[kk * n..kk * n + n];
        for i in 0..nrows {
            let av = a[kk * a_cols + c0 + i];
            if av == 0.0 {
                continue;
            }
            let orow = &mut chunk[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Rows of `a·bᵀ` (`a: m×k`, `b: j×k`): dot products, tiled over `b` rows so
/// a `JB × k` tile of `b` is reused across the chunk's output rows.
fn matmul_nt_rows_blocked(
    a: &[f32],
    b: &[f32],
    k: usize,
    jrows: usize,
    r0: usize,
    nrows: usize,
    chunk: &mut [f32],
) {
    if jrows == 0 || nrows == 0 {
        return;
    }
    let mut jb = 0;
    while jb < jrows {
        let je = (jb + JB).min(jrows);
        for i in 0..nrows {
            let arow = &a[(r0 + i) * k..(r0 + i) * k + k];
            let orow = &mut chunk[i * jrows..(i + 1) * jrows];
            for (dj, o) in orow[jb..je].iter_mut().enumerate() {
                *o = dot_lanes(arow, &b[(jb + dj) * k..(jb + dj) * k + k]);
            }
        }
        jb = je;
    }
}

/// Output columns one pass of [`matmul_nt_rows_wide`] computes together.
const NT_COLS: usize = 8;

/// Rows of `a·bᵀ` (`a: m×k`, `b: j×k`) [`NT_COLS`] output columns at a
/// time, reading `panels`: `b`'s first `jrows − jrows % NT_COLS` rows
/// packed by [`pack_nt_panels`]. Each output element gets exactly
/// [`dot_lanes`]' arithmetic — the same lane split of `k`, per-lane sums,
/// pairwise reduction and tail — so the result is bitwise `dot_lanes` per
/// element; only the SIMD vectors run across output columns instead of
/// along `k`, which spares the per-element horizontal reduction. The last
/// `jrows % NT_COLS` columns call `dot_lanes` on `b`. With `accumulate`
/// each element becomes `old + dot`, bitwise the product followed by an
/// `add_assign`.
fn matmul_nt_rows_wide(
    a: &[f32],
    b: &[f32],
    panels: &[f32],
    k: usize,
    jrows: usize,
    r0: usize,
    nrows: usize,
    chunk: &mut [f32],
    accumulate: bool,
) {
    let wide = jrows - jrows % NT_COLS;
    for i in 0..nrows {
        let arow = &a[(r0 + i) * k..][..k];
        let orow = &mut chunk[i * jrows..][..jrows];
        for (panel, out) in panels
            .chunks_exact((k * NT_COLS).max(1))
            .zip(orow[..wide].chunks_exact_mut(NT_COLS))
        {
            let d = if k >= 32 {
                dot_lanes_panel::<16>(arow, panel)
            } else {
                dot_lanes_panel::<8>(arow, panel)
            };
            for (o, d) in out.iter_mut().zip(d) {
                *o = if accumulate { *o + d } else { d };
            }
        }
        for (j, o) in orow.iter_mut().enumerate().skip(wide) {
            let d = dot_lanes(arow, &b[j * k..][..k]);
            *o = if accumulate { *o + d } else { d };
        }
    }
}

/// `b`'s rows (`jrows × k`) packed in blocks of [`NT_COLS`], in a pooled
/// buffer: block `jb` is a `k × NT_COLS` panel with
/// `panel[p][q] = b[jb·NT_COLS + q][p]`. The last `jrows % NT_COLS` rows are
/// left out.
pub(crate) fn pack_nt_panels(b: &[f32], jrows: usize, k: usize) -> Vec<f32> {
    let wide = jrows - jrows % NT_COLS;
    let mut out = take_uninit(wide * k);
    for (jb, panel) in out.chunks_exact_mut((k * NT_COLS).max(1)).enumerate() {
        for q in 0..NT_COLS {
            let row = &b[(jb * NT_COLS + q) * k..][..k];
            for (p, &v) in row.iter().enumerate() {
                panel[p * NT_COLS + q] = v;
            }
        }
    }
    out
}

/// `dot_lanes(arow, b_j)` for the [`NT_COLS`] columns of one panel, with
/// `L` lanes in [`dot8`] / [`dot16`]'s exact order. The eight reduced lanes
/// are built in the order the pairwise tree consumes them, so few are live
/// at once.
#[inline(always)]
fn dot_lanes_panel<const L: usize>(arow: &[f32], panel: &[f32]) -> [f32; NT_COLS] {
    const C: usize = NT_COLS;
    let k = arow.len();
    let split = k - k % L;
    let (a_lanes, a_tail) = arow.split_at(split);
    let (p_lanes, p_tail) = panel.split_at(split * C);
    let axpy = |acc: &mut [f32; C], s: f32, col: &[f32]| {
        for (x, &v) in acc.iter_mut().zip(col) {
            *x += s * v;
        }
    };
    // Reduced lane `l`: dot8's `acc[l]`, or dot16's `acc[l] + acc[l + 8]`.
    let lane = |l: usize| -> [f32; C] {
        let mut acc = [0.0f32; C];
        let mut upper = [0.0f32; C];
        for (a, p) in a_lanes.chunks_exact(L).zip(p_lanes.chunks_exact(L * C)) {
            axpy(&mut acc, a[l], &p[l * C..][..C]);
            if L == 16 {
                axpy(&mut upper, a[l + 8], &p[(l + 8) * C..][..C]);
            }
        }
        if L == 16 {
            for (x, &u) in acc.iter_mut().zip(&upper) {
                *x += u;
            }
        }
        acc
    };
    let add = |x: [f32; C], y: [f32; C]| -> [f32; C] { std::array::from_fn(|q| x[q] + y[q]) };
    let mut tail = [0.0f32; C];
    for (&s, col) in a_tail.iter().zip(p_tail.chunks_exact(C)) {
        axpy(&mut tail, s, col);
    }
    let left = add(add(lane(0), lane(4)), add(lane(2), lane(6)));
    let right = add(add(lane(1), lane(5)), add(lane(3), lane(7)));
    add(add(left, right), tail)
}

fn matmul_nt_rows_naive(
    a: &[f32],
    b: &[f32],
    k: usize,
    jrows: usize,
    r0: usize,
    nrows: usize,
    chunk: &mut [f32],
    accumulate: bool,
) {
    for i in 0..nrows {
        let arow = &a[(r0 + i) * k..(r0 + i) * k + k];
        let orow = &mut chunk[i * jrows..(i + 1) * jrows];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            *o = if accumulate { *o + acc } else { acc };
        }
    }
}

// ------------------------------------------------------------- chunk bodies
//
// What one worker of each matmul-family region runs, under the mode the
// region's caller read (a spawned worker starts from the default mode). The
// public entries below and the tape's fused GRU regions share them, so every
// caller gets one definition of each product's arithmetic.

/// Rows `[r0, r0 + chunk rows)` of `a·b` (`a: m×k`, `b: k×n`) into `chunk`.
pub(crate) fn matmul_chunk(
    mode: KernelMode,
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    r0: usize,
    chunk: &mut [f32],
) {
    match mode {
        KernelMode::Blocked if n == 1 && k > 0 => matvec_rows(a, b, k, r0, chunk),
        KernelMode::Blocked => matmul_rows_blocked(a, b, k, n, r0, chunk),
        KernelMode::Naive => matmul_rows_naive(a, b, k, n, r0, chunk),
    }
}

/// Rows `[r0, r0 + chunk rows)` of `a·b + bias` into `chunk`. In `Blocked`
/// mode the bias seeds the accumulator, so the per-element sum order is
/// `bias + Σ_k`; in `Naive` mode it is `Σ_k` then `+ bias`.
pub(crate) fn matmul_bias_chunk(
    mode: KernelMode,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    k: usize,
    n: usize,
    r0: usize,
    chunk: &mut [f32],
) {
    match mode {
        KernelMode::Blocked if n == 1 && k > 0 => matvec_bias_rows(a, b, bias[0], k, r0, chunk),
        KernelMode::Blocked => matmul_bias_rows(a, b, bias, k, n, r0, chunk),
        KernelMode::Naive => {
            matmul_rows_naive(a, b, k, n, r0, chunk);
            for orow in chunk.chunks_exact_mut(n.max(1)) {
                for (o, &bv) in orow.iter_mut().zip(bias) {
                    *o += bv;
                }
            }
        }
    }
}

/// Rows `[r0, r0 + nrows)` of `a·bᵀ` (`a: m×k`, `b: j×k`) into `chunk`, or
/// added to it when `accumulate` (each element `old + dot`: bitwise the
/// product followed by an `add_assign`). Blocked mode also reads `panels`,
/// `b` packed by [`pack_nt_panels`] ([`matmul_nt_rows_wide`]).
pub(crate) fn matmul_nt_chunk(
    mode: KernelMode,
    a: &[f32],
    b: &[f32],
    panels: &[f32],
    k: usize,
    jrows: usize,
    r0: usize,
    nrows: usize,
    chunk: &mut [f32],
    accumulate: bool,
) {
    match mode {
        KernelMode::Blocked => {
            matmul_nt_rows_wide(a, b, panels, k, jrows, r0, nrows, chunk, accumulate)
        }
        KernelMode::Naive => matmul_nt_rows_naive(a, b, k, jrows, r0, nrows, chunk, accumulate),
    }
}

// ------------------------------------------------------------ public entries

/// `a·b` for `a: m×k`, `b: k×n`, written row-major into `out` (length `m·n`).
pub(crate) fn matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(out.len(), m * n);
    let _t = KernelTimer::begin();
    let mode = kernel_mode();
    par_rows(out, m, n, m * k * n, &|r0, _nrows, chunk| {
        matmul_chunk(mode, a, b, k, n, r0, chunk)
    });
}

/// `a·b + bias` (bias broadcast over rows) — fused dense-layer forward. Each
/// mode is deterministic across thread counts (see [`matmul_bias_chunk`]).
pub(crate) fn matmul_bias(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(bias.len(), n);
    debug_assert_eq!(out.len(), m * n);
    let _t = KernelTimer::begin();
    let mode = kernel_mode();
    par_rows(out, m, n, m * k * n, &|r0, _nrows, chunk| {
        matmul_bias_chunk(mode, a, b, bias, k, n, r0, chunk)
    });
}

/// `aᵀ·b` for `a: r×c`, `b: r×n` (output `c×n`), without materialising `aᵀ`.
pub(crate) fn matmul_tn(
    a_rows: usize,
    a_cols: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), a_cols * n);
    let _t = KernelTimer::begin();
    let mode = kernel_mode();
    par_rows(
        out,
        a_cols,
        n,
        a_rows * a_cols * n,
        &|c0, nrows, chunk| match mode {
            KernelMode::Blocked => {
                matmul_tn_rows_blocked(a, b, a_rows, a_cols, n, c0, nrows, chunk)
            }
            KernelMode::Naive => matmul_tn_rows_naive(a, b, a_rows, a_cols, n, c0, nrows, chunk),
        },
    );
}

/// `Σ_s a_sᵀ·b_s` over `segments` (`a_s: r_s×c`, `b_s: r_s×n`; output
/// `c×n`), added latest segment first — the order in which a per-step tape
/// accumulates a weight shared by every step. Each segment's product is the
/// [`matmul_tn`] row kernel's, so the result is bitwise per-segment
/// `matmul_tn` followed by in-order `add_assign`s. `scratch` (length `c·n`)
/// holds one segment's product; it is split across workers with the
/// output, so no worker allocates.
pub(crate) fn matmul_tn_segmented(
    a_cols: usize,
    n: usize,
    segments: &[(&[f32], &[f32])],
    out: &mut [f32],
    scratch: &mut [f32],
) {
    debug_assert_eq!(out.len(), a_cols * n);
    debug_assert_eq!(scratch.len(), a_cols * n);
    let _t = KernelTimer::begin();
    let mode = kernel_mode();
    let rows: usize = segments.iter().map(|(_, b)| b.len() / n.max(1)).sum();
    let segment = |(a, b): &(&[f32], &[f32]), c0: usize, nrows: usize, dst: &mut [f32]| {
        let len = a.len().checked_div(a_cols).unwrap_or(0);
        debug_assert_eq!(b.len(), len * n, "segment row mismatch");
        match mode {
            KernelMode::Blocked => matmul_tn_rows_blocked(a, b, len, a_cols, n, c0, nrows, dst),
            KernelMode::Naive => matmul_tn_rows_naive(a, b, len, a_cols, n, c0, nrows, dst),
        }
    };
    par_rows2(
        out,
        n,
        scratch,
        n,
        a_cols,
        rows * a_cols * n,
        &|c0, nrows, chunk, part| {
            let (last, earlier) = segments.split_last().expect("at least one segment");
            segment(last, c0, nrows, chunk);
            for seg in earlier.iter().rev() {
                segment(seg, c0, nrows, part);
                for (o, &p) in chunk.iter_mut().zip(part.iter()) {
                    *o += p;
                }
            }
        },
    );
}

/// `a·bᵀ` for `a: m×k`, `b: j×k` (output `m×j`), without materialising `bᵀ`.
pub(crate) fn matmul_nt(m: usize, k: usize, jrows: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(out.len(), m * jrows);
    let _t = KernelTimer::begin();
    let mode = kernel_mode();
    let panels = pack_nt_panels(b, jrows, k);
    par_rows(out, m, jrows, m * k * jrows, &|r0, nrows, chunk| {
        matmul_nt_chunk(mode, a, b, &panels, k, jrows, r0, nrows, chunk, false)
    });
    recycle(panels);
}

/// Batched product of 3-D tensors packed as 2-D (see
/// [`crate::Tape::batched_matmul`] for the packing convention). Parallelises
/// over batch slices; each slice is an independent blocked matmul.
pub(crate) fn batched_matmul(
    batch: usize,
    m: usize,
    p: usize,
    n: usize,
    trans_b: bool,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), batch * m * n);
    let _t = KernelTimer::begin();
    let mode = kernel_mode();
    // A slice of `b` is n×p when transposed (packing (batch, n, p)), else
    // p×n — the same element count either way.
    let bsl = p * n;
    par_rows(out, batch, m * n, batch * m * p * n, &|s0, _ns, chunk| {
        for (s, oslice) in chunk.chunks_exact_mut((m * n).max(1)).enumerate() {
            let aslice = &a[(s0 + s) * m * p..(s0 + s + 1) * m * p];
            let bslice = &b[(s0 + s) * bsl..(s0 + s + 1) * bsl];
            match (trans_b, mode) {
                (false, KernelMode::Blocked) => {
                    matmul_rows_blocked(aslice, bslice, p, n, 0, oslice)
                }
                (false, KernelMode::Naive) => matmul_rows_naive(aslice, bslice, p, n, 0, oslice),
                (true, KernelMode::Blocked) => {
                    matmul_nt_rows_blocked(aslice, bslice, p, n, 0, m, oslice)
                }
                (true, KernelMode::Naive) => {
                    matmul_nt_rows_naive(aslice, bslice, p, n, 0, m, oslice, false)
                }
            }
        }
    });
}

/// Gradients of [`batched_matmul`] for upstream gradient `g`, written into
/// `ga` (length `batch·m·p`) and `gb` (length `batch·p·n`). Parallelises over
/// batch slices; `ga` and `gb` rows are disjoint per slice, so no
/// accumulation crosses a thread boundary.
#[allow(clippy::too_many_arguments)]
pub(crate) fn batched_matmul_grads(
    batch: usize,
    m: usize,
    p: usize,
    n: usize,
    trans_b: bool,
    a: &[f32],
    b: &[f32],
    g: &[f32],
    ga: &mut [f32],
    gb: &mut [f32],
) {
    // Per-batch slice of `b`/`gb`: n×p when transposed, p×n otherwise —
    // the same element count either way.
    let _t = KernelTimer::begin();
    let bsl = p * n;
    debug_assert_eq!(ga.len(), batch * m * p);
    debug_assert_eq!(gb.len(), batch * bsl);
    let mode = kernel_mode();
    let kernel = |s0: usize, _ns: usize, ga_chunk: &mut [f32], gb_chunk: &mut [f32]| {
        for (s, (gas, gbs)) in ga_chunk
            .chunks_exact_mut((m * p).max(1))
            .zip(gb_chunk.chunks_exact_mut(bsl.max(1)))
            .enumerate()
        {
            let aslice = &a[(s0 + s) * m * p..(s0 + s + 1) * m * p];
            let bslice = &b[(s0 + s) * bsl..(s0 + s + 1) * bsl];
            let gslice = &g[(s0 + s) * m * n..(s0 + s + 1) * m * n];
            match (trans_b, mode) {
                // C = A·Bᵀ per slice: gA = G·B (m×n · n×p), gB = Gᵀ·A (n×p).
                (true, KernelMode::Blocked) => {
                    matmul_rows_blocked(gslice, bslice, n, p, 0, gas);
                    matmul_tn_rows_blocked(gslice, aslice, m, n, p, 0, n, gbs);
                }
                (true, KernelMode::Naive) => {
                    matmul_rows_naive(gslice, bslice, n, p, 0, gas);
                    matmul_tn_rows_naive(gslice, aslice, m, n, p, 0, n, gbs);
                }
                // C = A·B per slice: gA = G·Bᵀ (m×n · (p×n)ᵀ), gB = Aᵀ·G (p×n).
                (false, KernelMode::Blocked) => {
                    matmul_nt_rows_blocked(gslice, bslice, n, p, 0, m, gas);
                    matmul_tn_rows_blocked(aslice, gslice, m, p, n, 0, p, gbs);
                }
                (false, KernelMode::Naive) => {
                    matmul_nt_rows_naive(gslice, bslice, n, p, 0, m, gas, false);
                    matmul_tn_rows_naive(aslice, gslice, m, p, n, 0, p, gbs);
                }
            }
        }
    };
    par_rows2(ga, m * p, gb, bsl, batch, 2 * batch * m * p * n, &kernel);
}

/// Element-wise map into `out`, row-partitioned across the pool for large
/// buffers.
pub(crate) fn map_elems(src: &[f32], out: &mut [f32], f: &(dyn Fn(f32) -> f32 + Sync)) {
    debug_assert_eq!(out.len(), src.len());
    bump(&ELEMWISE_CALLS, 1);
    par_rows(out, src.len(), 1, src.len(), &|r0, nrows, chunk| {
        for (o, &x) in chunk.iter_mut().zip(&src[r0..r0 + nrows]) {
            *o = f(x);
        }
    });
}

/// Element-wise zip-map into `out`, row-partitioned across the pool for
/// large buffers.
pub(crate) fn zip_map_elems(
    x: &[f32],
    y: &[f32],
    out: &mut [f32],
    f: &(dyn Fn(f32, f32) -> f32 + Sync),
) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(out.len(), x.len());
    bump(&ELEMWISE_CALLS, 1);
    par_rows(out, x.len(), 1, x.len(), &|r0, nrows, chunk| {
        for ((o, &a), &b) in chunk
            .iter_mut()
            .zip(&x[r0..r0 + nrows])
            .zip(&y[r0..r0 + nrows])
        {
            *o = f(a, b);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_buffers() {
        // Stats are thread-local; run on a dedicated thread so the harness's
        // other tests can't interleave.
        std::thread::scope(|s| {
            s.spawn(|| {
                reset_scratch_stats();
                let v = take_uninit(1000);
                recycle(v);
                let v2 = take_uninit(900);
                assert!(v2.capacity() >= 1000, "should reuse the 1000-buffer");
                assert_eq!(v2.len(), 900);
                let stats = scratch_stats();
                assert_eq!(stats.hits, 1);
                assert_eq!(stats.returned, 1);
            });
        });
    }

    #[test]
    fn thread_override_is_scoped() {
        let outer = num_threads();
        with_num_threads(3, || {
            assert_eq!(num_threads(), 3);
            with_num_threads(5, || assert_eq!(num_threads(), 5));
            assert_eq!(num_threads(), 3);
        });
        assert_eq!(num_threads(), outer);
    }

    #[test]
    fn thread_settings_carry_onto_a_spawned_thread() {
        let seen = |s: ThreadSettings| {
            std::thread::scope(|sc| {
                sc.spawn(move || s.apply(|| (num_threads(), threads_forced(), kernel_mode())))
                    .join()
                    .unwrap()
            })
        };
        let pinned = with_num_threads(3, || {
            with_kernel_mode(KernelMode::Naive, ThreadSettings::current)
        });
        assert_eq!(seen(pinned), (3, true, KernelMode::Naive));
        // Without overrides the spawned thread keeps the defaults, including
        // the small-work heuristic a pinned count would bypass.
        let plain = seen(ThreadSettings::current());
        assert_eq!(plain, (num_threads(), false, KernelMode::Blocked));
    }

    fn mm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        matmul(m, k, n, a, b, &mut out);
        out
    }

    #[test]
    fn dot8_matches_sequential_within_tolerance() {
        let x: Vec<f32> = (0..103).map(|i| (i as f32 * 0.37).sin()).collect();
        let y: Vec<f32> = (0..103).map(|i| (i as f32 * 0.11).cos()).collect();
        let seq: f32 = x.iter().zip(&y).map(|(&a, &b)| a * b).sum();
        assert!((dot8(&x, &y) - seq).abs() < 1e-4);
    }

    #[test]
    fn dot16_matches_sequential_within_tolerance() {
        for len in [0, 1, 15, 16, 17, 31, 32, 33, 100, 257] {
            let x: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
            let y: Vec<f32> = (0..len).map(|i| (i as f32 * 0.11).cos()).collect();
            let seq: f32 = x.iter().zip(&y).map(|(&a, &b)| a * b).sum();
            assert!(
                (dot16(&x, &y) - seq).abs() < 1e-4,
                "len {len}: {} vs {seq}",
                dot16(&x, &y)
            );
        }
    }

    #[test]
    fn dot_lanes_is_deterministic_per_shape() {
        let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.9).sin()).collect();
        let y: Vec<f32> = (0..64).map(|i| (i as f32 * 0.4).cos()).collect();
        assert_eq!(dot_lanes(&x, &y), dot16(&x, &y), "long dots pick dot16");
        assert_eq!(
            dot_lanes(&x[..20], &y[..20]),
            dot8(&x[..20], &y[..20]),
            "short dots pick dot8"
        );
    }

    #[test]
    fn blocked_matmul_matches_naive_bitwise_on_these_inputs() {
        // Same per-element accumulation order; the only difference is the
        // naive zero-skip, which cannot change finite sums here.
        let a: Vec<f32> = (0..7 * 5).map(|i| ((i * 37) % 11) as f32 - 5.0).collect();
        let b: Vec<f32> = (0..5 * 9).map(|i| ((i * 53) % 13) as f32 * 0.25).collect();
        let blocked = with_kernel_mode(KernelMode::Blocked, || mm(7, 5, 9, &a, &b));
        let naive = with_kernel_mode(KernelMode::Naive, || mm(7, 5, 9, &a, &b));
        assert_eq!(blocked, naive);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let a: Vec<f32> = (0..33 * 17).map(|i| (i as f32 * 0.7).sin()).collect();
        let b: Vec<f32> = (0..17 * 29).map(|i| (i as f32 * 1.3).cos()).collect();
        let serial = with_num_threads(1, || mm(33, 17, 29, &a, &b));
        for nt in [2, 3, 4, 7] {
            let par = with_num_threads(nt, || mm(33, 17, 29, &a, &b));
            assert_eq!(serial, par, "thread count {nt} changed the result");
        }
    }

    #[test]
    fn matvec_parallel_matches_serial_bitwise() {
        // The n == 1 lane path must stay bit-identical across thread counts
        // and match the naive oracle within tolerance.
        for k in [1usize, 7, 8, 9, 31, 32, 33, 100] {
            let a: Vec<f32> = (0..65 * k).map(|i| (i as f32 * 0.7).sin()).collect();
            let b: Vec<f32> = (0..k).map(|i| (i as f32 * 1.3).cos()).collect();
            let serial = with_num_threads(1, || mm(65, k, 1, &a, &b));
            for nt in [2, 4, 7] {
                let par = with_num_threads(nt, || mm(65, k, 1, &a, &b));
                assert_eq!(serial, par, "k {k}, thread count {nt}");
            }
            let naive = with_kernel_mode(KernelMode::Naive, || mm(65, k, 1, &a, &b));
            for (s, n) in serial.iter().zip(&naive) {
                assert!((s - n).abs() < 1e-4, "k {k}: {s} vs {n}");
            }
        }
    }

    #[test]
    fn wide_nt_kernel_is_dot_lanes_per_element() {
        // Shared dimensions on both sides of the dot8/dot16 switch, with and
        // without tails; column counts on both sides of the eight-wide blocks.
        for k in [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 64, 100, 142] {
            for jrows in [1usize, 7, 8, 9, 17, 142] {
                let m = 5;
                let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
                let b: Vec<f32> = (0..jrows * k).map(|i| (i as f32 * 0.11).cos()).collect();
                let panels = pack_nt_panels(&b, jrows, k);
                let mut per_element = vec![0.0f32; m * jrows];
                matmul_nt_rows_blocked(&a, &b, k, jrows, 0, m, &mut per_element);
                let mut wide = vec![7.0f32; m * jrows];
                matmul_nt_rows_wide(&a, &b, &panels, k, jrows, 0, m, &mut wide, false);
                assert_eq!(wide, per_element, "k {k}, jrows {jrows}");
                let mut added = per_element.clone();
                matmul_nt_rows_wide(&a, &b, &panels, k, jrows, 0, m, &mut added, true);
                let doubled: Vec<f32> = per_element.iter().map(|&x| x + x).collect();
                assert_eq!(added, doubled, "accumulate: k {k}, jrows {jrows}");
            }
        }
    }

    #[test]
    fn empty_dims_are_handled() {
        let mut out = [0.0f32; 0];
        matmul(0, 3, 4, &[], &[0.0; 12], &mut out);
        assert_eq!(mm(2, 0, 3, &[], &[]), vec![0.0; 6]);
        let mut nt_out = vec![7.0f32; 6];
        matmul_nt(2, 0, 3, &[], &[], &mut nt_out);
        assert_eq!(nt_out, vec![0.0; 6]);
        let mut tn_out = vec![7.0f32; 6];
        matmul_tn(0, 2, 3, &[], &[], &mut tn_out);
        assert_eq!(tn_out, vec![0.0; 6]);
    }
}
