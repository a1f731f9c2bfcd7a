//! The segmented weight-gradient kernel (`Matrix::matmul_tn_segmented`)
//! must not allocate on backend worker threads: the caller pre-splits the
//! output and the scratch buffer across workers. A counting allocator sees
//! every thread's allocations, so this binary holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use uae_tensor::{with_num_threads, Matrix, Rng};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards every call to `System` unchanged; the counter is a
// relaxed atomic increment with no allocation of its own.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Fewest allocations any of five runs of `f` made.
fn allocs(f: impl Fn()) -> usize {
    (0..5)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            f();
            ALLOCS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap()
}

#[test]
fn segmented_matmul_tn_allocates_no_more_than_one_matmul_tn() {
    let mut rng = Rng::seed_from_u64(3);
    let a = Matrix::randn(128, 40, 1.0, &mut rng);
    let b = Matrix::randn(128, 24, 1.0, &mut rng);
    let segs: Vec<(Matrix, Matrix)> = (0..8)
        .map(|_| {
            (
                Matrix::randn(16, 40, 1.0, &mut rng),
                Matrix::randn(16, 24, 1.0, &mut rng),
            )
        })
        .collect();
    let pairs: Vec<(&Matrix, &Matrix)> = segs.iter().map(|(a, b)| (a, b)).collect();
    with_num_threads(4, || {
        // Warm the calling thread's scratch pool so its buffers are reused.
        for _ in 0..3 {
            drop(a.matmul_tn(&b));
            drop(Matrix::matmul_tn_segmented(&pairs));
        }
        // Both fan out to the same four workers over the same 40 output
        // rows. Beyond that, the segmented kernel's eight segments and its
        // scratch buffer cost one allocation: the caller's list of segment
        // slices.
        let plain = allocs(|| drop(a.matmul_tn(&b)));
        let segmented = allocs(|| drop(Matrix::matmul_tn_segmented(&pairs)));
        assert!(
            segmented <= plain + 1,
            "segmented matmul_tn made {segmented} allocations, one matmul_tn {plain}"
        );
    });
}
