//! A counting global allocator for allocation-regression tests.
//!
//! The engines promise an allocation-free steady-state tick loop; this
//! module gives tests a way to *pin* that promise. A test binary
//! registers the [`CountingAllocator`] as its global allocator and
//! compares [`allocation_count`] deltas around engine runs — if a run
//! twice as long allocates exactly as much as a short one, the per-tick
//! allocation count is provably zero. Counts are kept per thread, so
//! tests of one binary running in parallel never see each other's
//! allocations.
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: dva_testutil::CountingAllocator = dva_testutil::CountingAllocator;
//!
//! let before = dva_testutil::allocation_count();
//! run_the_engine();
//! let allocs = dva_testutil::allocation_count() - before;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialized with no destructor: touching it from inside
    // the allocator never allocates and never registers a TLS dtor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` rather than `with`: an allocation during thread
    // teardown must not panic inside the allocator.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// Heap allocations (including reallocations) performed by the calling
/// thread since it started, when [`CountingAllocator`] is installed as
/// the global allocator. Always zero otherwise.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A [`System`]-backed allocator that counts every allocation.
///
/// Deallocations are deliberately not tracked: regression tests compare
/// *allocation* deltas, and frees of equal-sized buffers would mask a
/// steady-state churn of alloc/free pairs.
pub struct CountingAllocator;

// The impl forwards verbatim to `System`; the only addition is a
// thread-local counter increment on each allocating entry point.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}
