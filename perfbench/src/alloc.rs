//! Heap accounting behind `peak_heap_mb`: the process's global allocator
//! is the system one, wrapped to count live bytes and their high-water
//! mark. The server runs in this process, so its allocations count too.
//!
//! Resident-set peaks (`VmHWM`) of this multi-threaded process move by
//! ±10% between runs of one seed as allocator arenas fill differently;
//! live heap bytes do not depend on arena placement.
//!
//! Only blocks of at least [`COUNTED_BYTES`] are counted: columns, hash
//! tables, request bodies and result buffers, where the memory is. Counting
//! every small allocation on one shared counter slowed the request mix by
//! 8% through cache-line contention between threads. Threads inside
//! [`uncounted`] are not counted either: the benchmark's own clients and
//! their growing sample buffers are not the program under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Smallest block the counters track.
pub const COUNTED_BYTES: usize = 4096;

/// The counting wrapper around [`System`].
pub struct Counting;

// Statistics only: no other data is published through these, so relaxed
// ordering suffices.
// Signed, so a block freed by a counted thread after an uncounted one
// allocated it cannot wrap the count.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    // Const-initialised and without a destructor: safe to read from
    // inside the allocator.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

/// While the returned guard lives, this thread's blocks are not counted.
pub fn uncounted() -> Uncounted {
    Uncounted(UNCOUNTED.with(|c| c.replace(true)))
}

/// Restores the thread's previous counting state when dropped.
pub struct Uncounted(bool);

impl Drop for Uncounted {
    fn drop(&mut self) {
        UNCOUNTED.with(|c| c.set(self.0));
    }
}

/// The bytes of a block of `size` that the counters track.
fn counted(size: usize) -> isize {
    if size >= COUNTED_BYTES && !UNCOUNTED.try_with(Cell::get).unwrap_or(false) {
        isize::try_from(size).unwrap_or(isize::MAX)
    } else {
        0
    }
}

fn grew(bytes: isize) {
    if bytes == 0 {
        return;
    }
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: isize) {
    if bytes == 0 {
        return;
    }
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(counted(layout.size()));
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(counted(layout.size()));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) };
        shrank(counted(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` pass through.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            let (old, new) = (counted(layout.size()), counted(new_size));
            if new >= old {
                grew(new - old);
            } else {
                shrank(old - new);
            }
        }
        moved
    }
}

/// Start a new high-water mark from the current live bytes.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live heap, in MB, since the last [`reset_peak`].
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed).max(0) as f64 / 1e6
}
