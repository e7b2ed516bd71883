//! The benchmark's global allocator: the system allocator, which also
//! counts live heap bytes while [`peak_during`] measures a call.
//!
//! The resident size of the process is a poor measure of a driver call:
//! it holds the staged datasets, and the allocator keeps freed memory
//! resident in amounts that vary from run to run. Counting the bytes the
//! call allocates and frees gives the peak it holds at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::Relaxed};
use std::sync::Mutex;

/// The system allocator, counting while a measurement is on.
pub struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// One measurement at a time: the counters are process-wide.
static MEASURING: Mutex<()> = Mutex::new(());

fn note(delta: i64) {
    if ON.load(Relaxed) {
        let live = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method passes its arguments unchanged to `System` and
// returns `System`'s result, so `System`'s guarantees hold; the counting
// only updates atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Runs `f` and returns its value with the most heap bytes, from any
/// thread, held at once while it ran above those live when it began.
/// Memory allocated before `f` and freed during it counts against the
/// peak, so the figure can understate it by that much.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let _one = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
    let value = f();
    ON.store(false, Relaxed);
    (value, PEAK.load(Relaxed).max(0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    /// Other tests' threads allocate and free small amounts while these
    /// run. Each test frees what it measured inside its own measurement,
    /// so a large free never lands in the other's.
    const SLACK: u64 = 256 << 10;

    #[test]
    fn counts_the_peak_not_the_end_state() {
        let (_, peak) = peak_during(|| {
            let a = black_box(vec![0u8; 4 << 20]);
            drop(a);
            let b = black_box(vec![0u8; 1 << 20]);
            drop(b);
        });
        assert!(peak + SLACK >= 4 << 20, "peak {peak}");
        assert!(peak < (5 << 20) - SLACK, "peak {peak}");
    }

    #[test]
    fn counts_growth_by_realloc() {
        let (len, peak) = peak_during(|| {
            let mut v: Vec<u64> = Vec::with_capacity(1);
            v.extend(0..(1u64 << 18));
            black_box(v).len() as u64
        });
        assert!(peak + SLACK >= 8 * len, "peak {peak}");
    }
}
