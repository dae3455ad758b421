//! A counting global allocator (std only): the system allocator plus two
//! process-wide counters, bytes allocated and net bytes allocated minus
//! freed. The traced run reads them around each span for
//! `data.alloc_bytes.*` and around the served state for
//! `data.live_bytes_per_atom`.
//!
//! Counting is gated like the obs probes: off, each call pays one relaxed
//! load of a flag no thread writes, so untraced runs do not bounce the
//! counters' cache line between the daemon's and the clients' threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forwards to [`System`] and counts while counting is on. The counters
/// are statistics that publish no other data, so `Relaxed` suffices.
pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

/// Switches counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Bytes allocated while counting was on (growth by `realloc` counts as
/// allocation; frees do not subtract).
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// A reading of the net-allocation counter. Frees of blocks allocated
/// before counting began subtract too, so only differences between two
/// readings mean anything: see [`live_growth`].
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Net bytes allocated since the reading `before` (0 if more was freed).
pub fn live_growth(before: u64) -> u64 {
    let delta = live_bytes().wrapping_sub(before) as i64;
    delta.max(0) as u64
}

fn grew(n: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATED.fetch_add(n as u64, Ordering::Relaxed);
        LIVE.fetch_add(n as u64, Ordering::Relaxed);
    }
}

fn shrank(n: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(n as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are touched only after
// the forwarded call and never affect the returned pointer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` are passed on as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
