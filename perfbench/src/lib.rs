//! End-to-end and per-layer benchmark of the DASH stack.
//!
//! One traffic plan ([`plan::plan`]) drives three executors through one
//! adapter each ([`exec`]): the serial discrete-event engine, dash-par's
//! sharded executor and dash-rt's wall-clock loop. Every run checks its
//! outputs ([`check`]) and reports the metrics named in `BENCHMARK.json`
//! ([`report`]).

pub mod check;
pub mod exec;
pub mod plan;
pub mod probe;
pub mod report;
pub mod world;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus a process-wide and a per-thread allocation counter.
pub struct CountingAlloc;

// SAFETY: every operation is delegated to `System`; the additions are a
// relaxed atomic increment and a const-initialised thread-local cell,
// neither of which allocates or touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

fn count() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations by every thread of the process so far.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Heap allocations by the calling thread so far.
pub fn thread_alloc_count() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage() -> Rusage {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a properly sized, writable `struct rusage` for the
    // 64-bit Linux ABI; RUSAGE_SELF (0) covers every thread of the process.
    unsafe {
        getrusage(0, &mut u);
    }
    u
}

/// CPU time (user + system, all threads) the process has used so far.
pub fn cpu_time() -> Duration {
    let u = rusage();
    let us = (u.utime.sec + u.stime.sec) * 1_000_000 + u.utime.usec + u.stime.usec;
    Duration::from_micros(us.max(0) as u64)
}

/// Peak resident set of the process so far, bytes.
pub fn peak_rss_bytes() -> u64 {
    rusage().maxrss.max(0) as u64 * 1024
}

/// FNV-1a, for digests that must not depend on the process.
struct Fnv(u64);

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Digest of a round's outcome on the virtual clock: every sender and
/// call record, every delivery (sorted, so the order worlds are merged in
/// does not matter) and every registry counter. Rounds of one seed give
/// the same digest round after round, and on dash-par at any shard count.
pub fn digest(r: &exec::RoundOut) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let rec = &r.rec;
    rec.voice_tx.hash(&mut h);
    rec.bulk_tx.hash(&mut h);
    rec.churn_tx.hash(&mut h);
    rec.calls.hash(&mut h);
    for rx in [&rec.voice_rx, &rec.bulk_rx, &rec.churn_rx] {
        let mut v = rx.clone();
        v.sort_unstable();
        v.hash(&mut h);
    }
    for (name, value) in r.registry.counters() {
        name.hash(&mut h);
        value.hash(&mut h);
    }
    h.finish()
}
