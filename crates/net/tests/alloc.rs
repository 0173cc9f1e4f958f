//! The channel driver's steady state allocates nothing.
//!
//! A counting global allocator wraps the system one. It counts only the
//! allocations of a thread that has switched counting on, i.e. of the
//! test thread inside its counted window. Other threads (the test
//! harness runs its own) allocate at times of their own, and counting
//! them made the pins flaky.
//!
//! The pin covers a Two-Choices deployment and a Rapid one; the Rapid
//! warm-up crosses two phases, so Sync-Gadget jumps (an in-place median)
//! fall inside the counted steps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use rapid_core::facade::{EngineKind, Sim};
use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_net::Cluster;
use rapid_sim::prelude::*;

/// Counts every allocation and reallocation of a counting thread, then
/// defers to [`System`].
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations count. `const`-initialised and
    /// without a destructor, so reading it never allocates and works on
    /// any thread at any time, as code inside an allocator must.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// The allocations the current thread makes while `f` runs.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// atomic and the flag a const thread-local without a destructor, and
// neither ever allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees on `layout` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by this allocator, hence by `System`,
        // with `layout`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 1 << 10;

/// Allocations over 2·10⁴ channel steps after `warmup` steps.
fn warm_allocations(builder: SimBuilder, warmup: u64) -> u64 {
    let counts = [3 * N as u64 / 5, N as u64 - 3 * N as u64 / 5];
    let mut cluster = Cluster::from_builder(
        builder
            .topology(Complete::new(N))
            .counts(&counts)
            .engine(EngineKind::Net)
            .seed(Seed::new(0xA11C)),
    )
    .expect("valid net assembly");
    for _ in 0..warmup {
        cluster.step_channel();
    }
    let ((), allocations) = allocations_in(|| {
        for _ in 0..20_000 {
            cluster.step_channel();
        }
    });
    allocations
}

#[test]
fn channel_steps_do_not_allocate_once_warm() {
    // Warm-up: every node has ticked (and sized its pending-query list)
    // with overwhelming probability, and the wire has seen its largest
    // cascade.
    let gossip = warm_allocations(Sim::builder().gossip(GossipRule::TwoChoices), 10 * N as u64);
    assert!(
        gossip < 20,
        "Two-Choices: {gossip} allocations over 2·10⁴ warm steps"
    );

    // Rapid: two phases of warm-up also size every node's Sync-Gadget
    // sample buffer.
    let params = Params::for_network(N, 2);
    let warmup = 2 * N as u64 * params.phase_len();
    let rapid = warm_allocations(Sim::builder().rapid(params), warmup);
    assert!(
        rapid < 20,
        "Rapid: {rapid} allocations over 2·10⁴ warm steps"
    );
}
