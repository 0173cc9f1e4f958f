//! The channel driver's steady state allocates nothing.
//!
//! A counting global allocator wraps the system one. This binary holds a
//! single test, so no other test thread adds to the count while it runs.
//!
//! The pin covers a Two-Choices deployment and a Rapid one; the Rapid
//! warm-up crosses two phases, so Sync-Gadget jumps (an in-place median)
//! fall inside the counted steps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rapid_core::facade::{EngineKind, Sim};
use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_net::Cluster;
use rapid_sim::prelude::*;

/// Counts every allocation and reallocation, then defers to [`System`].
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees on `layout` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..20_000 {
        cluster.step_channel();
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
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
