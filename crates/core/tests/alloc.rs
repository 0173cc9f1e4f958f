//! What the sequential engine allocates once warm, under each protocol.
//!
//! A counting global allocator wraps the system one. It counts only the
//! allocations of a thread that has switched counting on, i.e. of the
//! test thread inside its counted window. Other threads (the test
//! harness runs its own) allocate at times of their own, and counting
//! them made the pins flaky.
//! Both protocols tick through `SeqSim::run_batch`, the batch loop that
//! `Sim::run` drives, and every counted step must run.
//!
//! * Gossip (Two-Choices on `K_4096`) allocates nothing.
//! * Rapid on `K_4096` is not allocation-free. A Two-Choices sample
//!   clears a node's Sync-Gadget sample buffer, so a buffer normally
//!   holds one phase's `sync_samples` entries and keeps its capacity.
//!   But a jump can carry a node past its next Two-Choices slot. Its
//!   buffer then keeps the previous phase's samples, the next phase's
//!   samples pile on top, and the buffer grows past any capacity it had.
//!   That is a few thousand growths in a run, out of a few tens of
//!   thousands of jumps. The count below is pinned exactly for its seed:
//!   more allocations mean a new source, fewer mean this carry-over
//!   changed. Whether samples should carry over a skipped phase entry is
//!   a protocol question, not an engine one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use rapid_core::facade::{BoxedSource, BoxedTopology, Sim};
use rapid_core::prelude::*;
use rapid_graph::prelude::*;
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

const N: usize = 1 << 12;

/// Steps counted after the warm-up.
const COUNTED: u64 = 200_000;

/// Rapid's allocations over [`COUNTED`] steps after three phases, for the
/// seed below: all of them Sync-Gadget sample buffers outgrowing their
/// capacity (see the module doc).
const RAPID_ALLOCATIONS: u64 = 32;

fn builder(distribution: InitialDistribution) -> SimBuilder {
    Sim::builder()
        .topology(Complete::new(N))
        .distribution(distribution)
        .seed(Seed::new(0xA11C))
}

/// Ticks `sim` through `run_batch` for `steps` more steps, or until
/// unanimity or every node halted; whether every step ran.
fn run_steps(sim: &mut SeqSim<BoxedTopology, BoxedSource>, steps: u64) -> bool {
    let end = sim.steps() + steps;
    while sim.steps() < end && sim.halted_count() < N {
        if sim.run_batch(end - sim.steps(), SimTime::MAX).is_some() {
            return false;
        }
    }
    sim.steps() == end
}

/// Allocations while `sim` runs [`COUNTED`] steps.
fn counted(sim: &mut SeqSim<BoxedTopology, BoxedSource>) -> u64 {
    let (all_ran, allocations) = allocations_in(|| run_steps(sim, COUNTED));
    assert!(all_ran, "every counted step must run");
    allocations
}

#[test]
fn sequential_engines_allocate_only_where_pinned_once_warm() {
    // 64 equal colors: Two-Choices is far from unanimity for the whole
    // count.
    let mut gossip = builder(InitialDistribution::Uniform { k: 64 })
        .gossip(GossipRule::TwoChoices)
        .build()
        .expect("valid gossip assembly")
        .into_gossip()
        .expect("gossip rule was selected");
    run_steps(&mut gossip, N as u64);
    let allocations = counted(&mut gossip);
    assert_eq!(
        allocations, 0,
        "Two-Choices: {allocations} allocations over {COUNTED} warm steps"
    );

    let params = Params::for_network_with_eps(N, 8, 0.5);
    let mut rapid = builder(InitialDistribution::multiplicative_bias(8, 0.5))
        .rapid(params)
        .build()
        .expect("valid rapid assembly")
        .into_rapid()
        .expect("rapid protocol was selected");
    run_steps(&mut rapid, 3 * N as u64 * params.phase_len());
    let allocations = counted(&mut rapid);
    assert_eq!(
        allocations, RAPID_ALLOCATIONS,
        "Rapid: {allocations} allocations over {COUNTED} warm steps"
    );
}
