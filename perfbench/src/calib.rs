//! A fixed calibration kernel that measures how fast the host is running
//! right now.
//!
//! Shared machines change speed by tens of percent over seconds. The
//! kernel is benchmark code only — nothing of the program under test —
//! so a change to the program cannot move it; timing it before and after
//! a run's passes gives the host-speed factor that scaled times divide
//! out. It is
//! a miniature discrete-event loop: a binary-heap future-event list
//! driving read-modify-writes of per-entity state scattered over a
//! 2 MiB table — the mix of heap operations, branches and cache traffic
//! the simulator spends its time on. Of the kernels tried on the
//! reference host (this one, the same loop over a 16 MiB table, and a
//! compute-only sort), this one tracked the workloads' pass times best.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Entities in the state table (2 MiB of 64-byte records).
const ENTITIES: usize = 1 << 15;
/// Events pending at once.
const PENDING: usize = 1 << 14;
/// Events processed per kernel call.
const EVENTS: usize = 60_000;

/// The kernel's median duration on the reference host (the 2-CPU
/// Intel Xeon the benchmark was tuned on), ns. Scaled times are
/// expressed in that host's time.
pub const REFERENCE_NS: f64 = 10_000_000.0;

thread_local! {
    static STATE: RefCell<Vec<[u64; 8]>> = RefCell::new(vec![[0; 8]; ENTITIES]);
}

/// Runs the kernel repeatedly for about `budget`; returns every
/// duration, ns.
#[must_use]
pub fn sample_for(budget: Duration) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || start.elapsed() < budget {
        samples.push(kernel_ns());
    }
    samples
}

/// Runs the kernel once and returns its duration, ns.
#[must_use]
pub fn kernel_ns() -> f64 {
    STATE.with(|state| run(&mut state.borrow_mut()))
}

fn run(state: &mut [[u64; 8]]) -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(PENDING);
    for _ in 0..PENDING {
        let r = next();
        queue.push(Reverse((r % 1_000_000, (r >> 32) as u32 % ENTITIES as u32)));
    }
    let mut acc = 0u64;
    for _ in 0..EVENTS {
        let Some(Reverse((at, entity))) = queue.pop() else {
            break;
        };
        let record = &mut state[entity as usize];
        record[0] = record[0].wrapping_add(at);
        record[(at & 7) as usize] ^= acc;
        acc = acc.wrapping_add(record[3]);
        let r = next();
        let delay = if r & 3 == 0 {
            672
        } else {
            65_000 + (r & 0xfff)
        };
        queue.push(Reverse((at + delay, (r >> 40) as u32 % ENTITIES as u32)));
    }
    black_box((acc, queue.len()));
    start.elapsed().as_nanos() as f64
}
