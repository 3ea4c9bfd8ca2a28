//! A fixed reference computation, timed in every process next to the
//! simulation, that tracks how fast the machine is running right now.
//!
//! It is this benchmark's own code and never calls the platform, so a
//! change to the platform cannot change its cost. It does the kind of
//! work a discrete-event simulation does — a binary-heap event queue,
//! hash-map state, a ring of samples — so that contention which slows
//! the simulation (other tenants' cache and memory traffic, CPU
//! frequency) slows it too. Its memory stays well under a megabyte, so
//! it does not raise the process's peak RSS.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Events each pass processes.
const EVENTS: u64 = 150_000;
/// Passes per measurement; the median is reported.
const PASSES: usize = 3;
/// Length of the sample ring.
const RING: usize = 4_096;

/// One pass: a self-scheduling event loop over a keyed state table.
fn pass() -> u64 {
    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut queue: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut state: HashMap<u64, (u64, f64)> = HashMap::new();
    let mut ring: Vec<f64> = vec![0.0; RING];
    for id in 0..1_024 {
        queue.push(Reverse((next() % 1_000, id)));
    }
    let mut processed = 0;
    while let Some(Reverse((at, id))) = queue.pop() {
        processed += 1;
        let entry = state.entry(id % 4_096).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += (at as f64).sqrt();
        ring[processed as usize % RING] = entry.1;
        if processed < EVENTS {
            queue.push(Reverse((at + 1 + next() % 500, next() % 65_536)));
        }
    }
    black_box(&ring);
    state.values().map(|&(n, _)| n).sum::<u64>()
}

/// Median wall time of one reference pass, seconds.
pub fn seconds() -> f64 {
    let mut times: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(pass());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    crate::sample::median(&mut times)
}
