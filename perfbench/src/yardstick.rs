//! A fixed yardstick for the machine's speed, read next to every timing.
//!
//! The reference box is a few vCPUs of a shared host, and its speed moves by
//! up to 2× in regimes of seconds to an hour: other tenants take cores,
//! cache and memory bandwidth. CPU time moves with wall time, so neither
//! can tell a slower program from a slower machine. The yardstick is a
//! fixed kernel of the benchmark's own — AND-popcounts of 512-bit blocks
//! drawn at random from a 2 MiB table per thread, shared out in chunks
//! over as many threads as the engine uses — that no change to the program
//! can touch. It is read just before and just after each timed operation,
//! so its readings sample the same stretches of the run as the operations,
//! and each time metric is scaled by the run's median reading:
//!
//! ```text
//! reported = median(measured) × REFERENCE_WALL_S / median(yardstick wall)
//! mine_cpu_s = median(measured CPU) × REFERENCE_CPU_S / median(yardstick CPU)
//! ```
//!
//! so every time is in seconds of a machine on which the yardstick reads
//! the reference constants. A faster or slower program moves the reported
//! time as it moves the measured one; a slower machine moves both the
//! measured time and the yardstick, and cancels. Each run also prints the
//! times as measured.

use crate::measure::{median, quantile, timed};
use crate::workload::mix;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Words in each thread's table: 2 MiB, past L2 and into the shared cache.
const WORDS: usize = 1 << 18;
/// Chunks of work per thread and pass, and blocks of 8 words ANDed per
/// chunk.
const CHUNKS: usize = 60;
const BLOCKS_PER_CHUNK: usize = 1_000;
/// Passes per reading; the reading is their mean.
const PASSES: usize = 5;
/// Wall and CPU seconds of one pass, roughly as the reference box (2 vCPUs)
/// reads them. They only fix the scale of the reported times; any
/// constants would do, as long as they never change.
const REFERENCE_WALL_S: f64 = 0.004;
const REFERENCE_CPU_S: f64 = 0.008;

pub struct Yardstick {
    tables: Vec<Vec<u64>>,
    /// Wall and process CPU seconds of each reading.
    wall: Vec<f64>,
    cpu: Vec<f64>,
}

impl Yardstick {
    /// One table per thread the engine mines with.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let tables = (0..threads as u64)
            .map(|t| (0..WORDS as u64).map(|i| mix(i, 1000 + t)).collect())
            .collect();
        Yardstick {
            tables,
            wall: Vec::new(),
            cpu: Vec::new(),
        }
    }

    /// One pass: the threads share `CHUNKS` chunks of work, each taking the
    /// next one when it is done, as the engine's workers share a mine, so
    /// the pass takes as long as the threads' combined speed allows.
    fn pass(&self, salt: u64) {
        let next = AtomicUsize::new(0);
        let next = &next;
        std::thread::scope(|scope| {
            for table in &self.tables {
                scope.spawn(move || {
                    let mut acc = 0u32;
                    loop {
                        let chunk = next.fetch_add(1, Ordering::Relaxed);
                        if chunk >= CHUNKS * self.tables.len() {
                            break;
                        }
                        let mut state = mix(salt, chunk as u64);
                        for _ in 0..BLOCKS_PER_CHUNK {
                            state = mix(state, 0);
                            let a = (state as usize % (WORDS / 8)) * 8;
                            let b = ((state >> 32) as usize % (WORDS / 8)) * 8;
                            for k in 0..8 {
                                acc = acc.wrapping_add((table[a + k] & table[b + k]).count_ones());
                            }
                        }
                    }
                    black_box(acc);
                });
            }
        });
    }

    /// Takes one reading: the mean wall and CPU time of `PASSES` passes.
    fn read(&mut self) {
        let (_, wall, cpu) = timed(|| (0..PASSES as u64).for_each(|p| self.pass(p)));
        self.wall.push(wall / PASSES as f64);
        self.cpu.push(cpu / PASSES as f64);
    }

    /// Runs `f` between two readings, so the readings sample the same
    /// stretches of the run as the operations.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.read();
        let out = f();
        self.read();
        out
    }

    /// The factor from measured to reference wall seconds over the run.
    pub fn wall_scale(&self) -> f64 {
        REFERENCE_WALL_S / median(&self.wall)
    }

    /// The factor from measured to reference CPU seconds over the run.
    pub fn cpu_scale(&self) -> f64 {
        REFERENCE_CPU_S / median(&self.cpu)
    }

    /// The wall readings' quartiles over their median: how much the
    /// machine's speed moved during the run.
    pub fn spread(&self) -> f64 {
        (quantile(&self.wall, 0.75) - quantile(&self.wall, 0.25)) / median(&self.wall)
    }
}
