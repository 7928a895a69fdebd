//! Host-speed calibration: a fixed kernel owned by the benchmark, timed
//! at intervals through a run. On a shared virtual machine the host's
//! speed swings by tens of percent, over seconds and over minutes, and
//! every time the program takes swings with it. The kernel's time
//! measures that swing, so the end-to-end times can be reported at a
//! nominal host speed: each op's time is scaled by the kernel samples
//! taken around it. The kernel never calls the program under test: a
//! change to the program cannot move it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::util::{median_ns, Clock};

/// The kernel's typical time on the 2-vCPU x86-64 host the bounds were
/// set on. A calibrated time is a time scaled by
/// `NOMINAL_NS / kernel time`, so on that host it reads close to the
/// time itself.
pub const NOMINAL_NS: f64 = 2.2e6;

const MEM: usize = 1 << 13;
/// A second array of 4 MiB, past the private caches, so the kernel also
/// feels contention for the shared cache and memory.
const BIG: usize = 1 << 19;
const STEPS: u32 = 55_000;
/// Strings the allocating half makes.
const NAMES: usize = 4_000;

/// One run of the kernel, both halves back to back. Returns its time in
/// ns on `clock`, the clock of the times it scales.
///
/// Different code slows differently when other guests share the host,
/// so the kernel mixes two kinds of work. Ten minutes of three probes (a
/// SARB compile, a SARB VM run, a Simulated run with `simcpu`) timed in
/// turn with each half on a 2-vCPU x86-64 guest: the probes' times spread
/// by 0.28 / 0.35 / 0.37 (IQR over median of one-second blocks). Scaled
/// by the dispatch half alone, by 0.05 / 0.10 / 0.13; by the allocating
/// half alone, 0.10 / 0.05 / 0.03; by the two at about 40% / 60% of
/// kernel time, 0.04 / 0.03 / 0.04.
fn kernel(clock: Clock, big: &mut [f64]) -> u64 {
    clock
        .timed(|| {
            black_box(dispatch(big));
            black_box(allocate());
        })
        .1
}

/// An interpreter-shaped loop: a dispatch on a pseudo-random opcode per
/// step over a small register file, a 64 KiB array and a 4 MiB one, with
/// floating-point arithmetic.
fn dispatch(big: &mut [f64]) -> f64 {
    let mut mem = vec![0.5f64; MEM];
    let mut reg = [1.0f64; 8];
    let mut x: u32 = 0x2545_f491;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let k = (x >> 8) as usize % MEM;
        let r = (x >> 3) as usize & 7;
        match x & 7 {
            0 => reg[r] += mem[k],
            1 => mem[k] = reg[r] * 0.5 + 0.25,
            2 => reg[r] = (reg[r].abs() + 1.0).sqrt(),
            3 => reg[r] = reg[r] * 0.999 + big[(x >> 6) as usize % BIG] * 0.001,
            4 => reg[r] = reg[(r + 1) & 7] / (reg[r].abs() + 1.0),
            5 => big[(x >> 7) as usize % BIG] += reg[r].min(4.0),
            6 => reg[r] = (reg[r] * 0.01).exp().min(8.0),
            _ => reg[r] -= mem[(k + 1) % MEM] * 0.5,
        }
    }
    reg.iter().sum::<f64>() + mem[MEM / 2]
}

/// Compiler-shaped work: format short strings, count them in a hash map,
/// sort them and look each one up again.
fn allocate() -> usize {
    type Map = HashMap<String, usize, BuildHasherDefault<DefaultHasher>>;
    let mut counts = Map::default();
    let mut names = Vec::with_capacity(NAMES);
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    for i in 0..NAMES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let name = format!("v{}_{}", x % 997, i % 31);
        *counts.entry(name.clone()).or_default() += i;
        names.push(name);
    }
    names.sort_unstable();
    names.iter().map(|n| counts[n] + n.len()).sum()
}

/// Kernel samples of one run, each with the time it was taken, in order.
#[derive(Default)]
pub struct Calib {
    samples: Vec<(Instant, u64)>,
    /// The 4 MiB array of each kernel thread.
    big: Vec<Vec<f64>>,
}

/// An op is scaled by the samples taken within this time of its middle.
const WINDOW: Duration = Duration::from_millis(250);

impl Calib {
    /// Times the kernel on `threads` threads at once, one per CPU the
    /// workload keeps busy, so that CPUs slowing each other down shows
    /// too; the sample is their mean time. More than one thread needs
    /// the elapsed clock: the process CPU clock would add them up.
    pub fn sample(&mut self, clock: Clock, threads: usize) {
        assert!(threads == 1 || clock == Clock::Wall);
        let at = Instant::now();
        self.big.resize_with(threads.max(1), || vec![0.5; BIG]);
        let (mine, others) = self.big.split_first_mut().expect("one kernel thread");
        let total: u64 = std::thread::scope(|s| {
            let others: Vec<_> = others
                .iter_mut()
                .map(|big| s.spawn(move || kernel(clock, big)))
                .collect();
            kernel(clock, mine)
                + others
                    .into_iter()
                    .map(|h| h.join().expect("kernel thread"))
                    .sum::<u64>()
        });
        self.samples.push((at, total / self.big.len() as u64));
    }

    pub fn kernel_ns(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.1).collect()
    }

    /// Factor that takes a time of this run to nominal host speed,
    /// from every sample.
    pub fn scale(&self) -> f64 {
        NOMINAL_NS / median_ns(&self.kernel_ns())
    }

    /// The same factor for a time centred on `at`: from the samples
    /// within `WINDOW` of it, the host's speed around that time, or from
    /// every sample if none is that close.
    pub fn scale_at(&self, at: Instant) -> f64 {
        let lo = self.samples.partition_point(|s| s.0 + WINDOW < at);
        let hi = self.samples.partition_point(|s| s.0 <= at + WINDOW);
        if lo == hi {
            return self.scale();
        }
        let near: Vec<u64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        NOMINAL_NS / median_ns(&near)
    }
}
