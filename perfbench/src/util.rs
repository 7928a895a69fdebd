//! Seeded input generation, digests and order statistics.

use std::time::Instant;

/// splitmix64: the benchmark's own generator, so the inputs a seed
/// produces never change when the program under test changes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// FNV-1a digest of a byte stream, used to show that two runs were fed
/// identical inputs.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 ^= 0x1f;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The clock a workload's op and set-up times are read from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// Elapsed (monotonic) time.
    Wall,
    /// CPU time of the whole process: every thread, exited ones too. A
    /// Linux guest with paravirtual steal accounting leaves out of it the
    /// time the hypervisor gives this guest's CPUs to other guests, which
    /// elapsed time counts. Only for workloads that keep one thread busy
    /// at a time and wait on nothing but their own threads: on an
    /// unshared host it then equals elapsed time.
    ProcessCpu,
}

impl Clock {
    /// Now, in ns from a fixed origin of this clock.
    pub fn now(self) -> u64 {
        match self {
            Clock::Wall => {
                static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
                EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
            }
            Clock::ProcessCpu => process_cpu_ns(),
        }
    }

    /// Time on this clock since `t`, a value of `now`.
    pub fn since(self, t: u64) -> u64 {
        self.now().saturating_sub(t)
    }

    /// Times one call on this clock.
    pub fn timed<R>(self, f: impl FnOnce() -> R) -> (R, u64) {
        let t = self.now();
        let r = f();
        (r, self.since(t))
    }

    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "elapsed time",
            Clock::ProcessCpu => "process CPU time",
        }
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` of this target.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Elsewhere the process CPU clock is not read: elapsed time stands in.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_ns() -> u64 {
    Clock::Wall.now()
}

/// Times one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, ns_since(t))
}

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples;
/// NaN for no samples, so a metric without data fails the self-check.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn median_ns(samples: &[u64]) -> f64 {
    median(&samples.iter().map(|&n| n as f64).collect::<Vec<_>>())
}

/// The highest percentile of a fixed ladder, at most `cap`, that still
/// leaves at least ten samples beyond it, with its value. Capping at the
/// percentile the run length supports keeps a few extra samples from
/// moving the tail to a different percentile between runs.
pub fn tail(samples: &[f64], cap: f64) -> Option<(f64, f64)> {
    const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    let n = samples.len() as f64;
    LADDER
        .iter()
        .filter(|&&p| p <= cap)
        .find(|&&p| (n * (1.0 - p / 100.0)).floor() >= 10.0)
        .map(|&p| (p, quantile(samples, p / 100.0)))
}

/// Geometric mean; NaN for an empty input.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}
