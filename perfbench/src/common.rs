//! What every workload shares: the run context, the op log, the Rust
//! ceiling accumulator and the outcome handed back to `main`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::calib::Calib;
use crate::trace::Tracer;
use crate::util::{geomean, median, timed, Clock, Digest, Rng};

pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Threads or workers a workload may use: the host's CPU count.
    pub threads: usize,
    /// The clock op and set-up times are read from.
    pub clock: Clock,
    pub tracer: Tracer,
}

impl Ctx {
    /// Runs `op` in a closed loop for the run length, then `post` on its
    /// result outside the op's time (the Rust ceiling runs go there). `op`
    /// gets the op index. In a traced run a seeded coin picks the ops that
    /// record spans, about half, so traced and untraced latencies are
    /// taken side by side; plain alternation would trace only the odd
    /// entries of an even-length input cycle.
    pub fn closed_loop<T>(
        &self,
        log: &mut OpLog,
        mut op: impl FnMut(u64, &mut OpLog) -> T,
        mut post: impl FnMut(T, &mut OpLog),
    ) {
        let end = Instant::now() + Duration::from_secs(self.seconds);
        let mut coin = Rng::new(self.seed, 6);
        let mut i = 0u64;
        for _ in 0..3 {
            log.calib.sample(self.clock, self.calib_threads());
        }
        let mut calibrated = Instant::now();
        while Instant::now() < end {
            let traced = self.traced && coin.next() & 1 == 1;
            self.tracer.set(i, traced);
            log.traced = traced;
            let wall = Instant::now();
            let (t, ns) = self.clock.timed(|| self.tracer.span("op", || op(i, log)));
            log.busy_wall_ns += crate::util::ns_since(wall);
            log.busy_ns += ns;
            log.busy.push((middle_of_last(ns), ns));
            self.tracer.set(i, false);
            post(t, log);
            if calibrated.elapsed() >= CALIBRATE_EVERY {
                log.calib.sample(self.clock, self.calib_threads());
                calibrated = Instant::now();
            }
            i += 1;
        }
    }

    /// Runs one set-up pass several times, fresh each time, and keeps the
    /// last state; the pass durations go to `out.setup_s`, whose median is
    /// the metric.
    pub fn setup<S>(&self, out: &mut Outcome, mut pass: impl FnMut() -> S) -> S {
        let mut state = None;
        for _ in 0..SETUP_PASSES_BEFORE {
            drop(state.take());
            state = Some(self.setup_pass(out, &mut pass));
        }
        state.expect("at least one set-up pass")
    }

    /// More timed set-up passes after the op loop, their state dropped.
    /// Passes at both ends of the run keep one slow spell of the host
    /// from setting `setup_s`. Traced runs, which do not report it, skip
    /// them.
    pub fn setup_more<S>(&self, out: &mut Outcome, mut pass: impl FnMut() -> S) {
        if self.traced {
            return;
        }
        for _ in 0..SETUP_PASSES_AFTER {
            drop(self.setup_pass(out, &mut pass));
        }
    }

    /// Threads the calibration kernel runs on: one per CPU for workloads
    /// timed by elapsed time, which keep every CPU busy, else one.
    fn calib_threads(&self) -> usize {
        match self.clock {
            Clock::Wall => self.threads,
            Clock::ProcessCpu => 1,
        }
    }

    /// One timed set-up pass between calibration samples, so it can be
    /// scaled by the host's speed right around it.
    fn setup_pass<S>(&self, out: &mut Outcome, pass: &mut impl FnMut() -> S) -> S {
        for _ in 0..CALIBRATE_AROUND_SETUP {
            out.log.calib.sample(self.clock, self.calib_threads());
        }
        let wall = Instant::now();
        let (s, ns) = self.clock.timed(pass);
        out.setup_s
            .push((ns as f64 / 1e9, wall + wall.elapsed() / 2));
        for _ in 0..CALIBRATE_AROUND_SETUP {
            out.log.calib.sample(self.clock, self.calib_threads());
        }
        s
    }
}

/// The middle of the interval of `ns` that ends now.
fn middle_of_last(ns: u64) -> Instant {
    Instant::now() - Duration::from_nanos(ns / 2)
}

/// How often the op loop samples the calibration kernel: after every op
/// that is longer than this.
const CALIBRATE_EVERY: Duration = Duration::from_millis(50);
pub const SETUP_PASSES_BEFORE: usize = 6;
pub const SETUP_PASSES_AFTER: usize = 7;
/// Calibration samples right before and right after each set-up pass.
const CALIBRATE_AROUND_SETUP: usize = 4;

pub enum Verdict {
    Ok,
    /// Errored or refused: counts as failed, output not judged.
    Error(String),
    /// Ran, but the output disagrees with the reference.
    Mismatch(String),
}

/// Per-op results of the op loop.
#[derive(Default)]
pub struct OpLog {
    /// Latency of correct ops taken with tracing off, on the run's clock.
    pub lat_ns: Vec<u64>,
    /// The middle of each of those ops, to calibrate it by (an op is
    /// recorded as soon as its verdict is in).
    pub lat_at: Vec<Instant>,
    /// Latency of correct ops taken with tracing on.
    pub traced_lat_ns: Vec<u64>,
    pub attempted: u64,
    pub errors: u64,
    pub mismatches: u64,
    /// The first few failures, named.
    pub problems: Vec<String>,
    /// Time spent inside ops (excludes the interleaved ceiling runs), on
    /// the run's clock.
    pub busy_ns: u64,
    /// The same in elapsed time.
    pub busy_wall_ns: u64,
    /// Per op: its middle and its time.
    pub busy: Vec<(Instant, u64)>,
    /// Whether the op being recorded runs with tracing on.
    pub traced: bool,
    pub ceiling: Ceiling,
    pub calib: Calib,
}

impl OpLog {
    pub fn record(&mut self, what: &str, lat_ns: u64, v: Verdict) {
        self.attempted += 1;
        match v {
            Verdict::Ok if self.traced => self.traced_lat_ns.push(lat_ns),
            Verdict::Ok => {
                self.lat_ns.push(lat_ns);
                self.lat_at.push(middle_of_last(lat_ns));
            }
            Verdict::Error(e) => {
                self.errors += 1;
                self.note(format!("error: {what}: {e}"));
            }
            Verdict::Mismatch(m) => {
                self.mismatches += 1;
                self.note(format!("MISMATCH: {what}: {m}"));
            }
        }
    }

    /// A failure found outside an op (battery or ceiling run).
    pub fn note(&mut self, msg: String) {
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }

    pub fn ok(&self) -> u64 {
        (self.lat_ns.len() + self.traced_lat_ns.len()) as u64
    }
}

/// Engine time over Rust-oracle time on the same inputs, per input kind.
/// Each pair is taken back to back, so a slow spell of the host scales
/// both sides of one ratio alike.
#[derive(Default)]
pub struct Ceiling {
    kinds: BTreeMap<&'static str, Vec<f64>>,
}

impl Ceiling {
    pub fn add(&mut self, kind: &'static str, engine_ns: u64, rust_ns: u64) {
        self.kinds
            .entry(kind)
            .or_default()
            .push(engine_ns as f64 / rust_ns.max(1) as f64);
    }

    /// Times `rust` and books it against `engine_ns`.
    pub fn time<R>(&mut self, kind: &'static str, engine_ns: u64, rust: impl FnOnce() -> R) -> R {
        let (r, ns) = timed(rust);
        self.add(kind, engine_ns, ns);
        r
    }

    /// Geometric mean over kinds of the median per-op ratio.
    pub fn ratio(&self) -> f64 {
        let r: Vec<f64> = self.kinds.values().map(|v| median(v)).collect();
        geomean(&r)
    }
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub log: OpLog,
    /// Per set-up pass: its seconds on the run's clock and its middle.
    pub setup_s: Vec<(f64, Instant)>,
    /// Digest of the seeded input schedule the op loop cycles through.
    pub digest: String,
    pub schedule_len: usize,
    /// Extra result lines (`key = value`) for the human-readable output.
    pub notes: Vec<(String, String)>,
    /// Per-layer values the op loop measures itself (cache, queue,
    /// policy); the battery fills the rest.
    pub layer: BTreeMap<&'static str, f64>,
    /// Highest tail percentile reported: a ladder step that leaves at
    /// least ten correct ops beyond it in a 35 s run on a 2-CPU host.
    pub tail_cap: f64,
    /// Whether an op may error without failing the run. Only `fun3d_omp`
    /// sets it, for its known storage race; elsewhere no op may fail.
    pub errors_tolerated: bool,
}

/// Digest of a schedule rendered one item per line.
pub fn digest_lines<T: std::fmt::Debug>(items: &[T]) -> String {
    let mut d = Digest::new();
    for it in items {
        d.eat(format!("{it:?}").as_bytes());
    }
    d.hex()
}

/// Queue accounting over every batch the op loop ran.
#[derive(Default)]
pub struct QueueStats {
    pub jobs: u64,
    pub attempts: u64,
    pub fallbacks: u64,
    pub job_wall_ns: u64,
    pub worker_wall_ns: u64,
}

impl QueueStats {
    pub fn add(&mut self, report: &fortrans::BatchReport, workers: usize) {
        for jr in &report.results {
            self.jobs += 1;
            self.attempts += jr.attempts.len() as u64;
            self.job_wall_ns += jr.wall.as_nanos() as u64;
            self.fallbacks += jr.session.as_ref().map_or(0, |s| s.fallback_count());
        }
        self.worker_wall_ns += report.wall.as_nanos() as u64 * workers as u64;
    }

    pub fn export(&self, layer: &mut BTreeMap<&'static str, f64>) {
        layer.insert(
            "queue.busy_frac",
            self.job_wall_ns as f64 / self.worker_wall_ns.max(1) as f64,
        );
        layer.insert(
            "policy.attempts_per_job",
            self.attempts as f64 / self.jobs.max(1) as f64,
        );
        layer.insert("service.fallbacks", self.fallbacks as f64);
    }
}

/// Cache counters of the op loop's service.
pub fn export_cache(cache: &fortrans::ArtifactCache, layer: &mut BTreeMap<&'static str, f64>) {
    layer.insert("cache.hit_rate", cache.hit_rate());
    layer.insert("cache.evictions", cache.evictions() as f64);
}

/// The §4.2.1 check: RMS of the difference at most 1e-7.
pub fn rms_ok(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: length {} vs {}", got.len(), want.len()));
    }
    let r = glaf::compare_slices(want, got);
    if r.passes_rms(1e-7) {
        Ok(())
    } else {
        Err(format!("{what}: RMS {:e} over 1e-7", r.rms_diff))
    }
}

/// Bitwise slice equality, naming the first differing index.
pub fn bits_eq(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: length {} vs {}", got.len(), want.len()));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        Some(k) => Err(format!("{what}[{k}]: {} vs {}", got[k], want[k])),
        None => Ok(()),
    }
}
