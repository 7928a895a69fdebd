//! `sarb_jobs`: batches of seeded `run_columns(ncol)` jobs on the warm,
//! cached GLAF-serial SARB artifact, through `EngineService` + `JobQueue` with
//! one worker per CPU, Serial mode, default tiers. Each job is checked
//! bit-exact against `sarb::native::run_columns_native`.
//!
//! Compile is cached, so the time goes to execution on the optimized VM,
//! the vector tier and the native tier.

use std::collections::BTreeMap;
use std::time::Instant;

use fortrans::{ArgVal, BatchReport, EngineService, Job};
use sarb::native::{run_columns_native, ColumnOutput};
use sarb::variants::{variant_sources, SarbOutputs, SarbVariant};

use crate::common::{bits_eq, digest_lines, export_cache, Ctx, Outcome, QueueStats, Verdict};
use crate::util::{ns_since, timed, Rng};

const NCOL: std::ops::RangeInclusive<i64> = 4..=12;
const SCHEDULE: usize = 4096;

struct State {
    service: EngineService,
    sources: Vec<String>,
    refs: BTreeMap<i64, (ColumnOutput, f64)>,
}

impl State {
    /// Submits one `run_columns(n)` job per entry of `ncols` by source,
    /// so each lookup is served by the service's artifact cache.
    fn batch(&self, threads: usize, ncols: &[i64]) -> BatchReport {
        let refs: Vec<&str> = self.sources.iter().map(String::as_str).collect();
        let mut q = self.service.queue(threads);
        for &n in ncols {
            q.submit_sources(&refs, Job::new("run_columns", vec![ArgVal::I(n)]));
        }
        q.run_batch_report()
    }
}

fn setup(ctx: &Ctx) -> State {
    let state = State {
        service: EngineService::new(4),
        sources: variant_sources(SarbVariant::GlafSerial),
        refs: NCOL.map(|n| (n, run_columns_native(n))).collect(),
    };
    // Warm-up: compiles the artifact, and runs every column count twice
    // so hot loops reach the native tier's promotion threshold.
    let all: Vec<i64> = NCOL.chain(NCOL).collect();
    state.batch(ctx.threads, &all);
    state
}

pub fn check(out: &SarbOutputs, want: &(ColumnOutput, f64)) -> Result<(), String> {
    let (col, total) = want;
    bits_eq("fdl", &out.fdl, &col.fdl)?;
    bits_eq("ful", &out.ful, &col.ful)?;
    bits_eq("fds", &out.fds, &col.fds)?;
    bits_eq("fus", &out.fus, &col.fus)?;
    bits_eq("entl", &out.entl, &col.entl)?;
    bits_eq("ents", &out.ents, &col.ents)?;
    bits_eq("sent", &[out.sent], &[col.sent])?;
    bits_eq("total_sent", &[out.total_sent], &[*total])
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut rng = Rng::new(ctx.seed, 1);
    let span = (NCOL.end() - NCOL.start() + 1) as u64;
    let schedule: Vec<i64> = (0..SCHEDULE)
        .map(|_| NCOL.start() + rng.below(span) as i64)
        .collect();
    let mut out = Outcome {
        digest: digest_lines(&schedule),
        schedule_len: schedule.len(),
        tail_cap: 95.0,
        ..Outcome::default()
    };
    let st = ctx.setup(&mut out, || setup(ctx));
    let batch = 2 * ctx.threads;
    let mut queue_stats = QueueStats::default();
    let tr = &ctx.tracer;
    ctx.closed_loop(
        &mut out.log,
        |i, log| {
            let start = i as usize * batch;
            let ncols: Vec<i64> = (0..batch)
                .map(|k| schedule[(start + k) % SCHEDULE])
                .collect();
            let t0 = Instant::now();
            let report = tr.span("queue.batch", || st.batch(ctx.threads, &ncols));
            let engine_ns = ns_since(t0);
            for (jr, &n) in report.results.iter().zip(&ncols) {
                let v = tr.span("check", || match (&jr.result, &jr.session) {
                    (Err(e), _) => Verdict::Error(e.to_string()),
                    (Ok(_), None) => Verdict::Error("no session returned".into()),
                    (Ok(_), Some(s)) => match check(&SarbOutputs::read(s), &st.refs[&n]) {
                        Ok(()) => Verdict::Ok,
                        Err(m) => Verdict::Mismatch(m),
                    },
                });
                log.record(&format!("run_columns({n})"), ns_since(t0), v);
            }
            queue_stats.add(&report, ctx.threads);
            (ncols, engine_ns)
        },
        |(ncols, engine_ns), log| {
            // The same columns on the Rust oracle, one thread per worker.
            let threads = ctx.threads;
            let ((), ns) = timed(|| {
                std::thread::scope(|s| {
                    for w in 0..threads {
                        let ncols = &ncols;
                        s.spawn(move || {
                            for n in ncols.iter().skip(w).step_by(threads) {
                                std::hint::black_box(run_columns_native(*n));
                            }
                        });
                    }
                });
            });
            log.ceiling.add("sarb", engine_ns, ns);
        },
    );
    ctx.setup_more(&mut out, || setup(ctx));
    queue_stats.export(&mut out.layer);
    export_cache(st.service.cache(), &mut out.layer);
    out
}
