//! The repository's job-path benchmark.
//!
//! ```text
//! perfbench --workload <sarb_jobs|fun3d_omp|compile_cold|paper_repro>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (`BENCHMARK.json` names the metrics; the
//! run checks it emits exactly those). One op is one job, carried from
//! submission to a verdict checked against an independent reference.
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` reruns the op loop with about half the ops traced, adds the
//! layer battery, and reports the per-layer metrics. The last line of
//! standard output is the JSON result; the full record, and in traced
//! runs the span list, are also written under `.bench_out/`. Exit codes:
//! 0 all outputs correct, 1 an output mismatched, 2 bad usage or a
//! missing or inconsistent `BENCHMARK.json`.

mod battery;
mod calib;
mod common;
mod compile_cold;
mod fun3d_omp;
mod host;
mod manifest;
mod paper_repro;
mod sarb_jobs;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::exit;
use std::time::Instant;

use battery::{Family, Plan};
use common::{Ctx, Outcome};
use trace::Tracer;
use util::{median, median_ns, tail, Clock, Rng};

/// The seed to use by default.
pub const DEFAULT_SEED: u64 = 1;
/// Held out: never used while tuning the benchmark or a change; a claimed
/// gain must also hold on it.
pub const VALIDATION_SEED: u64 = 7919;

pub fn seed_role(seed: u64) -> &'static str {
    match seed {
        DEFAULT_SEED => "default",
        VALIDATION_SEED => "held-out validation",
        _ => "other",
    }
}

const WORKLOADS: [&str; 4] = ["sarb_jobs", "fun3d_omp", "compile_cold", "paper_repro"];

/// A workload's op loop and the clock its op and set-up times are read
/// from. `sarb_jobs` and `fun3d_omp` keep every CPU busy at once, so
/// their latency is elapsed time; `compile_cold` and `paper_repro` run
/// one busy thread at a time, so process CPU time is their latency with
/// hypervisor steal left out.
fn workload(name: &str) -> (fn(&Ctx) -> Outcome, Clock) {
    match name {
        "sarb_jobs" => (sarb_jobs::run, Clock::Wall),
        "fun3d_omp" => (fun3d_omp::run, Clock::Wall),
        "compile_cold" => (compile_cold::run, Clock::ProcessCpu),
        _ => (paper_repro::run, Clock::ProcessCpu),
    }
}

/// Per-layer times: metric, span name, ns per unit, unit.
const TIMINGS: [(&str, &str, f64, &str); 25] = [
    ("glaf.analyze_ms", "glaf.analyze", 1e6, "ms"),
    ("glaf.fuse_ms", "glaf.fuse", 1e6, "ms"),
    ("codegen.generate_ms", "codegen.generate", 1e6, "ms"),
    ("frontend.lex_ms", "frontend.lex", 1e6, "ms"),
    ("frontend.free_ms", "frontend.free", 1e6, "ms"),
    ("frontend.fixed_ms", "frontend.fixed", 1e6, "ms"),
    ("sema.resolve_ms", "sema.resolve", 1e6, "ms"),
    ("bytecode.opt_ms", "bytecode.opt", 1e6, "ms"),
    ("bytecode.traced_ms", "bytecode.traced", 1e6, "ms"),
    ("verify.opt_ms", "verify.opt", 1e6, "ms"),
    ("verify.traced_ms", "verify.traced", 1e6, "ms"),
    ("compile.ms", "compile", 1e6, "ms"),
    ("cache.lookup_us", "cache.lookup", 1e3, "us"),
    ("session.open_us", "session.open", 1e3, "us"),
    ("vm.run_ms", "vm.run", 1e6, "ms"),
    ("tier.scalar_ms", "tier.scalar", 1e6, "ms"),
    ("tier.vector_ms", "tier.vector", 1e6, "ms"),
    ("tier.native_ms", "tier.native", 1e6, "ms"),
    ("tier.oracle_ms", "tier.oracle", 1e6, "ms"),
    ("fun3d.mesh_ms", "fun3d.mesh", 1e6, "ms"),
    ("sim.run_ms", "sim.run", 1e6, "ms"),
    ("simcpu.time_ms", "simcpu.time", 1e6, "ms"),
    ("rust.sarb_ms", "rust.sarb", 1e6, "ms"),
    ("rust.fun3d_ms", "rust.fun3d", 1e6, "ms"),
    ("check.ms", "check", 1e6, "ms"),
];

/// Units of the per-layer values that are not span times.
const COUNTER_UNITS: [(&str, &str); 27] = [
    ("codegen.source_bytes", "B"),
    ("frontend.free_ns_per_byte", "ns/B"),
    ("frontend.fixed_ns_per_byte", "ns/B"),
    ("bytecode.instrs", "count"),
    ("bytecode.vec_regions", "count"),
    ("cache.hit_rate", "frac"),
    ("cache.evictions", "count"),
    ("queue.busy_frac", "frac"),
    ("policy.attempts_per_job", "count"),
    ("service.fallbacks", "count"),
    ("vm.steps", "count"),
    ("vm.vector_entries", "count"),
    ("vm.vec_loop_frac", "frac"),
    ("tier.vector_over_scalar_x", "x"),
    ("tier.native_over_vector_x", "x"),
    ("jit.native_entries", "count"),
    ("jit.native_deopts", "count"),
    ("omprt.regions", "count"),
    ("omprt.utilization", "frac"),
    ("omprt.imbalance", "x"),
    ("omprt.idle_ms", "ms"),
    ("omprt.par_over_serial_x", "x"),
    ("sim.cost_events", "count"),
    ("simcpu.cycles", "cycles"),
    ("trace.coverage", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.compile_phase_ratio", "x"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <sarb_jobs|fun3d_omp|compile_cold|paper_repro> \
                     --seed <n> --seconds <1..=60> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if !(1..=60).contains(&args.seconds) {
        return Err(format!("--seconds {} out of 1..=60", args.seconds));
    }
    Ok(args)
}

fn fail_usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    exit(2)
}

/// The battery's program family and sizes for each workload.
fn plan(workload: &str, seed: u64) -> Plan {
    let f77_seed = Rng::new(seed, 5).next() % 1_000_000;
    let (family, ncol, ncell) = match workload {
        "sarb_jobs" => (Family::Sarb, 8, 2000),
        "fun3d_omp" => (Family::Fun3d, 8, 2000),
        "compile_cold" => (Family::Sarb, compile_cold::NCOL, compile_cold::NCELL),
        _ => (Family::Fun3d, paper_repro::NCOL, paper_repro::NCELL),
    };
    Plan {
        family,
        ncol,
        ncell,
        f77_seed,
    }
}

fn main() {
    let started = Instant::now();
    let jiffies = host::cpu_jiffies();
    let args = parse_args().unwrap_or_else(|e| fail_usage(&e));
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))
        .and_then(|text| manifest::metric_units(&text, section))
        .unwrap_or_else(|e| fail_usage(&e));

    let (run, clock) = workload(&args.workload);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        threads: host::nproc(),
        clock,
        tracer: Tracer::new(),
    };
    let mut out = run(&ctx);

    let mut info = host::provenance(&args.workload, args.seed, args.seconds, args.trace);
    info.push((
        "input_digest".into(),
        format!("{} ({} scheduled inputs)", out.digest, out.schedule_len),
    ));
    let metrics = if args.trace {
        per_layer(&ctx, &mut out, &args.workload, &mut info)
    } else {
        end_to_end(&out, clock, &mut info)
    };
    let log = &out.log;
    let failed = log.errors + log.mismatches;
    info.push((
        "fail_frac".into(),
        format!(
            "{} ({} errored or refused, {} mismatched, of {} attempted)",
            failed as f64 / log.attempted.max(1) as f64,
            log.errors,
            log.mismatches,
            log.attempted
        ),
    ));
    info.push((
        "wall_s".into(),
        format!("{:.3}", started.elapsed().as_secs_f64()),
    ));
    info.push(("host_steal_frac".into(), host::steal_frac(jiffies)));
    info.extend(out.notes.iter().cloned());
    let bad = self_check(&declared, &metrics, section);
    let verdict = run_verdict(&out);

    let mut text = String::new();
    for (k, v) in &info {
        let _ = writeln!(text, "{k} = {v}");
    }
    for (n, v, u) in &metrics {
        let _ = writeln!(text, "{n} = {v} {u}");
    }
    for p in &log.problems {
        let _ = writeln!(text, "{p}");
    }
    for v in &verdict {
        let _ = writeln!(text, "RUN FAILED: {v}");
    }
    let correct = verdict.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        log.attempted.max(1)
    );
    for (i, (n, v, u)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}");
    }
    json.push_str("}}");
    print!("{text}");
    if !correct && !bad.is_empty() {
        // No result: the metrics of a failed run need not be finite.
        exit(1);
    }
    if !bad.is_empty() {
        for b in &bad {
            eprintln!("perfbench: self-check: {b}");
        }
        exit(2);
    }
    println!("{json}");
    write_out(
        &format!(
            "result-{}-seed{}-trace{}.txt",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ),
        &format!("{text}{json}\n"),
    );
    if !correct {
        exit(1);
    }
}

/// Why the run failed, if it did: a mismatched output, an op that errored
/// on a workload where none may, or no op completed correctly.
fn run_verdict(out: &Outcome) -> Vec<String> {
    let log = &out.log;
    let mut why = Vec::new();
    if log.mismatches > 0 {
        why.push(format!("{} outputs mismatched", log.mismatches));
    }
    if log.errors > 0 && !out.errors_tolerated {
        why.push(format!(
            "{} ops errored or were refused on a workload where no op may fail",
            log.errors
        ));
    }
    if log.ok() == 0 {
        why.push("no op completed correctly".into());
    }
    why
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(
    out: &Outcome,
    clock: Clock,
    info: &mut Vec<(String, String)>,
) -> Vec<(String, f64, String)> {
    let log = &out.log;
    info.push((
        "op_clock".into(),
        format!(
            "{}: op time over elapsed op time {:.4}",
            clock.name(),
            log.busy_ns as f64 / log.busy_wall_ns.max(1) as f64
        ),
    ));
    let lat: Vec<f64> = log.lat_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let (pct, tail_ms) = tail(&lat, out.tail_cap).unwrap_or((f64::NAN, f64::NAN));
    info.push((
        "op_tail".into(),
        format!(
            "p{pct} over {} correct ops ({} beyond it)",
            lat.len(),
            (lat.len() as f64 * (1.0 - pct / 100.0)).floor()
        ),
    ));
    let scale = log.calib.scale();
    let setup_raw: Vec<f64> = out.setup_s.iter().map(|p| p.0).collect();
    let setup_cal: Vec<f64> = out
        .setup_s
        .iter()
        .map(|&(s, at)| s * log.calib.scale_at(at))
        .collect();
    let list = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    info.push(("setup_passes_s".into(), list(&setup_cal)));
    info.push(("setup_passes_uncalibrated_s".into(), list(&setup_raw)));
    let ops_per_s = log.ok() as f64 / (log.busy_ns as f64 / 1e9);
    let lat_cal: Vec<f64> = log
        .lat_ns
        .iter()
        .zip(&log.lat_at)
        .map(|(&n, &at)| n as f64 / 1e6 * log.calib.scale_at(at))
        .collect();
    let busy_cal_ns: f64 = log
        .busy
        .iter()
        .map(|&(at, n)| n as f64 * log.calib.scale_at(at))
        .sum();
    let tail_cal = tail(&lat_cal, out.tail_cap).map_or(f64::NAN, |t| t.1);
    info.push((
        "calibration".into(),
        format!(
            "kernel median {:.4} ms over {} samples, nominal {:.4} ms: times x {scale:.4} on average",
            median_ns(&log.calib.kernel_ns()) / 1e6,
            log.calib.kernel_ns().len(),
            calib::NOMINAL_NS / 1e6
        ),
    ));
    info.push((
        "uncalibrated".into(),
        format!(
            "setup_s {} ops_per_s {ops_per_s} op_p50_ms {} op_tail_ms {tail_ms}",
            median(&setup_raw),
            median(&lat)
        ),
    ));
    let m = |name: &str, v: f64, unit: &str| (name.to_string(), v, unit.to_string());
    vec![
        m("setup_s", median(&setup_cal), "s"),
        m("ops_per_s", log.ok() as f64 / (busy_cal_ns / 1e9), "1/s"),
        m("op_p50_ms", median(&lat_cal), "ms"),
        m("op_tail_ms", tail_cal, "ms"),
        m("vs_rust_x", log.ceiling.ratio(), "x"),
        m("peak_rss_mb", host::peak_rss_mb(), "MB"),
    ]
}

/// The per-layer metrics of a traced run: the battery, then span times
/// and counters. Writes the span list under `.bench_out/`.
fn per_layer(
    ctx: &Ctx,
    out: &mut Outcome,
    workload: &str,
    info: &mut Vec<(String, String)>,
) -> Vec<(String, f64, String)> {
    let tr = &ctx.tracer;
    let log = &mut out.log;
    let mut layer = battery::run(tr, ctx.threads, &plan(workload, ctx.seed), log);
    layer.extend(std::mem::take(&mut out.layer));
    layer.insert("trace.coverage", tr.coverage());
    let untraced = median_ns(&log.lat_ns);
    layer.insert(
        "trace.overhead_frac",
        (median_ns(&log.traced_lat_ns) - untraced) / untraced,
    );
    let mut metrics: Vec<(String, f64, String)> = TIMINGS
        .iter()
        .map(|&(name, span, per, unit)| {
            let d = tr.durations(span, false);
            (name.into(), median_ns(&d) / per, unit.into())
        })
        .collect();
    let units: BTreeMap<&str, &str> = COUNTER_UNITS.into_iter().collect();
    for (name, v) in layer {
        let unit = units.get(name).copied().unwrap_or("?");
        metrics.push((name.into(), v, unit.into()));
    }
    let self_times = tr.self_times();
    let total: u64 = self_times.values().sum();
    let mut table = String::new();
    for (name, ns) in self_times {
        let _ = write!(
            table,
            " {name}={:.1}%",
            100.0 * ns as f64 / total.max(1) as f64
        );
    }
    info.push(("op_self_time_share".into(), table.trim().to_string()));
    write_out(
        &format!("spans-{workload}-seed{}.txt", ctx.seed),
        &tr.render(),
    );
    metrics
}

/// Exactly the metrics `BENCHMARK.json` declares for this trace mode,
/// with its units, all finite; returns what is wrong.
fn self_check(
    declared: &BTreeMap<String, String>,
    metrics: &[(String, f64, String)],
    section: &str,
) -> Vec<String> {
    let emitted: BTreeMap<&str, (&f64, &str)> = metrics
        .iter()
        .map(|(n, v, u)| (n.as_str(), (v, u.as_str())))
        .collect();
    let mut bad = Vec::new();
    for (name, unit) in declared {
        match emitted.get(name.as_str()) {
            None => bad.push(format!("{name} declared but not emitted")),
            Some((_, u)) if u != unit => {
                bad.push(format!("{name} emitted in {u}, declared in {unit}"))
            }
            Some((v, _)) if !v.is_finite() => bad.push(format!("{name} is not finite")),
            _ => {}
        }
    }
    for name in emitted.keys() {
        if !declared.contains_key(*name) {
            bad.push(format!(
                "{name} emitted but not declared in BENCHMARK.json `{section}`"
            ));
        }
    }
    bad
}

/// Writes a record under `.bench_out/` in the working directory.
fn write_out(name: &str, body: &str) {
    let dir = std::path::Path::new(".bench_out");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), body))
    {
        eprintln!("perfbench: could not write .bench_out/{name}: {e}");
    }
}
