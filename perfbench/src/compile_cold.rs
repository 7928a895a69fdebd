//! `compile_cold`: every op compiles. Sources go through
//! `JobQueue::submit_sources` with an artifact cache smaller than either
//! source pool, so every lookup misses. A seeded coin picks each op's kind:
//!
//! * a GLAF port: the next entry of the whole variant space, SARB (Table 2
//!   ladder, cost-model, fused) and FUN3D (the 32-config matrix, fused,
//!   original, manual), in seeded order. The op runs analyze → generate
//!   → compile → a minimal Serial run, checked bit-exact against the Rust
//!   oracle.
//! * a legacy F77 ingest: the next of a seeded pool of two-file programs
//!   from `fortrans::gen::generate`, compiled and run Serial from `main`;
//!   PRINT output and COMMON globals must be bit-equal to the tree-walk
//!   oracle.
//!
//! The time goes to glaf, codegen, both front ends, sema, bytecode and
//! verify; the execution tiers do little work.

use fortrans::{
    ArgVal, CompiledProgram, EngineService, ExecMode, ExecTier, Job, ProgramSet, Session, Val,
};
use fun3d::mesh::{Mesh, MESH_MOD_SRC};
use fun3d::native::native_jacobian;
use fun3d::variants::{entry_point, variant_sources as fun3d_sources, Fun3dConfig, Fun3dVariant};
use glaf::{Glaf, Lang};
use glaf_codegen::{CodegenOptions, DirectivePolicy};
use sarb::legacy::{DRIVER_SRC, FULIOU_MOD_SRC};
use sarb::native::{run_columns_native, ColumnOutput};
use sarb::variants::{variant_sources as sarb_sources, SarbOutputs, SarbVariant};

use crate::common::{bits_eq, export_cache, Ctx, OpLog, Outcome, QueueStats, Verdict};
use crate::util::{median_ns, timed, Digest, Rng};

/// SARB columns and FUN3D cells of the minimal run.
pub const NCOL: i64 = 1;
pub const NCELL: i64 = 40;
/// Percent of ops that ingest F77. Set so that both front ends get the
/// same share of op time: a port op spends P in the free-form front end,
/// an F77 op F in the fixed-form one, and F77 ops are drawn with
/// probability P / (P + F). P and F are mean front-end times over the
/// port space and the F77 pool: 0.76 ms and 0.56 ms on a 2-vCPU x86-64
/// host, so 58%. Every traced run measures them again (`frontend_op_ms`)
/// and prints each front end's share of op time
/// (`frontend_op_time_share`).
const F77_PERCENT: u64 = 58;
/// Distinct F77 programs, used in turn.
const F77_POOL: usize = 48;
/// Far smaller than either pool: every lookup misses.
const CACHE_ENTRIES: usize = 4;
const SCHEDULE: usize = 4096;

#[derive(Debug, Clone, Copy)]
pub enum SarbPort {
    Variant(SarbVariant),
    Fused,
}

#[derive(Debug, Clone, Copy)]
pub enum Item {
    Sarb(SarbPort),
    Fun3d(Fun3dVariant),
    F77(u64),
}

/// Codegen options of a SARB GLAF variant (`None` for the original).
pub fn sarb_options(v: SarbVariant) -> Option<CodegenOptions> {
    match v {
        SarbVariant::OriginalSerial => None,
        SarbVariant::GlafSerial => Some(CodegenOptions {
            atomic_updates: false,
            ..CodegenOptions::serial()
        }),
        SarbVariant::GlafParallel(k) => Some(CodegenOptions::parallel_version(k)),
        SarbVariant::GlafCostModel => Some(CodegenOptions {
            policy: DirectivePolicy::CostModel(glaf_autopar::CostParams::default()),
            ..CodegenOptions::default()
        }),
    }
}

fn sarb_space() -> Vec<SarbPort> {
    let mut v: Vec<SarbPort> = SarbVariant::table2()
        .into_iter()
        .map(SarbPort::Variant)
        .collect();
    v.push(SarbPort::Variant(SarbVariant::GlafCostModel));
    v.push(SarbPort::Fused);
    v
}

fn fun3d_space() -> Vec<Fun3dVariant> {
    let mut v: Vec<Fun3dVariant> = Fun3dConfig::all()
        .into_iter()
        .map(Fun3dVariant::Glaf)
        .collect();
    v.push(Fun3dVariant::Glaf(Fun3dConfig {
        fuse: true,
        ..Fun3dConfig::best()
    }));
    v.push(Fun3dVariant::OriginalSerial);
    v.push(Fun3dVariant::ManualParallel);
    v
}

/// The whole GLAF variant space with its sources, ports generating
/// identical source kept once, each held to the library's own variant
/// builder where there is one.
fn port_space(ctx: &Ctx) -> Vec<(Item, Vec<String>)> {
    let mut seen = std::collections::HashSet::new();
    let ports: Vec<(Item, Vec<String>)> = sarb_space()
        .into_iter()
        .map(Item::Sarb)
        .chain(fun3d_space().into_iter().map(Item::Fun3d))
        .map(|it| (it, port_sources(ctx, it)))
        .filter(|(_, s)| seen.insert(s.clone()))
        .collect();
    for (it, sources) in &ports {
        let library = match *it {
            Item::Sarb(SarbPort::Variant(v)) => Some(sarb_sources(v)),
            Item::Fun3d(v) => Some(fun3d_sources(v)),
            _ => None,
        };
        assert!(
            library.is_none_or(|l| l == *sources),
            "{it:?}: benchmark codegen options disagree with the library's"
        );
    }
    ports
}

/// The seeded F77 pool: distinct programs with their sources.
fn f77_pool(seed: u64) -> Vec<(Item, Vec<String>)> {
    let mut rng = Rng::new(seed, 3);
    let mut seen = std::collections::HashSet::new();
    let mut pool = Vec::new();
    while pool.len() < F77_POOL {
        let s = rng.next() % 1_000_000;
        let sources = fortrans::gen::generate(s);
        if seen.insert(sources.clone()) {
            pool.push((Item::F77(s), sources));
        }
    }
    pool
}

/// Per op, an index into `ports ++ f77`: a seeded coin picks the kind,
/// and each kind takes its pool in turn (ports in seeded order), so a
/// source recurs only after every other source of its pool.
fn schedule(seed: u64, nports: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 7);
    let mut order: Vec<usize> = (0..nports).collect();
    rng.shuffle(&mut order);
    let (mut p, mut f) = (0, 0);
    (0..SCHEDULE)
        .map(|_| {
            if rng.below(100) < F77_PERCENT {
                f += 1;
                nports + (f - 1) % F77_POOL
            } else {
                p += 1;
                order[(p - 1) % nports]
            }
        })
        .collect()
}

/// The generated (or legacy) sources of a port, with analyze / fuse /
/// generate timed as their own spans.
pub fn port_sources(ctx: &Ctx, item: Item) -> Vec<String> {
    let tr = &ctx.tracer;
    let generate = |model: glaf_ir::Program, fuse: bool, opts: &CodegenOptions| {
        let mut g = tr
            .span("glaf.analyze", || Glaf::new(model))
            .expect("GLAF model is valid");
        if fuse {
            tr.span("glaf.fuse", || g.fuse());
        }
        tr.span("codegen.generate", || g.generate(Lang::Fortran, opts))
            .source
    };
    match item {
        Item::Sarb(port) => {
            let (opts, fuse) = match port {
                SarbPort::Variant(v) => match sarb_options(v) {
                    Some(o) => (o, false),
                    None => return sarb_sources(v),
                },
                SarbPort::Fused => (sarb_options(SarbVariant::GlafSerial).expect("GLAF"), true),
            };
            let gen = generate(sarb::glaf_model::build_sarb_program(), fuse, &opts);
            vec![FULIOU_MOD_SRC.to_string(), gen, DRIVER_SRC.to_string()]
        }
        Item::Fun3d(Fun3dVariant::Glaf(cfg)) => {
            let gen = generate(
                fun3d::glaf_model::build_fun3d_program(),
                cfg.fuse,
                &cfg.codegen_options(),
            );
            vec![MESH_MOD_SRC.to_string(), gen]
        }
        Item::Fun3d(v) => fun3d_sources(v),
        Item::F77(seed) => fortrans::gen::generate(seed),
    }
}

/// Observable end state of an F77 run: result, PRINT output and every
/// global's bits, in name order.
#[derive(PartialEq, Debug)]
struct Snapshot {
    result: Option<String>,
    printed: String,
    globals: Vec<(String, Vec<u64>)>,
}

fn snapshot(s: &Session, result: Option<Val>, printed: String) -> Snapshot {
    let mut names = s.global_names();
    names.sort();
    let globals = names
        .into_iter()
        .map(|n| {
            let bits = if let Some(v) = s.global_scalar(&n) {
                vec![match v {
                    Val::F(f) => f.to_bits(),
                    Val::I(i) => i as u64,
                    Val::B(b) => u64::from(b),
                }]
            } else if let Some(h) = s.global_array(&n) {
                (0..h.len()).map(|k| h.get_bits(k)).collect()
            } else {
                Vec::new()
            };
            (n, bits)
        })
        .collect();
    Snapshot {
        result: result.map(|v| format!("{v:?}")),
        printed,
        globals,
    }
}

/// Tree-walk oracle snapshot of an F77 program's `main`.
fn f77_oracle(sources: &[String]) -> Snapshot {
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let s = Session::solo(CompiledProgram::compile(&refs).expect("generated F77 compiles"));
    let out = s
        .run_tiered("main", &[], ExecMode::Serial, ExecTier::TreeWalk)
        .expect("oracle runs");
    snapshot(&s, out.result, out.printed)
}

struct State {
    service: EngineService,
    /// The port space then the F77 pool, with their sources.
    items: Vec<(Item, Vec<String>)>,
    nports: usize,
    /// Per item: the tree-walk oracle's snapshot for F77 items.
    f77_refs: Vec<Option<Snapshot>>,
    sarb_ref: (ColumnOutput, f64),
    mesh: Mesh,
    jac_ref: Vec<f64>,
}

/// What `post` needs to book the Rust ceiling.
enum Ran {
    Sarb(u64),
    Fun3d(u64),
    Other,
}

/// One op on item `k`: returns what the ceiling needs and whether the
/// op ended correct.
fn op(ctx: &Ctx, st: &State, k: usize, log: &mut OpLog, qs: &mut QueueStats) -> (Ran, bool) {
    let tr = &ctx.tracer;
    let t0 = ctx.clock.now();
    let (item, ref pooled) = st.items[k];
    // A port's sources are generated in the op; an F77 program is input.
    let generated;
    let sources = match item {
        Item::F77(_) => pooled,
        _ => {
            generated = port_sources(ctx, item);
            &generated
        }
    };
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let job = match item {
        Item::Sarb(_) => Job::new("run_columns", vec![ArgVal::I(NCOL)]),
        Item::Fun3d(_) => Job::new("build_mesh", vec![ArgVal::I(NCELL)]),
        Item::F77(_) => Job::new("main", vec![]),
    };
    let mut report = tr.span("queue.batch", || {
        let mut q = st.service.queue(1);
        q.submit_sources(&refs, job);
        q.run_batch_report()
    });
    qs.add(&report, 1);
    let jr = report.results.pop().expect("one result per job");
    let what = format!("{item:?}");
    let (session, out) = match (jr.session, jr.result) {
        (Some(s), Ok(out)) => (s, out),
        (_, Err(e)) => {
            log.record(&what, ctx.clock.since(t0), Verdict::Error(e.to_string()));
            return (Ran::Other, false);
        }
        (None, Ok(_)) => {
            log.record(
                &what,
                ctx.clock.since(t0),
                Verdict::Error("no session returned".into()),
            );
            return (Ran::Other, false);
        }
    };
    let (v, ran) = match item {
        Item::Sarb(_) => {
            let v = tr.span("check", || {
                match crate::sarb_jobs::check(&SarbOutputs::read(&session), &st.sarb_ref) {
                    Ok(()) => Verdict::Ok,
                    Err(m) => Verdict::Mismatch(m),
                }
            });
            (v, Ran::Sarb(jr.wall.as_nanos() as u64))
        }
        Item::Fun3d(variant) => {
            let (run, ns) = timed(|| {
                tr.span("vm.run", || {
                    session.run(entry_point(variant), &[], ExecMode::Serial)
                })
            });
            match run {
                Err(e) => (Verdict::Error(e.to_string()), Ran::Other),
                Ok(_) => {
                    let v = tr.span("check", || {
                        let Some(jac) = session.global_array("mesh_mod::jac") else {
                            return Verdict::Mismatch("jac not allocated".into());
                        };
                        match bits_eq("jac", &jac.to_f64_vec(), &st.jac_ref) {
                            Ok(()) => Verdict::Ok,
                            Err(m) => Verdict::Mismatch(m),
                        }
                    });
                    (v, Ran::Fun3d(ns))
                }
            }
        }
        Item::F77(_) => {
            let want = st.f77_refs[k]
                .as_ref()
                .expect("F77 items have an oracle snapshot");
            let v = tr.span("check", || {
                if snapshot(&session, out.result, out.printed) == *want {
                    Verdict::Ok
                } else {
                    Verdict::Mismatch(
                        "PRINT output or COMMON globals differ from the tree-walk oracle".into(),
                    )
                }
            });
            (v, Ran::Other)
        }
    };
    let ok = matches!(v, Verdict::Ok);
    log.record(&what, ctx.clock.since(t0), v);
    (ran, ok)
}

/// Op count, time and correct untraced latencies of one op kind.
#[derive(Default)]
struct Kind {
    ops: u64,
    busy_ns: u64,
    lat_ns: Vec<u64>,
}

/// Front-end time of one item's sources: the fixed-form front end when
/// any source is fixed form (as `CompiledProgram::compile` picks it),
/// else the free-form parser, median of three calls.
fn frontend_ns(sources: &[String]) -> u64 {
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let mut ns: Vec<u64> = (0..3)
        .map(|_| {
            timed(|| {
                if refs.iter().any(|s| fortrans::is_fixed_form(s)) {
                    drop(std::hint::black_box(ProgramSet::from_sources(&refs)));
                } else {
                    for s in &refs {
                        drop(std::hint::black_box(fortrans::parse::parse(s)));
                    }
                }
            })
            .1
        })
        .collect();
    ns.sort_unstable();
    ns[1]
}

/// One set-up pass: the port space (generated and held to the library),
/// the references, a warm-up op of each kind, and a fresh service.
fn setup(ctx: &Ctx, f77: &[(Item, Vec<String>)]) -> State {
    let mut items = port_space(ctx);
    let nports = items.len();
    items.extend(f77.iter().cloned());
    let mesh = Mesh::build(NCELL as usize);
    let jac_ref = native_jacobian(&mesh);
    let f77_refs = items
        .iter()
        .map(|(it, sources)| matches!(it, Item::F77(_)).then(|| f77_oracle(sources)))
        .collect();
    let mut st = State {
        service: EngineService::new(CACHE_ENTRIES),
        items,
        nports,
        f77_refs,
        sarb_ref: run_columns_native(NCOL),
        mesh,
        jac_ref,
    };
    // Warm-up: one op of each kind, on items every seed has.
    let mut scratch = OpLog::default();
    let mut qs = QueueStats::default();
    let warm = [
        st.items.iter().position(|(it, _)| {
            matches!(it, Item::Sarb(SarbPort::Variant(SarbVariant::GlafSerial)))
        }),
        st.items
            .iter()
            .position(|(it, _)| matches!(it, Item::Fun3d(Fun3dVariant::OriginalSerial))),
        Some(nports),
    ];
    for k in warm.into_iter().flatten() {
        op(ctx, &st, k, &mut scratch, &mut qs);
    }
    // A fresh cache, so no warm-up compile is served to a timed op.
    st.service = EngineService::new(CACHE_ENTRIES);
    st
}

pub fn run(ctx: &Ctx) -> Outcome {
    let f77 = f77_pool(ctx.seed);
    let mut out = Outcome {
        tail_cap: 95.0,
        ..Outcome::default()
    };
    let st = ctx.setup(&mut out, || setup(ctx, &f77));
    let schedule = schedule(ctx.seed, st.nports);
    // The inputs are the sources themselves: digest every byte, in
    // schedule order.
    let mut d = Digest::new();
    for &k in &schedule {
        d.eat(format!("{:?}", st.items[k].0).as_bytes());
    }
    for (_, sources) in &st.items {
        for s in sources {
            d.eat(s.as_bytes());
        }
    }
    out.digest = d.hex();
    out.schedule_len = schedule.len();

    let mut qs = QueueStats::default();
    // Port ops, then F77 ops.
    let mut kinds: [Kind; 2] = Default::default();
    let mut ran_items = vec![0u64; st.items.len()];
    ctx.closed_loop(
        &mut out.log,
        |i, log| {
            let k = schedule[i as usize % SCHEDULE];
            let t0 = ctx.clock.now();
            let (ran, ok) = op(ctx, &st, k, log, &mut qs);
            let ns = ctx.clock.since(t0);
            let kind = &mut kinds[usize::from(k >= st.nports)];
            kind.ops += 1;
            kind.busy_ns += ns;
            if ok && !log.traced {
                kind.lat_ns.push(ns);
            }
            ran_items[k] += 1;
            ran
        },
        |ran, log| match ran {
            Ran::Sarb(ns) => {
                log.ceiling.time("sarb", ns, || {
                    std::hint::black_box(run_columns_native(NCOL))
                });
            }
            Ran::Fun3d(ns) => {
                log.ceiling.time("fun3d", ns, || {
                    std::hint::black_box(native_jacobian(&st.mesh))
                });
            }
            Ran::Other => {}
        },
    );
    if st.service.cache().hits() != 0 {
        out.log.note(format!(
            "cache served {} hits in a schedule meant to miss",
            st.service.cache().hits()
        ));
    }
    ctx.setup_more(&mut out, || setup(ctx, &f77));
    report_mix(&kinds, &mut out.notes);
    if ctx.traced {
        report_frontends(&st, &ran_items, out.log.busy_ns, &mut out.notes);
    }
    qs.export(&mut out.layer);
    export_cache(st.service.cache(), &mut out.layer);
    out
}

/// Per op kind: ops, share of op time and median latency, and the kind
/// the overall median and p95 op fall in.
fn report_mix(kinds: &[Kind; 2], notes: &mut Vec<(String, String)>) {
    let busy: u64 = kinds.iter().map(|k| k.busy_ns).sum();
    let mut line = String::new();
    for (name, k) in ["port", "f77"].iter().zip(kinds) {
        line.push_str(&format!(
            "{name}: {} ops, {:.3} of op time, p50 {:.3} ms; ",
            k.ops,
            k.busy_ns as f64 / busy.max(1) as f64,
            median_ns(&k.lat_ns) / 1e6
        ));
    }
    notes.push(("op_mix".into(), line.trim_end_matches("; ").into()));
    let mut all: Vec<(u64, &str)> = ["port", "f77"]
        .iter()
        .zip(kinds)
        .flat_map(|(name, k)| k.lat_ns.iter().map(move |&n| (n, *name)))
        .collect();
    all.sort_unstable();
    if let Some(last) = all.len().checked_sub(1) {
        let at = |q: f64| all[(q * last as f64).round() as usize].1;
        notes.push((
            "op_quantile_kind".into(),
            format!("p50 in {} ops, p95 in {} ops", at(0.5), at(0.95)),
        ));
    }
}

/// Each front end's share of op time: its time on an item's sources,
/// times the ops run on that item, over all op time; and its mean time
/// per op of its kind.
fn report_frontends(
    st: &State,
    ran_items: &[u64],
    busy_ns: u64,
    notes: &mut Vec<(String, String)>,
) {
    let mut total = [0f64; 2];
    let mut mean = [0f64; 2];
    let mut count = [0usize; 2];
    for (k, (_, sources)) in st.items.iter().enumerate() {
        let ns = frontend_ns(sources) as f64;
        let kind = usize::from(k >= st.nports);
        total[kind] += ns * ran_items[k] as f64;
        mean[kind] += ns;
        count[kind] += 1;
    }
    let (p, f) = (mean[0] / count[0] as f64, mean[1] / count[1] as f64);
    notes.push((
        "frontend_op_ms".into(),
        format!(
            "free-form {:.4} per port op, fixed-form {:.4} per F77 op (F77 share for equal time {:.2})",
            p / 1e6,
            f / 1e6,
            p / (p + f)
        ),
    ));
    notes.push((
        "frontend_op_time_share".into(),
        format!(
            "free-form {:.4}, fixed-form {:.4}",
            total[0] / busy_ns.max(1) as f64,
            total[1] / busy_ns.max(1) as f64
        ),
    ));
}
