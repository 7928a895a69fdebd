//! The per-run layer battery of a traced run: every layer's public entry
//! point called directly, on the workload's own program family and
//! sizes, so each per-layer metric exists for every workload. Layers the
//! op loop already crosses get most of their spans from there; the
//! battery supplies the rest, plus the counters only a direct call can
//! read (instruction counts, tier entries, region metrics).

use std::collections::BTreeMap;
use std::sync::Arc;

use fortrans::bytecode::compile_program;
use fortrans::{
    ArgVal, CompiledProgram, EngineService, ExecMode, ExecTier, Job, Profile, ProgramSet, Session,
    SpanKind, SpanNode, VectorLoopInfo,
};
use fun3d::mesh::Mesh;
use fun3d::native::{native_jacobian, native_jacobian_rayon};
use glaf::{Glaf, Lang};
use sarb::native::run_columns_native;
use sarb::variants::{SarbOutputs, SarbVariant};
use simcpu::{time_trace, MachineModel};

use crate::common::{bits_eq, rms_ok, OpLog, QueueStats};
use crate::compile_cold::sarb_options;
use crate::trace::{Tracer, BATTERY_OP};
use crate::util::median_ns;

const REPS: usize = 5;
const RUN_REPS: usize = 3;
/// How far the summed compile-phase spans may stray from one
/// `CompiledProgram::compile` before the trace is called inconsistent.
pub const PHASE_SUM_BOUND: f64 = 0.25;

#[derive(Clone, Copy, Debug)]
pub enum Family {
    Sarb,
    Fun3d,
}

/// What the battery runs on: the family the workload's ops run, its
/// sizes, and the seed of the F77 program the fixed-form front end reads.
pub struct Plan {
    pub family: Family,
    pub ncol: i64,
    pub ncell: i64,
    pub f77_seed: u64,
}

struct Battery<'a> {
    tr: &'a Tracer,
    op: u64,
    log: &'a mut OpLog,
    m: BTreeMap<&'static str, f64>,
}

impl Battery<'_> {
    /// Starts the next battery op.
    fn next(&mut self) {
        self.op += 1;
        self.tr.set(self.op, true);
    }

    fn fail(&mut self, what: &str, msg: String) {
        self.log.mismatches += 1;
        self.log.note(format!("MISMATCH: battery {what}: {msg}"));
    }
}

/// The family's program: sources, main entry and its arguments.
struct Program {
    sources: Vec<String>,
    artifact: Arc<CompiledProgram>,
    entry: &'static str,
    args: Vec<ArgVal>,
}

impl Program {
    fn refs(&self) -> Vec<&str> {
        self.sources.iter().map(String::as_str).collect()
    }
}

fn program(plan: &Plan, sources: Vec<String>) -> Program {
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let artifact = CompiledProgram::compile(&refs).expect("battery program compiles");
    let (entry, args) = match plan.family {
        Family::Sarb => ("run_columns", vec![ArgVal::I(plan.ncol)]),
        Family::Fun3d => ("edgejp", vec![]),
    };
    Program {
        sources,
        artifact,
        entry,
        args,
    }
}

/// Runs the family's main entry on `s` (after a fresh mesh for FUN3D)
/// and checks the output against the Rust oracle: bit-exact in serial
/// order, RMS 1e-7 in parallel. Returns whether the run completed.
fn run_checked(
    b: &mut Battery,
    plan: &Plan,
    p: &Program,
    s: &Session,
    mode: ExecMode,
    tier: ExecTier,
    span: &'static str,
) -> bool {
    let run = (|| {
        if matches!(plan.family, Family::Fun3d) {
            s.run("build_mesh", &[ArgVal::I(plan.ncell)], ExecMode::Serial)?;
        }
        b.tr.span(span, || s.run_tiered(p.entry, &p.args, mode, tier))
    })();
    if let Err(e) = run {
        b.log.note(format!("error: battery {span}: {e}"));
        return false;
    }
    let exact = !matches!(mode, ExecMode::Parallel { .. });
    let verdict = match plan.family {
        Family::Sarb => {
            let want = run_columns_native(plan.ncol);
            let got = SarbOutputs::read(s);
            if exact {
                crate::sarb_jobs::check(&got, &want)
            } else {
                let (c, total) = &want;
                let mut flat: Vec<f64> = [&c.fdl, &c.ful, &c.fds, &c.fus, &c.entl, &c.ents]
                    .into_iter()
                    .flatten()
                    .copied()
                    .collect();
                flat.extend([c.sent, *total]);
                rms_ok("outputs", &got.flat(), &flat)
            }
        }
        Family::Fun3d => {
            let jac = s
                .global_array("mesh_mod::jac")
                .map(|a| a.to_f64_vec())
                .unwrap_or_default();
            let mesh = Mesh::build(plan.ncell as usize);
            if exact {
                bits_eq("jac", &jac, &native_jacobian(&mesh))
            } else {
                rms_ok("jac", &jac, &native_jacobian_rayon(&mesh))
            }
        }
    };
    if let Err(m) = verdict {
        b.fail(span, m);
    }
    true
}

/// Share of a scalar-path profile's wall time spent in loops the
/// compiler vectorized.
fn vec_loop_frac(profile: &Profile, vecs: &[VectorLoopInfo]) -> f64 {
    fn walk(nodes: &[SpanNode], unit: &str, vecs: &[VectorLoopInfo]) -> u64 {
        nodes
            .iter()
            .map(|n| match n.kind {
                SpanKind::Unit => walk(&n.children, &n.name, vecs),
                _ if vecs.iter().any(|v| v.unit == unit && v.line == n.line) => n.wall_ns,
                _ => walk(&n.children, unit, vecs),
            })
            .sum()
    }
    walk(&profile.spans, "", vecs) as f64 / profile.wall_ns.max(1) as f64
}

pub fn run(
    tr: &Tracer,
    threads: usize,
    plan: &Plan,
    log: &mut OpLog,
) -> BTreeMap<&'static str, f64> {
    let mut b = Battery {
        tr,
        op: BATTERY_OP,
        log,
        m: BTreeMap::new(),
    };
    let (model, opts, sources): (fn() -> glaf_ir::Program, _, _) = match plan.family {
        Family::Sarb => (
            sarb::glaf_model::build_sarb_program,
            sarb_options(SarbVariant::GlafSerial).expect("GLAF variant"),
            sarb::variants::variant_sources(SarbVariant::GlafSerial),
        ),
        Family::Fun3d => (
            fun3d::glaf_model::build_fun3d_program,
            fun3d::variants::Fun3dConfig::best().codegen_options(),
            crate::fun3d_omp::sources(),
        ),
    };
    let p = program(plan, sources);
    let fixed = fortrans::gen::generate(plan.f77_seed);
    let fixed_refs: Vec<&str> = fixed.iter().map(String::as_str).collect();
    let free_bytes: usize = p.sources.iter().map(String::len).sum();
    let fixed_bytes: usize = fixed.iter().map(String::len).sum();

    // GLAF analysis, fusion, code generation; the front ends; sema,
    // both bytecode builds and their verification; the whole compile.
    for _ in 0..REPS {
        b.next();
        let g = tr
            .span("glaf.analyze", || Glaf::new(model()))
            .expect("GLAF model is valid");
        let mut fused = Glaf::new(model()).expect("GLAF model is valid");
        tr.span("glaf.fuse", || fused.fuse());
        let gen = tr.span("codegen.generate", || g.generate(Lang::Fortran, &opts));
        b.m.insert("codegen.source_bytes", gen.source.len() as f64);
        tr.span("frontend.lex", || {
            for s in &p.sources {
                fortrans::lex::lex(s).expect("lexes");
            }
        });
        let ast = tr.span("frontend.free", || {
            let mut ast = fortrans::ast::Ast::default();
            for s in &p.sources {
                ast.modules
                    .append(&mut fortrans::parse::parse(s).expect("parses").modules);
            }
            ast
        });
        tr.span("frontend.fixed", || ProgramSet::from_sources(&fixed_refs))
            .expect("F77 ingests");
        let prog = tr
            .span("sema.resolve", || fortrans::sema::resolve(&ast))
            .expect("resolves");
        let opt = tr.span("bytecode.opt", || compile_program(&prog, false));
        tr.span("verify.opt", || {
            fortrans::verify::verify_program(&prog, &opt)
        })
        .expect("verifies");
        let traced = tr.span("bytecode.traced", || compile_program(&prog, true));
        tr.span("verify.traced", || {
            fortrans::verify::verify_program(&prog, &traced)
        })
        .expect("verifies");
        b.m.insert(
            "bytecode.instrs",
            opt.iter().map(|u| u.code.len()).sum::<usize>() as f64,
        );
        b.m.insert(
            "bytecode.vec_regions",
            opt.iter().map(|u| u.vecs.len()).sum::<usize>() as f64,
        );
        tr.span("compile", || CompiledProgram::compile(&p.refs()))
            .expect("compiles");
    }
    let med = |name| median_ns(&tr.durations(name, true));
    b.m.insert(
        "frontend.free_ns_per_byte",
        med("frontend.free") / free_bytes as f64,
    );
    b.m.insert(
        "frontend.fixed_ns_per_byte",
        med("frontend.fixed") / fixed_bytes as f64,
    );
    let phases: f64 = [
        "frontend.free",
        "sema.resolve",
        "bytecode.opt",
        "verify.opt",
    ]
    .into_iter()
    .chain(["bytecode.traced", "verify.traced"])
    .map(med)
    .sum();
    let ratio = phases / med("compile");
    b.m.insert("trace.compile_phase_ratio", ratio);
    if (ratio - 1.0).abs() > PHASE_SUM_BOUND {
        b.fail(
            "compile phases",
            format!("phase spans sum to {ratio:.3}x CompiledProgram::compile"),
        );
    }

    // Service: cache hits, session opens, one queue batch.
    let svc = EngineService::new(4);
    let art = svc.compile(&p.refs()).expect("compiles");
    for _ in 0..REPS {
        b.next();
        tr.span("cache.lookup", || svc.compile(&p.refs()))
            .expect("cache hit");
        tr.span("session.open", || svc.session_for(&art));
    }
    b.next();
    let job = || match plan.family {
        Family::Sarb => Job::new("run_columns", vec![ArgVal::I(plan.ncol)]),
        Family::Fun3d => Job::new("build_mesh", vec![ArgVal::I(plan.ncell)]),
    };
    let report = tr.span("queue.batch", || {
        let mut q = svc.queue(threads);
        for _ in 0..2 * threads {
            q.submit(&art, job());
        }
        q.run_batch_report()
    });
    let mut qs = QueueStats::default();
    qs.add(&report, threads);
    qs.export(&mut b.m);
    crate::common::export_cache(svc.cache(), &mut b.m);

    // Tiers: the same input rerun per tier, serial, checked bit-exact.
    let fresh = || Session::solo(Arc::clone(&p.artifact));
    let tiers: [(&'static str, ExecTier, bool, bool); 4] = [
        ("tier.scalar", ExecTier::Vm, false, false),
        ("tier.vector", ExecTier::Vm, true, false),
        ("tier.native", ExecTier::Native, true, true),
        ("vm.run", ExecTier::Vm, true, true),
    ];
    for (span, tier, vector, native) in tiers {
        let s = fresh();
        s.set_vector_enabled(vector);
        s.set_native_enabled(native);
        run_checked(&mut b, plan, &p, &s, ExecMode::Serial, tier, "warm-up");
        let (v0, n0, d0) = (
            s.vector_entry_count(),
            s.native_entry_count(),
            s.native_deopt_count(),
        );
        for _ in 0..RUN_REPS {
            b.next();
            run_checked(&mut b, plan, &p, &s, ExecMode::Serial, tier, span);
        }
        let per_run = |x: u64, x0: u64| (x - x0) as f64 / RUN_REPS as f64;
        match span {
            "tier.vector" => {
                b.m.insert("vm.vector_entries", per_run(s.vector_entry_count(), v0));
            }
            "tier.native" => {
                b.m.insert("jit.native_entries", per_run(s.native_entry_count(), n0));
                b.m.insert("jit.native_deopts", per_run(s.native_deopt_count(), d0));
            }
            _ => {}
        }
    }
    let mesh = Mesh::build(plan.ncell as usize);
    for _ in 0..RUN_REPS {
        b.next();
        tr.span("tier.oracle", || match plan.family {
            Family::Sarb => drop(std::hint::black_box(run_columns_native(plan.ncol))),
            Family::Fun3d => drop(std::hint::black_box(native_jacobian(&mesh))),
        });
    }
    b.m.insert(
        "tier.vector_over_scalar_x",
        med("tier.scalar") / med("tier.vector"),
    );
    b.m.insert(
        "tier.native_over_vector_x",
        med("tier.vector") / med("tier.native"),
    );
    {
        let s = fresh();
        if matches!(plan.family, Family::Fun3d) {
            s.run("build_mesh", &[ArgVal::I(plan.ncell)], ExecMode::Serial)
                .expect("mesh builds");
        }
        let (_, prof) = s
            .run_profiled(p.entry, &p.args, ExecMode::Serial, ExecTier::Vm)
            .expect("profiled run");
        b.m.insert("vm.steps", prof.steps as f64);
        b.m.insert(
            "vm.vec_loop_frac",
            vec_loop_frac(&prof, &p.artifact.vector_report()),
        );
    }

    // omprt: the family's OMP build, serial against one thread per CPU.
    let par = match plan.family {
        Family::Sarb => program(
            plan,
            sarb::variants::variant_sources(SarbVariant::GlafParallel(3)),
        ),
        Family::Fun3d => program(plan, p.sources.clone()),
    };
    let s = Session::solo(Arc::clone(&par.artifact));
    for _ in 0..RUN_REPS {
        b.next();
        run_checked(
            &mut b,
            plan,
            &par,
            &s,
            ExecMode::Serial,
            ExecTier::Vm,
            "omprt.serial",
        );
        // A parallel FUN3D run can hit the storage race of `fun3d_omp`;
        // retry a few times so each rep has one completed run.
        for _ in 0..4 {
            b.next();
            if run_checked(
                &mut b,
                plan,
                &par,
                &s,
                ExecMode::Parallel { threads },
                ExecTier::Vm,
                "omprt.par",
            ) {
                break;
            }
        }
    }
    b.m.insert(
        "omprt.par_over_serial_x",
        med("omprt.serial") / med("omprt.par"),
    );
    // A parallel run can fail (see `fun3d_omp`); take the first profile
    // that completes.
    let prof = (0..8).find_map(|_| {
        if matches!(plan.family, Family::Fun3d) {
            s.run("build_mesh", &[ArgVal::I(plan.ncell)], ExecMode::Serial)
                .ok()?;
        }
        s.run_profiled(
            par.entry,
            &par.args,
            ExecMode::Parallel { threads },
            ExecTier::Vm,
        )
        .ok()
        .map(|(_, prof)| prof)
    });
    let regions = prof.map(|p| p.regions).unwrap_or_default();
    let n = regions.len().max(1) as f64;
    b.m.insert("omprt.regions", regions.len() as f64);
    b.m.insert(
        "omprt.utilization",
        regions.iter().map(|r| r.utilization()).sum::<f64>() / n,
    );
    b.m.insert(
        "omprt.imbalance",
        regions.iter().map(|r| r.imbalance()).sum::<f64>() / n,
    );
    b.m.insert(
        "omprt.idle_ms",
        regions.iter().map(|r| r.idle_ns()).sum::<u64>() as f64 / 1e6,
    );

    // Simulated mode on the traced build, then simcpu; cycles must repeat.
    let (machine, sim_threads) = match plan.family {
        Family::Sarb => (MachineModel::i5_2400_like(), 4),
        Family::Fun3d => (MachineModel::xeon_e5_2637v4_dual_like(), 16),
    };
    let mut cycles = Vec::new();
    for _ in 0..2 {
        b.next();
        let s = fresh();
        if matches!(plan.family, Family::Fun3d) {
            s.run("build_mesh", &[ArgVal::I(plan.ncell)], ExecMode::Serial)
                .expect("mesh builds");
        }
        let out = tr
            .span("sim.run", || {
                s.run(
                    p.entry,
                    &p.args,
                    ExecMode::Simulated {
                        threads: sim_threads,
                    },
                )
            })
            .expect("simulated run");
        let rep = tr.span("simcpu.time", || time_trace(&out.trace, &machine));
        b.m.insert("sim.cost_events", out.trace.events.len() as f64);
        b.m.insert("simcpu.cycles", rep.total_cycles);
        cycles.push(rep.total_cycles.to_bits());
    }
    if cycles.windows(2).any(|w| w[0] != w[1]) {
        b.fail(
            "simcpu",
            "simulated cycles differ between identical runs".into(),
        );
    }

    // Both Rust ceilings and the FUN3D mesh build, on every workload.
    let f3d = Session::solo(fun3d::variants::build_artifact(
        fun3d::variants::Fun3dVariant::Glaf(fun3d::variants::Fun3dConfig::best()),
    ));
    for _ in 0..RUN_REPS {
        b.next();
        tr.span("rust.sarb", || {
            std::hint::black_box(run_columns_native(plan.ncol))
        });
        tr.span("rust.fun3d", || {
            drop(std::hint::black_box(native_jacobian_rayon(&mesh)))
        });
        tr.span("fun3d.mesh", || {
            f3d.run("build_mesh", &[ArgVal::I(plan.ncell)], ExecMode::Serial)
        })
        .expect("mesh builds");
    }
    tr.set(0, false);
    b.m
}
