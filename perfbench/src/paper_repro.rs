//! `paper_repro`: each op reproduces one Fig. 5/6/7 measurement at the
//! paper's sizes (SARB 8 columns, FUN3D 2000 cells, 1–16 simulated
//! threads): codegen → compile → a Simulated run on the traced bytecode
//! build → `simcpu::time_trace`. Runs are taken in seeded order and the
//! cycle repeats. Outputs must match the Rust oracle bit for bit, and a
//! run's simulated cycles must repeat exactly every time it recurs.
//!
//! The only workload where the traced build, Simulated mode and `simcpu`
//! do the work: `repro_all`'s traffic.

use std::collections::BTreeMap;

use fortrans::{ArgVal, CompiledProgram, ExecMode, Session};
use fun3d::mesh::Mesh;
use fun3d::native::native_jacobian;
use fun3d::variants::{entry_point, Fun3dConfig, Fun3dVariant};
use glaf_bench::{ordering_agreement, Bar};
use sarb::native::{run_columns_native, ColumnOutput};
use sarb::variants::{SarbOutputs, SarbVariant};
use simcpu::{time_trace, MachineModel};

use crate::common::{bits_eq, digest_lines, Ctx, OpLog, Outcome, Verdict};
use crate::compile_cold::{port_sources, Item, SarbPort};
use crate::util::{timed, Rng};

pub const NCOL: i64 = 8;
pub const NCELL: i64 = 2000;
const FIG7_THREADS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Run {
    Sarb { v: SarbVariant, threads: usize },
    Fun3d(Fun3dVariant),
}

fn worst() -> Fun3dConfig {
    Fun3dConfig {
        par_edgejp: true,
        par_cell_loop: true,
        par_edge_loop: true,
        par_ioff_search: true,
        no_realloc: false,
        fuse: false,
    }
}

/// One figure: its base run and its bars as `(label, run, paper
/// speed-up)`, with the paper's bar heights (the ones `repro_all` prints).
struct Figure {
    id: &'static str,
    base: Run,
    bars: Vec<(String, Run, Option<f64>)>,
}

fn figures() -> Vec<Figure> {
    let s = |v, threads| Run::Sarb { v, threads };
    let fig5 = [
        (SarbVariant::OriginalSerial, Some(1.00)),
        (SarbVariant::GlafSerial, Some(0.89)),
        (SarbVariant::GlafParallel(0), Some(0.48)),
        (SarbVariant::GlafParallel(1), Some(0.66)),
        (SarbVariant::GlafParallel(2), Some(1.11)),
        (SarbVariant::GlafParallel(3), Some(1.41)),
        (SarbVariant::GlafCostModel, None),
    ]
    .into_iter()
    .map(|(v, p)| (v.name(), s(v, 4), p))
    .collect();
    let fig6 = [(1usize, 0.92), (2, 1.24), (4, 1.59), (8, 0.70)]
        .into_iter()
        .map(|(t, p)| {
            (
                format!("v3 {t}T"),
                s(SarbVariant::GlafParallel(3), t),
                Some(p),
            )
        })
        .collect();
    let f = Run::Fun3d;
    let fig7 = vec![
        (
            "original serial".into(),
            f(Fun3dVariant::OriginalSerial),
            Some(1.0),
        ),
        (
            "manual parallel".into(),
            f(Fun3dVariant::ManualParallel),
            Some(3.85),
        ),
        (
            "GLAF best".into(),
            f(Fun3dVariant::Glaf(Fun3dConfig::best())),
            Some(1.67),
        ),
        (
            "GLAF worst".into(),
            f(Fun3dVariant::Glaf(worst())),
            Some(1.0 / 128.0),
        ),
    ];
    vec![
        Figure {
            id: "fig5",
            base: s(SarbVariant::OriginalSerial, 4),
            bars: fig5,
        },
        Figure {
            id: "fig6",
            base: s(SarbVariant::GlafSerial, 1),
            bars: fig6,
        },
        Figure {
            id: "fig7",
            base: f(Fun3dVariant::OriginalSerial),
            bars: fig7,
        },
    ]
}

/// Every distinct run the figures need.
fn runs() -> Vec<Run> {
    let mut out: Vec<Run> = Vec::new();
    for Figure { base, bars, .. } in figures() {
        for r in std::iter::once(base).chain(bars.into_iter().map(|b| b.1)) {
            if !out.contains(&r) {
                out.push(r);
            }
        }
    }
    out
}

struct State {
    i5: MachineModel,
    xeon: MachineModel,
    sarb_ref: (ColumnOutput, f64),
    mesh: Mesh,
    jac_ref: Vec<f64>,
}

fn setup_state() -> State {
    let mesh = Mesh::build(NCELL as usize);
    let jac_ref = native_jacobian(&mesh);
    State {
        i5: MachineModel::i5_2400_like(),
        xeon: MachineModel::xeon_e5_2637v4_dual_like(),
        sarb_ref: run_columns_native(NCOL),
        mesh,
        jac_ref,
    }
}

/// One run: returns the verdict, simulated cycles and the Simulated run
/// time.
fn op(ctx: &Ctx, st: &State, run: Run) -> (Verdict, f64, u64) {
    let tr = &ctx.tracer;
    let item = match run {
        Run::Sarb { v, .. } => Item::Sarb(SarbPort::Variant(v)),
        Run::Fun3d(v) => Item::Fun3d(v),
    };
    let sources = port_sources(ctx, item);
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let art = match tr.span("compile", || CompiledProgram::compile(&refs)) {
        Ok(a) => a,
        Err(e) => return (Verdict::Error(e.to_string()), 0.0, 0),
    };
    let session = tr.span("session.open", || Session::solo(art));
    let (entry, args, threads, machine) = match run {
        Run::Sarb { threads, .. } => ("run_columns", vec![ArgVal::I(NCOL)], threads, &st.i5),
        Run::Fun3d(v) => {
            let mesh = tr.span("fun3d.mesh", || {
                session.run("build_mesh", &[ArgVal::I(NCELL)], ExecMode::Serial)
            });
            if let Err(e) = mesh {
                return (Verdict::Error(e.to_string()), 0.0, 0);
            }
            (entry_point(v), vec![], FIG7_THREADS, &st.xeon)
        }
    };
    let (out, sim_ns) = timed(|| {
        tr.span("sim.run", || {
            session.run(entry, &args, ExecMode::Simulated { threads })
        })
    });
    let out = match out {
        Ok(o) => o,
        Err(e) => return (Verdict::Error(e.to_string()), 0.0, 0),
    };
    let report = tr.span("simcpu.time", || time_trace(&out.trace, machine));
    let v = tr.span("check", || {
        let r = match run {
            Run::Sarb { .. } => crate::sarb_jobs::check(&SarbOutputs::read(&session), &st.sarb_ref),
            Run::Fun3d(_) => match session.global_array("mesh_mod::jac") {
                Some(jac) => bits_eq("jac", &jac.to_f64_vec(), &st.jac_ref),
                None => Err("jac not allocated".into()),
            },
        };
        match r {
            Ok(()) => Verdict::Ok,
            Err(m) => Verdict::Mismatch(m),
        }
    });
    (v, report.total_cycles, sim_ns)
}

/// One set-up pass: machine models, references and the warm-up.
fn setup(ctx: &Ctx) -> State {
    let st = setup_state();
    // Warm-up: one SARB and one FUN3D run, the same for every seed.
    op(
        ctx,
        &st,
        Run::Sarb {
            v: SarbVariant::GlafSerial,
            threads: 1,
        },
    );
    op(
        ctx,
        &st,
        Run::Fun3d(Fun3dVariant::Glaf(Fun3dConfig::best())),
    );
    st
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut order = runs();
    Rng::new(ctx.seed, 4).shuffle(&mut order);
    let mut out = Outcome {
        digest: digest_lines(&order),
        schedule_len: order.len(),
        tail_cap: 90.0,
        ..Outcome::default()
    };
    let st = ctx.setup(&mut out, || setup(ctx));
    let mut cycles: BTreeMap<usize, f64> = BTreeMap::new();
    ctx.closed_loop(
        &mut out.log,
        |i, log: &mut OpLog| {
            let k = i as usize % order.len();
            let run = order[k];
            let t0 = ctx.clock.now();
            let (mut v, cyc, sim_ns) = op(ctx, &st, run);
            if matches!(v, Verdict::Ok) {
                let first = *cycles.entry(k).or_insert(cyc);
                if first.to_bits() != cyc.to_bits() {
                    v = Verdict::Mismatch(format!("simulated cycles {cyc} then {first}"));
                }
            }
            log.record(&format!("{run:?}"), ctx.clock.since(t0), v);
            (run, sim_ns)
        },
        |(run, sim_ns), log| {
            if sim_ns == 0 {
                return;
            }
            match run {
                Run::Sarb { .. } => {
                    log.ceiling.time("sarb", sim_ns, || {
                        std::hint::black_box(run_columns_native(NCOL))
                    });
                }
                Run::Fun3d(_) => {
                    log.ceiling.time("fun3d", sim_ns, || {
                        std::hint::black_box(native_jacobian(&st.mesh))
                    });
                }
            }
        },
    );
    ctx.setup_more(&mut out, || setup(ctx));
    // Paper ordering agreement over the figures whose runs all completed.
    let measured = |r: &Run| {
        order
            .iter()
            .position(|o| o == r)
            .and_then(|k| cycles.get(&k).copied())
    };
    let (mut agree, mut pairs) = (0.0, 0.0);
    for Figure { id, base, bars } in figures() {
        let Some(base_cyc) = measured(&base) else {
            out.notes
                .push((format!("{id}.order_agree"), "incomplete".into()));
            continue;
        };
        let bars: Option<Vec<Bar>> = bars
            .into_iter()
            .map(|(label, r, paper)| {
                measured(&r).map(|c| Bar {
                    label,
                    paper,
                    measured: base_cyc / c,
                })
            })
            .collect();
        let Some(bars) = bars else {
            out.notes
                .push((format!("{id}.order_agree"), "incomplete".into()));
            continue;
        };
        let n = bars.iter().filter(|b| b.paper.is_some()).count() as f64;
        let p = n * (n - 1.0) / 2.0;
        let a = ordering_agreement(&bars);
        agree += a * p;
        pairs += p;
        out.notes
            .push((format!("{id}.order_agree"), format!("{a:.4}")));
    }
    if pairs > 0.0 {
        out.notes
            .push(("paper_order_agree".into(), format!("{:.4}", agree / pairs)));
    }
    // In run order-independent form, so runs with other seeds compare.
    let mut by_run: Vec<(String, u64)> = cycles
        .iter()
        .map(|(k, c)| (format!("{:?}", order[*k]), c.to_bits()))
        .collect();
    by_run.sort();
    out.notes
        .push(("simcpu.cycles_digest".into(), digest_lines(&by_run)));
    out
}
