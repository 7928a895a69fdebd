//! `fun3d_omp`: each op opens a fresh session on the cached Fig. 7 best
//! configuration (GLAF EdgeJP + noRealloc), builds a mesh of a seeded
//! cell count near the paper's 2000 cells, and runs `edgejp` with one OMP
//! thread per CPU. The Jacobian must pass the §4.2.1 RMS 1e-7 check
//! against `fun3d::native::native_jacobian_rayon`.
//!
//! The only workload that forks real OMP teams: fork/join, atomics on
//! `jac`, threadprivate and SAVE storage. The configuration is the
//! paper's best one on purpose; a storage race in it shows as failed ops.

use std::collections::BTreeMap;

use fortrans::{ArgVal, EngineService, ExecMode};
use fun3d::mesh::Mesh;
use fun3d::native::native_jacobian_rayon;
use fun3d::variants::{variant_sources, Fun3dConfig, Fun3dVariant};

use crate::common::{digest_lines, export_cache, rms_ok, Ctx, Outcome, Verdict};
use crate::util::{ns_since, timed, Rng};

/// Cell counts are drawn from 1900..=2100 in steps of 25.
fn ncell_choices() -> Vec<i64> {
    (0..9).map(|k| 1900 + 25 * k).collect()
}
const SCHEDULE: usize = 1024;
const WARM_UP_OPS: usize = 2;

struct State {
    service: EngineService,
    sources: Vec<String>,
    refs: BTreeMap<i64, (Mesh, Vec<f64>)>,
}

pub fn sources() -> Vec<String> {
    variant_sources(Fun3dVariant::Glaf(Fun3dConfig::best()))
}

/// One op: fresh session, mesh, parallel Jacobian, RMS check.
/// Returns the verdict and the `edgejp` run time (0 when it errored).
fn op(ctx: &Ctx, st: &State, ncell: i64) -> (Verdict, u64) {
    let tr = &ctx.tracer;
    let refs: Vec<&str> = st.sources.iter().map(String::as_str).collect();
    let session = match tr.span("session.open", || st.service.session(&refs)) {
        Ok(s) => s,
        Err(e) => return (Verdict::Error(e.to_string()), 0),
    };
    if let Err(e) = tr.span("fun3d.mesh", || {
        session.run("build_mesh", &[ArgVal::I(ncell)], ExecMode::Serial)
    }) {
        return (Verdict::Error(e.to_string()), 0);
    }
    let (run, run_ns) = timed(|| {
        tr.span("vm.run", || {
            session.run(
                "edgejp",
                &[],
                ExecMode::Parallel {
                    threads: ctx.threads,
                },
            )
        })
    });
    if let Err(e) = run {
        return (Verdict::Error(e.to_string()), 0);
    }
    let v = tr.span("check", || {
        let jac = session
            .global_array("mesh_mod::jac")
            .map(|a| a.to_f64_vec())
            .unwrap_or_default();
        match rms_ok("jac", &jac, &st.refs[&ncell].1) {
            Ok(()) => Verdict::Ok,
            Err(m) => Verdict::Mismatch(m),
        }
    });
    (v, run_ns)
}

/// One set-up pass: the compiled artifact, the references for every
/// cell count, and the warm-up.
fn setup(ctx: &Ctx, choices: &[i64]) -> State {
    let service = EngineService::new(4);
    let sources = sources();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    service
        .compile(&refs)
        .expect("FUN3D best configuration compiles");
    let refs = choices
        .iter()
        .map(|&n| {
            let mesh = Mesh::build(n as usize);
            let jac = native_jacobian_rayon(&mesh);
            (n, (mesh, jac))
        })
        .collect();
    let st = State {
        service,
        sources,
        refs,
    };
    // Warm-up: a fixed number of ops, whatever their verdict (an op
    // can hit the race), so every pass does the same work.
    for _ in 0..WARM_UP_OPS {
        op(ctx, &st, 2000);
    }
    st
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut rng = Rng::new(ctx.seed, 2);
    let choices = ncell_choices();
    let schedule: Vec<i64> = (0..SCHEDULE)
        .map(|_| choices[rng.below(choices.len() as u64) as usize])
        .collect();
    let mut out = Outcome {
        digest: digest_lines(&schedule),
        schedule_len: schedule.len(),
        tail_cap: 90.0,
        errors_tolerated: true,
        ..Outcome::default()
    };
    let st = ctx.setup(&mut out, || setup(ctx, &choices));
    ctx.closed_loop(
        &mut out.log,
        |i, log| {
            let ncell = schedule[i as usize % SCHEDULE];
            let t0 = std::time::Instant::now();
            let (v, run_ns) = op(ctx, &st, ncell);
            log.record(&format!("edgejp(ncell={ncell})"), ns_since(t0), v);
            (ncell, run_ns)
        },
        |(ncell, run_ns), log| {
            if run_ns > 0 {
                let mesh = &st.refs[&ncell].0;
                log.ceiling.time("fun3d", run_ns, || {
                    std::hint::black_box(native_jacobian_rayon(mesh))
                });
            }
        },
    );
    ctx.setup_more(&mut out, || setup(ctx, &choices));
    export_cache(st.service.cache(), &mut out.layer);
    out
}
