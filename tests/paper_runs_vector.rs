//! The 15 Fig. 5/6/7 runs in Simulated mode, with the bytecode VM's
//! vector tier on and off. The traced build runs vectorizable loops on
//! the vector executor and charges their cost in one step, so the cost
//! trace, the simulated cycles and the program outputs must all be
//! bit-identical either way. Reduced sizes keep this in the tier-1 run:
//! SARB over 2 columns, FUN3D over 200 cells.

use glaf_repro::fortrans::{ArgVal, CostTrace, ExecMode, Session};
use glaf_repro::fun3d::variants::{self as f3d, Fun3dConfig, Fun3dVariant};
use glaf_repro::sarb::variants::{self as sarb, SarbOutputs, SarbVariant};
use glaf_repro::simcpu::{time_trace, MachineModel};

const NCOL: i64 = 2;
const NCELL: i64 = 200;
const FIG7_THREADS: usize = 16;

/// What one Simulated run leaves behind: its cost trace, the machine
/// model's cycle total (as bits), the outputs (as bits) and how many
/// loop entries ran on the vector path.
struct Sim {
    trace: CostTrace,
    cycles: u64,
    outputs: Vec<u64>,
    vector_entries: u64,
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn sarb_sim(v: SarbVariant, threads: usize, vector: bool) -> Sim {
    let session = Session::solo(sarb::build_artifact(v));
    session.set_vector_enabled(vector);
    let out = session
        .run("run_columns", &[ArgVal::I(NCOL)], ExecMode::Simulated { threads })
        .unwrap_or_else(|e| panic!("{} {threads}T: {e}", v.name()));
    Sim {
        cycles: time_trace(&out.trace, &MachineModel::i5_2400_like()).total_cycles.to_bits(),
        trace: out.trace,
        outputs: bits(&SarbOutputs::read(&session).flat()),
        vector_entries: session.vector_entry_count(),
    }
}

fn fun3d_sim(v: Fun3dVariant, vector: bool) -> Sim {
    let session = Session::solo(f3d::build_artifact(v));
    session.set_vector_enabled(vector);
    session
        .run("build_mesh", &[ArgVal::I(NCELL)], ExecMode::Serial)
        .unwrap_or_else(|e| panic!("{} mesh: {e}", v.name()));
    // Only the Simulated run counts, not the Serial mesh build.
    let before = session.vector_entry_count();
    let out = session
        .run(f3d::entry_point(v), &[], ExecMode::Simulated { threads: FIG7_THREADS })
        .unwrap_or_else(|e| panic!("{}: {e}", v.name()));
    let jac = session.global_array("mesh_mod::jac").expect("jac allocated");
    Sim {
        cycles: time_trace(&out.trace, &MachineModel::xeon_e5_2637v4_dual_like())
            .total_cycles
            .to_bits(),
        trace: out.trace,
        outputs: bits(&jac.to_f64_vec()),
        vector_entries: session.vector_entry_count() - before,
    }
}

/// Vector tier on vs off: same trace, cycles and outputs; the disabled
/// session never enters the vector path. Returns the enabled run's
/// vector entry count.
fn assert_identical(label: &str, run: impl Fn(bool) -> Sim) -> u64 {
    let on = run(true);
    let off = run(false);
    assert!(on.trace == off.trace, "{label}: cost trace differs with the vector tier on");
    assert_eq!(on.cycles, off.cycles, "{label}: simulated cycles differ");
    assert_eq!(on.outputs, off.outputs, "{label}: outputs differ");
    assert_eq!(off.vector_entries, 0, "{label}: disabled session entered the vector path");
    on.vector_entries
}

#[test]
fn sarb_fig5_fig6_runs_are_cost_exact_with_the_vector_tier() {
    let fig5 = [
        SarbVariant::OriginalSerial,
        SarbVariant::GlafSerial,
        SarbVariant::GlafParallel(0),
        SarbVariant::GlafParallel(1),
        SarbVariant::GlafParallel(2),
        SarbVariant::GlafParallel(3),
        SarbVariant::GlafCostModel,
    ]
    .map(|v| (v, 4));
    let fig6 = [
        (SarbVariant::GlafSerial, 1),
        (SarbVariant::GlafParallel(3), 1),
        (SarbVariant::GlafParallel(3), 2),
        (SarbVariant::GlafParallel(3), 8),
    ];
    for (v, threads) in fig5.into_iter().chain(fig6) {
        let label = format!("{} {threads}T", v.name());
        let entries = assert_identical(&label, |on| sarb_sim(v, threads, on));
        // The serial ports and the v2/v3 rungs keep their hot loops
        // serial, so the Simulated run must actually vectorize them.
        let hot_serial = matches!(
            v,
            SarbVariant::OriginalSerial
                | SarbVariant::GlafSerial
                | SarbVariant::GlafParallel(2)
                | SarbVariant::GlafParallel(3)
        );
        if hot_serial {
            assert!(entries > 0, "{label}: Simulated run never took the vector path");
        }
    }
}

#[test]
fn fun3d_fig7_runs_are_cost_exact_with_the_vector_tier() {
    let worst = Fun3dConfig {
        par_edgejp: true,
        par_cell_loop: true,
        par_edge_loop: true,
        par_ioff_search: true,
        no_realloc: false,
        fuse: false,
    };
    for v in [
        Fun3dVariant::OriginalSerial,
        Fun3dVariant::ManualParallel,
        Fun3dVariant::Glaf(Fun3dConfig::best()),
        Fun3dVariant::Glaf(worst),
    ] {
        assert_identical(&v.name(), |on| fun3d_sim(v, on));
    }
}
