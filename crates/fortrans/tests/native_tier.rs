//! Tier-interaction tests for the native (tier-3) execution path:
//! cancellation and deadlines must trip *inside* JIT'd loops, session
//! recycling must scrub native-run state, guard-failure deopts must be
//! counted and surfaced through `run_profiled`, and concurrent sessions
//! sharing one native cache must stay bit-identical to the oracle.
//!
//! Every test runs on every platform: where the JIT backend is
//! unavailable (`!fortrans::jit::available()`), `ExecTier::Native`
//! falls through to the VM tiers, every behavioral assertion still
//! holds, and only the native-counter assertions are gated.

use std::sync::Arc;
use std::time::Duration;

use fortrans::{
    ArgVal, CancelToken, Engine, EngineService, ExecMode, ExecTier, RunLimits, ScalarTy, Val,
};

/// A long vectorizable reduction — the same shape `run_limits` meters;
/// promoted to native code on its first entry under `ExecTier::Native`.
const SPIN: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE spin(n, out)
    INTEGER :: n
    REAL(8), DIMENSION(1:1) :: out
    REAL(8) :: acc
    INTEGER :: i
    acc = 0.0D0
    DO i = 1, n
      acc = acc + SQRT(i * 1.0D0)
    END DO
    out(1) = acc
  END SUBROUTINE spin
END MODULE m
"#;

fn spin_args(n: i64) -> (Vec<ArgVal>, ArgVal) {
    let out = ArgVal::array_f(&[0.0], 1);
    (vec![ArgVal::I(n), out.clone()], out)
}

#[test]
fn cancel_token_fires_inside_native_loop() {
    let engine = Engine::compile(&[SPIN]).unwrap();
    let token = CancelToken::new();
    engine.set_cancel_token(Some(Arc::clone(&token)));
    let (args, _out) = spin_args(2_000_000_000);
    let arm = Arc::clone(&token);
    let watchdog = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(40));
        arm.cancel("tier-3 watchdog");
    });
    let err = engine
        .run_tiered("spin", &args, ExecMode::Serial, ExecTier::Native)
        .expect_err("a 2e9-iteration loop must not outrun the token");
    watchdog.join().unwrap();
    let msg = err.to_string();
    assert!(msg.contains("cancelled"), "unexpected error: {msg}");
    assert!(msg.contains("tier-3 watchdog"), "reason lost: {msg}");
    if fortrans::jit::available() {
        assert!(
            engine.native_entry_count() > 0,
            "cancellation should have interrupted a *native* loop entry"
        );
    }
}

#[test]
fn deadline_trips_inside_native_loop() {
    let mut engine = Engine::compile(&[SPIN]).unwrap();
    engine.set_limits(RunLimits {
        deadline: Some(Duration::from_millis(25)),
        ..RunLimits::default()
    });
    let (args, _out) = spin_args(2_000_000_000);
    let err = engine
        .run_tiered("spin", &args, ExecMode::Serial, ExecTier::Native)
        .expect_err("deadline must trip mid-loop");
    assert!(err.to_string().contains("deadline exceeded"), "{err}");
    if fortrans::jit::available() {
        assert!(
            engine.native_entry_count() > 0,
            "the deadline should have interrupted a *native* loop entry"
        );
    }
}

#[test]
fn step_budget_and_results_agree_with_oracle() {
    // Tight budget: the native tier pre-reserves the whole trip count,
    // sees it cannot fit, and falls through so the scalar loop trips
    // with the stock error at the exact iteration — same text as Vm.
    let mut engine = Engine::compile(&[SPIN]).unwrap();
    engine.set_limits(RunLimits { max_steps: Some(1_000), ..RunLimits::default() });
    let (args, _out) = spin_args(1_000_000);
    let err = engine
        .run_tiered("spin", &args, ExecMode::Serial, ExecTier::Native)
        .expect_err("budget trips");
    assert!(err.to_string().contains("step budget of 1000 exhausted"), "{err}");

    // Generous budget: the native answer is bit-identical to the
    // tree-walking oracle.
    let mut native = Engine::compile(&[SPIN]).unwrap();
    native.set_limits(RunLimits { max_steps: Some(100_000_000), ..RunLimits::default() });
    let (nargs, nout) = spin_args(100_000);
    native.run_tiered("spin", &nargs, ExecMode::Serial, ExecTier::Native).unwrap();
    let oracle = Engine::compile(&[SPIN]).unwrap();
    let (oargs, oout) = spin_args(100_000);
    oracle.run_tiered("spin", &oargs, ExecMode::Serial, ExecTier::TreeWalk).unwrap();
    assert_eq!(
        nout.handle().unwrap().get_bits(0),
        oout.handle().unwrap().get_bits(0),
        "native result must be bit-identical to the oracle"
    );
    if fortrans::jit::available() {
        assert!(native.native_entry_count() > 0, "loop never promoted");
        assert_eq!(native.native_deopt_count(), 0, "clean run must not deopt");
    }
}

/// Statically vectorizable, dynamically alias-hazardous: `a` and `b`
/// are distinct parameters, so the analyzer emits a `VecLoop`, but the
/// caller may pass one array for both — only the runtime entry guard
/// can see that.
const SHIFT: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE shift(a, b)
    REAL(8), DIMENSION(1:64) :: a, b
    INTEGER :: i
    DO i = 1, 63
      a(i) = b(i + 1) * 2.0D0 + 1.0D0
    END DO
  END SUBROUTINE shift
END MODULE m
"#;

#[test]
fn aliased_streams_deopt_and_match_oracle() {
    let init: Vec<f64> = (1..=64).map(|k| k as f64).collect();

    // Aliased call: same handle for both parameters. The promoted
    // region's entry guard must refuse (write a(i) overlaps read
    // b(i+1) in the same storage) and the scalar path must produce
    // exactly what the oracle produces for the same aliased call.
    let native = Engine::compile(&[SHIFT]).unwrap();
    let arr = ArgVal::array_f(&init, 1);
    native
        .run_tiered("shift", &[arr.clone(), arr.clone()], ExecMode::Serial, ExecTier::Native)
        .unwrap();

    let oracle = Engine::compile(&[SHIFT]).unwrap();
    let oarr = ArgVal::array_f(&init, 1);
    oracle
        .run_tiered("shift", &[oarr.clone(), oarr.clone()], ExecMode::Serial, ExecTier::TreeWalk)
        .unwrap();

    let (nh, oh) = (arr.handle().unwrap(), oarr.handle().unwrap());
    for k in 0..64 {
        assert_eq!(nh.get_bits(k), oh.get_bits(k), "aliased element {k} diverges from oracle");
    }
    if fortrans::jit::available() {
        assert!(native.native_deopt_count() >= 1, "alias guard failure must count as a deopt");
        assert_eq!(native.native_entry_count(), 0, "aliased entries must never commit");
    }

    // Distinct arrays: the same session now passes the guard and runs
    // natively (the compiled region was cached by the deopted call).
    let (a, b) = (ArgVal::array_f(&init, 1), ArgVal::array_f(&init, 1));
    native.run_tiered("shift", &[a.clone(), b], ExecMode::Serial, ExecTier::Native).unwrap();
    assert_eq!(a.handle().unwrap().get_f(0), 2.0 * 2.0 + 1.0);
    if fortrans::jit::available() {
        assert!(native.native_entry_count() > 0, "unaliased call should run natively");
    }
}

#[test]
fn run_profiled_surfaces_native_counters() {
    let engine = Engine::compile(&[SHIFT]).unwrap();
    let init: Vec<f64> = (1..=64).map(|k| k as f64).collect();

    // One deopting (aliased) call and one committing (clean) call...
    let arr = ArgVal::array_f(&init, 1);
    engine
        .run_tiered("shift", &[arr.clone(), arr.clone()], ExecMode::Serial, ExecTier::Native)
        .unwrap();
    let (a, b) = (ArgVal::array_f(&init, 1), ArgVal::array_f(&init, 1));
    engine.run_tiered("shift", &[a, b], ExecMode::Serial, ExecTier::Native).unwrap();

    // ...then a profiled run. Profiled runs themselves take the scalar
    // path (they want per-iteration loop events), but the profile must
    // surface the session-lifetime native entry/deopt counters.
    let (c, d) = (ArgVal::array_f(&init, 1), ArgVal::array_f(&init, 1));
    let (_out, profile) = engine
        .run_profiled("shift", &[c, d], ExecMode::Serial, ExecTier::Native)
        .unwrap();
    assert_eq!(profile.native_entries, engine.native_entry_count());
    assert_eq!(profile.native_deopts, engine.native_deopt_count());
    if fortrans::jit::available() {
        assert!(profile.native_entries >= 1, "profile lost the native entry count");
        assert!(profile.native_deopts >= 1, "profile lost the native deopt count");
    }
    // The round-trip encoding keeps them too.
    let back = fortrans::Profile::from_json(&profile.to_json()).unwrap();
    assert_eq!(back.native_entries, profile.native_entries);
    assert_eq!(back.native_deopts, profile.native_deopts);
}

/// Module globals mutated by vectorizable loops: a filled table plus a
/// reduction total, both touched natively.
const ACCUM: &str = r#"
MODULE state
  REAL(8), DIMENSION(1:128) :: tbl
  REAL(8) :: total
END MODULE state
MODULE m
CONTAINS
  SUBROUTINE accum(x)
    USE state
    REAL(8) :: x
    INTEGER :: i
    DO i = 1, 128
      tbl(i) = tbl(i) + x * (i * 1.0D0)
    END DO
    total = 0.0D0
    DO i = 1, 128
      total = total + tbl(i)
    END DO
  END SUBROUTINE accum
END MODULE m
"#;

fn global_bits(engine: &Engine) -> Vec<(String, Vec<u64>)> {
    let mut names = engine.global_names();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let bits = if let Some(v) = engine.global_scalar(&name) {
                match v {
                    Val::F(f) => vec![f.to_bits()],
                    Val::I(i) => vec![i as u64],
                    Val::B(b) => vec![b as u64],
                }
            } else if let Some(h) = engine.global_array(&name) {
                assert_eq!(h.ty, ScalarTy::F);
                (0..h.len()).map(|k| h.get_bits(k)).collect()
            } else {
                Vec::new()
            };
            (name, bits)
        })
        .collect()
}

#[test]
fn reset_globals_after_native_run_matches_fresh_session() {
    let run = |e: &Engine, x: f64| {
        e.run_tiered("accum", &[ArgVal::F(x)], ExecMode::Serial, ExecTier::Native).unwrap()
    };

    // Dirty a session with two native runs, then reset and run once.
    let mut recycled = Engine::compile(&[ACCUM]).unwrap();
    run(&recycled, 3.0);
    run(&recycled, 7.0);
    recycled.reset_globals();
    run(&recycled, 1.5);

    // A fresh session's single run must match bit-for-bit — and so
    // must the tree-walking oracle's view of the same program.
    let fresh = Engine::compile(&[ACCUM]).unwrap();
    run(&fresh, 1.5);
    assert_eq!(global_bits(&recycled), global_bits(&fresh), "reset session diverged from fresh");

    let oracle = Engine::compile(&[ACCUM]).unwrap();
    oracle.run_tiered("accum", &[ArgVal::F(1.5)], ExecMode::Serial, ExecTier::TreeWalk).unwrap();
    assert_eq!(global_bits(&fresh), global_bits(&oracle), "native globals diverged from oracle");

    if fortrans::jit::available() {
        assert!(recycled.native_entry_count() > 0, "loops never promoted");
    }
}

#[test]
fn eight_thread_native_stress_is_bit_identical() {
    const THREADS: usize = 8;
    const REPS: usize = 12;

    let service = EngineService::new(16);
    let artifact = service.compile(&[SPIN]).expect("spin compiles");

    // Scalar baseline: native off, plain VM, one fresh session.
    let baseline = {
        let session = service.session_for(&artifact);
        session.set_native_enabled(false);
        let (args, out) = spin_args(20_000);
        session.run_tiered("spin", &args, ExecMode::Serial, ExecTier::Vm).unwrap();
        out.handle().unwrap().get_bits(0)
    };

    // Eight sessions over the same artifact hammer the shared native
    // cache concurrently; every result must be bit-identical to the
    // scalar baseline, and no run may deopt or fall back.
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let service = &service;
            let artifact = artifact.clone();
            scope.spawn(move || {
                let session = service.session_for(&artifact);
                for rep in 0..REPS {
                    let (args, out) = spin_args(20_000);
                    let run = session
                        .run_tiered("spin", &args, ExecMode::Serial, ExecTier::Native)
                        .unwrap_or_else(|e| panic!("thread {t} rep {rep}: {e}"));
                    assert!(run.fallback.is_none(), "thread {t} rep {rep}: fell back");
                    assert_eq!(
                        out.handle().unwrap().get_bits(0),
                        baseline,
                        "thread {t} rep {rep}: native result diverged"
                    );
                }
                if fortrans::jit::available() {
                    assert!(
                        session.native_entry_count() >= REPS as u64,
                        "thread {t}: every rep should have entered natively"
                    );
                    assert_eq!(session.native_deopt_count(), 0, "thread {t}: unexpected deopt");
                }
            });
        }
    });
}

/// An `m`-trip outer loop around an 8-trip vectorizable inner loop, so
/// each run makes exactly `m` `VecLoop` entries; `psweep` splits the
/// outer loop over an OMP team. `b(i + k)` leaves `b(1:64)` once
/// `shift * m > 56`, on the first lane of the last entry.
const SWEEP: &str = r#"
MODULE state
  REAL(8), DIMENSION(1:64) :: b
  REAL(8), DIMENSION(1:8, 1:8) :: c
END MODULE state
MODULE m
CONTAINS
  SUBROUTINE sweep(m, shift)
    USE state
    INTEGER :: m, shift
    INTEGER :: i, j, k
    DO j = 1, m
      k = shift * j
      DO i = 1, 8
        c(i, j) = b(i + k) * 2.0D0
      END DO
    END DO
  END SUBROUTINE sweep
  SUBROUTINE psweep(m, shift)
    USE state
    INTEGER :: m, shift
    INTEGER :: i, j, k
    !$OMP PARALLEL DO DEFAULT(SHARED) PRIVATE(i, k)
    DO j = 1, m
      k = shift * j
      DO i = 1, 8
        c(i, j) = b(i + k) * 2.0D0
      END DO
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE psweep
END MODULE m
"#;

/// `(vector entries, native entries, native deopts)` of a session.
fn entry_counts(s: &fortrans::Session) -> (u64, u64, u64) {
    (s.vector_entry_count(), s.native_entry_count(), s.native_deopt_count())
}

/// Entry counters are accumulated per VM and published when it drops;
/// this pins the session totals to what the program structure implies
/// after clean runs in every mode (worker VMs included), after a run
/// that faults inside a vectorized loop, after a cancelled run, after a
/// contained worker panic, and for two sessions sharing one artifact on
/// separate threads.
#[test]
fn entry_counters_are_exact() {
    let jit = fortrans::jit::available();
    let artifact = fortrans::CompiledProgram::compile(&[SWEEP]).unwrap();
    let session = |native: bool| {
        let s = fortrans::Session::solo(Arc::clone(&artifact));
        s.set_native_enabled(native);
        s.set_native_eager(true);
        s
    };
    let args = |m: i64, shift: i64| vec![ArgVal::I(m), ArgVal::I(shift)];
    let modes =
        [ExecMode::Serial, ExecMode::Simulated { threads: 4 }, ExecMode::Parallel { threads: 4 }];

    // Clean runs: 8 entries each. Eager promotion sends every entry to
    // native code, except in Simulated mode, which stays on the vector
    // executor that charges the cost trace.
    for mode in modes {
        for native in [false, true] {
            let s = session(native);
            s.run_tiered("psweep", &args(8, 7), mode, ExecTier::Vm).unwrap();
            let on_native = native && jit && !matches!(mode, ExecMode::Simulated { .. });
            let want = if on_native { (0, 8, 0) } else { (8, 0, 0) };
            assert_eq!(entry_counts(&s), want, "{mode:?}, native {native}");
        }
    }

    // A fault inside the vectorized loop: entries 1-7 commit; the 8th
    // fails its guard (a deopt on the promoted region), then the scalar
    // loop reports the out-of-bounds read.
    for mode in [ExecMode::Serial, ExecMode::Simulated { threads: 4 }] {
        for native in [false, true] {
            let s = session(native);
            let err = s.run_tiered("sweep", &args(8, 8), mode, ExecTier::Vm).unwrap_err();
            assert!(err.to_string().contains("index 65 out of bounds 1:64"), "{err}");
            let on_native = native && jit && !matches!(mode, ExecMode::Simulated { .. });
            let want = if on_native { (0, 7, 1) } else { (7, 0, 0) };
            assert_eq!(entry_counts(&s), want, "fault under {mode:?}, native {native}");
        }
    }

    // A token fired before the run: the first entry commits, and its
    // first chunk's safepoint returns the cancellation.
    for native in [false, true] {
        let s = session(native);
        let token = CancelToken::new();
        token.cancel("pre-fired");
        s.set_cancel_token(Some(token));
        let err = s.run_tiered("sweep", &args(8, 7), ExecMode::Serial, ExecTier::Vm).unwrap_err();
        assert!(err.to_string().contains("cancelled: pre-fired"), "{err}");
        let want = if native && jit { (0, 1, 0) } else { (1, 0, 0) };
        assert_eq!(entry_counts(&s), want, "cancelled, native {native}");
    }

    // A worker panic on tid 1 is contained and the oracle reruns the
    // job; the other three workers' static chunks (2 entries each)
    // still publish their counts as their VMs drop.
    let s = session(false);
    s.debug_force_worker_panic(1);
    let out = s.run("psweep", &args(8, 7), ExecMode::Parallel { threads: 4 }).unwrap();
    assert!(out.fallback.is_some(), "the panic should have fallen back to the oracle");
    assert_eq!(entry_counts(&s), (6, 0, 0), "contained worker panic");

    // Two sessions over one artifact, racing on separate threads: each
    // sees exactly its own runs.
    let (s1, s2) = (session(true), session(false));
    let gate = std::sync::Barrier::new(2);
    std::thread::scope(|sc| {
        sc.spawn(|| {
            gate.wait();
            for _ in 0..3 {
                s1.run_tiered("sweep", &args(8, 7), ExecMode::Serial, ExecTier::Vm).unwrap();
            }
        });
        sc.spawn(|| {
            gate.wait();
            for _ in 0..2 {
                s2.run_tiered("sweep", &args(5, 7), ExecMode::Serial, ExecTier::Vm).unwrap();
            }
        });
    });
    assert_eq!(entry_counts(&s1), if jit { (0, 24, 0) } else { (24, 0, 0) }, "session 1");
    assert_eq!(entry_counts(&s2), (10, 0, 0), "session 2");
}
