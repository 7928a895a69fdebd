//! Execution limits ([`fortrans::RunLimits`]) and runtime fault
//! context, on both execution tiers.
//!
//! The two tiers meter differently — the tree-walker ticks once per
//! statement, the VM once per instruction — so each tier is tested
//! against its own budget rather than through the differential harness.

use std::time::Duration;

use fortrans::{ArgVal, CancelToken, Engine, ExecMode, ExecTier, RunError, RunLimits, Val};

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

fn spin_engine(limits: RunLimits) -> Engine {
    let mut engine = Engine::compile(&[SPIN]).unwrap();
    engine.set_limits(limits);
    engine
}

fn run_spin(engine: &Engine, n: i64, tier: ExecTier) -> Result<f64, String> {
    let out = ArgVal::array_f(&[0.0], 1);
    engine
        .run_tiered("spin", &[ArgVal::I(n), out.clone()], ExecMode::Serial, tier)
        .map(|_| out.handle().unwrap().get_f(0))
        .map_err(|e| e.to_string())
}

#[test]
fn step_budget_trips_on_both_tiers() {
    let engine = spin_engine(RunLimits { max_steps: Some(1_000), ..RunLimits::default() });
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        let err = run_spin(&engine, 1_000_000, tier).expect_err("budget trips");
        assert!(err.contains("step budget of 1000 exhausted"), "{tier:?}: {err}");
    }
}

#[test]
fn generous_step_budget_does_not_trip() {
    let engine = spin_engine(RunLimits { max_steps: Some(10_000_000), ..RunLimits::default() });
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        let got = run_spin(&engine, 1_000, tier).expect("run completes");
        let want: f64 = (1..=1000).map(|i| (i as f64).sqrt()).sum();
        assert!((got - want).abs() < 1e-9, "{tier:?}: {got} vs {want}");
    }
}

#[test]
fn deadline_trips_on_both_tiers() {
    let engine =
        spin_engine(RunLimits { deadline: Some(Duration::ZERO), ..RunLimits::default() });
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        let err = run_spin(&engine, 10_000_000, tier).expect_err("deadline trips");
        assert!(err.contains("deadline exceeded"), "{tier:?}: {err}");
    }
}

#[test]
fn generous_deadline_does_not_trip() {
    let engine =
        spin_engine(RunLimits { deadline: Some(Duration::from_secs(120)), ..RunLimits::default() });
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        run_spin(&engine, 10_000, tier).expect("run completes");
    }
}

const PINGPONG: &str = r#"
MODULE m
CONTAINS
  INTEGER FUNCTION ping(n)
    INTEGER :: n
    IF (n <= 0) THEN
      ping = 0
    ELSE
      ping = pong(n - 1) + 1
    END IF
  END FUNCTION ping
  INTEGER FUNCTION pong(n)
    INTEGER :: n
    IF (n <= 0) THEN
      pong = 0
    ELSE
      pong = ping(n - 1) + 1
    END IF
  END FUNCTION pong
END MODULE m
"#;

#[test]
fn call_depth_limit_is_configurable() {
    let mut engine = Engine::compile(&[PINGPONG]).unwrap();
    engine.set_limits(RunLimits { max_call_depth: 16, ..RunLimits::default() });
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        // Ten nested frames fit under a depth cap of 16 ...
        let ok = engine
            .run_tiered("ping", &[ArgVal::I(10)], ExecMode::Serial, tier)
            .unwrap_or_else(|e| panic!("{tier:?}: {e}"));
        assert_eq!(ok.result, Some(Val::I(10)));
        // ... a hundred do not.
        let err = engine
            .run_tiered("ping", &[ArgVal::I(100)], ExecMode::Serial, tier)
            .expect_err("depth cap trips");
        assert!(err.to_string().contains("call depth exceeded"), "{tier:?}: {err}");
    }
}

#[test]
fn limit_defaults_are_off_except_call_depth() {
    let limits = RunLimits::default();
    assert_eq!(limits.max_steps, None);
    assert_eq!(limits.deadline, None);
    assert!(limits.max_call_depth > 0);
    let engine = Engine::compile(&[SPIN]).unwrap();
    assert_eq!(engine.limits().max_steps, None);
}

// ---------------------------------------------------------------------
// Fault context: runtime errors carry unit and line, on both tiers.
// ---------------------------------------------------------------------

#[test]
fn runtime_faults_carry_unit_and_line_context() {
    let src = r#"
MODULE m
CONTAINS
  INTEGER FUNCTION shatter(n)
    INTEGER :: n
    shatter = 10 / n
  END FUNCTION shatter
END MODULE m
"#;
    let engine = Engine::compile(&[src]).unwrap();
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        let err = engine
            .run_tiered("shatter", &[ArgVal::I(0)], ExecMode::Serial, tier)
            .expect_err("division by zero");
        let s = err.to_string();
        assert!(s.contains("in shatter at line "), "{tier:?} context missing: {s}");
    }
}

#[test]
fn limit_errors_carry_context_too() {
    let engine = spin_engine(RunLimits { max_steps: Some(100), ..RunLimits::default() });
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        let err = run_spin(&engine, 1_000_000, tier).expect_err("budget trips");
        assert!(err.contains("in spin at line "), "{tier:?} context missing: {err}");
    }
}

// ---------------------------------------------------------------------
// Simulated mode: limits tripping inside vector loops.
// ---------------------------------------------------------------------

const SWEEP: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE sweep(n, reps, x, y)
    INTEGER :: n, reps, r, i
    REAL(8) :: t
    REAL(8), DIMENSION(1:4096) :: x, y
    DO r = 1, reps
      DO i = 1, n
        t = x(i) * 0.5D0
        y(i) = y(i) + t * r
      END DO
    END DO
  END SUBROUTINE sweep
END MODULE m
"#;

const SIM: ExecMode = ExecMode::Simulated { threads: 2 };

fn sweep_args(n: i64, reps: i64) -> Vec<ArgVal> {
    let x: Vec<f64> = (0..4096).map(|k| 1.0 + k as f64 * 1e-3).collect();
    vec![ArgVal::I(n), ArgVal::I(reps), ArgVal::array_f(&x, 1), ArgVal::array_f(&[0.0; 4096], 1)]
}

fn sweep_engine(vector: bool) -> Engine {
    let engine = Engine::compile(&[SWEEP]).unwrap();
    engine.set_vector_enabled(vector);
    engine
}

/// Outcome of one budgeted Simulated run: the full error string (with
/// unit and line) or the cost trace.
fn budgeted(engine: &mut Engine, max_steps: u64, n: i64, reps: i64) -> Result<String, String> {
    engine.set_limits(RunLimits { max_steps: Some(max_steps), ..RunLimits::default() });
    engine
        .run("sweep", &sweep_args(n, reps), SIM)
        .map(|out| format!("{:?}", out.trace))
        .map_err(|e| e.to_string())
}

#[test]
fn simulated_step_budget_trips_identically_with_vector_loops() {
    // Every budget from "trips at once" to "completes": the vector tier
    // must fail the same way at the same instruction, or complete with
    // the same trace, as the scalar loop. The smallest completing budget
    // is the run's step count, so it must agree too.
    let (n, reps) = (9, 5);
    let mut on = sweep_engine(true);
    let mut off = sweep_engine(false);
    let mut steps = [None, None];
    for budget in 1..4000u64 {
        let a = budgeted(&mut on, budget, n, reps);
        let b = budgeted(&mut off, budget, n, reps);
        assert_eq!(a, b, "budget {budget}: vector tier diverges from the scalar loop");
        if let Err(e) = &a {
            assert!(e.contains("step budget of"), "budget {budget}: {e}");
        }
        for (k, r) in [&a, &b].into_iter().enumerate() {
            if r.is_ok() && steps[k].is_none() {
                steps[k] = Some(budget);
            }
        }
        if steps.iter().all(Option::is_some) {
            break;
        }
    }
    assert!(steps[0].is_some(), "no budget below 4000 completes the run");
    assert_eq!(steps[0], steps[1], "vector and scalar runs retire different step counts");
    assert!(on.vector_entry_count() > 0, "the sweep never entered the vector path");
    assert_eq!(off.vector_entry_count(), 0);
}

#[test]
fn simulated_deadline_trips_inside_a_vector_loop() {
    // A zero deadline trips at the first safepoint: a vector chunk with
    // the tier on, a dispatch poll with it off. The executors poll at
    // different cadences, so only the fault itself is compared.
    let mut errs = Vec::new();
    for vector in [true, false] {
        let mut engine = sweep_engine(vector);
        engine.set_limits(RunLimits { deadline: Some(Duration::ZERO), ..RunLimits::default() });
        let err = engine.run("sweep", &sweep_args(4096, 50), SIM).expect_err("deadline trips");
        assert_eq!(engine.vector_entry_count() > 0, vector, "vector={vector}: tier entry");
        errs.push(err.root().to_string());
    }
    assert_eq!(errs[0], "limit exceeded: deadline exceeded");
    assert_eq!(errs[0], errs[1]);
}

#[test]
fn simulated_cancel_token_trips_inside_a_vector_loop() {
    let mut reasons = Vec::new();
    for vector in [true, false] {
        let engine = sweep_engine(vector);
        let token = CancelToken::new();
        token.cancel("operator stop");
        engine.set_cancel_token(Some(token));
        let err = engine.run("sweep", &sweep_args(4096, 50), SIM).expect_err("token trips");
        assert_eq!(engine.vector_entry_count() > 0, vector, "vector={vector}: tier entry");
        match err.root() {
            RunError::Cancelled { reason, .. } => reasons.push(reason.clone()),
            other => panic!("vector={vector}: expected a cancellation, got {other}"),
        }
    }
    assert_eq!(reasons, ["operator stop", "operator stop"]);
}
