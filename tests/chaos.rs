//! Chaos tests for the crash-safe sweep harness (ISSUE 6): the
//! persistent result store, the per-cell supervisor, and the
//! degradation policy must keep a sweep correct — bit-identical to an
//! undisturbed serial run — under injected panics, hangs, truncated
//! records, and a mid-run `SIGKILL`.
//!
//! The chaos hook and the `SEESAW_REPRO` environment variable are
//! process-global, so every test here serializes on one lock; cell
//! budgets are chosen unique per test so the process-wide memo cache
//! never serves one test's cells to another.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use seesaw_sim::runner::{fingerprint, set_cell_chaos_hook};
use seesaw_sim::store::digest;
use seesaw_sim::{
    CellChaos, L1DesignKind, Plan, RunConfig, SimError, Store, StoredOutcome, SupervisorConfig,
    SweepPolicy, System,
};

static TEST_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

/// Serializes tests that touch process-global state (the chaos hook,
/// `SEESAW_REPRO`). Survives a poisoned lock: a failed test must not
/// cascade into every later one.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// RAII reset of the chaos hook, so a panicking assertion cannot leak an
/// installed hook into the next test.
struct HookGuard;

impl Drop for HookGuard {
    fn drop(&mut self) {
        set_cell_chaos_hook(None);
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seesaw-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A checker+faults configuration that deterministically trips the
/// differential checker (same construction as the runner's own tests).
fn violating_config(budget: u64) -> RunConfig {
    let chaos = seesaw_sim::ChaosConfig {
        drop_tft_invalidation_on_splinter: true,
        ..Default::default()
    };
    RunConfig::quick("redis")
        .instructions(budget)
        .design(L1DesignKind::Seesaw)
        .with_checker()
        .with_faults(
            seesaw_sim::FaultConfig::all(0xfa17_5eed)
                .mean_interval(2_000)
                .chaos(chaos),
        )
}

// ---------------------------------------------------------------------------
// Store: resume fidelity and corruption tolerance.
// ---------------------------------------------------------------------------

#[test]
fn store_resume_is_bit_identical_to_direct_runs() {
    let _guard = lock();
    let dir = tmp_dir("resume");
    let configs = [
        RunConfig::quick("astar").instructions(41_000),
        RunConfig::quick("astar")
            .instructions(41_000)
            .design(L1DesignKind::Seesaw),
        RunConfig::quick("gups").instructions(41_000).memhog(30),
    ];

    // First sweep populates the store.
    let store = Arc::new(Store::open(&dir).unwrap());
    let mut plan = Plan::with_threads(2).with_store(store.clone());
    for (i, cfg) in configs.iter().enumerate() {
        plan.push(format!("cell{i}"), cfg.clone());
    }
    let report = plan.run_sweep(SweepPolicy::from_env());
    assert!(report.all_ok());
    assert_eq!(store.stats().writes, configs.len() as u64);

    // Sweep-level counters export through the telemetry surface.
    let n = seesaw_trace::MetricValue::U64(configs.len() as u64);
    let metrics = report.metrics();
    assert_eq!(metrics.get("store.writes"), Some(n));
    assert_eq!(metrics.get("supervisor.cells"), Some(n));
    assert_eq!(metrics.get("memo.misses"), Some(n));

    // A second handle on the same directory (what a relaunched process
    // would open) serves every config bit-identically to a direct,
    // memo-free simulation.
    let reopened = Store::open(&dir).unwrap();
    for cfg in &configs {
        let Some(StoredOutcome::Result(stored)) = reopened.get(&fingerprint(cfg)) else {
            panic!("expected a stored result for {:?}", cfg.workload);
        };
        let direct = System::build(cfg).unwrap().run().unwrap();
        assert_eq!(direct.totals.cycles, stored.totals.cycles);
        assert_eq!(direct.l1.misses, stored.l1.misses);
        assert_eq!(direct.runtime_ns.to_bits(), stored.runtime_ns.to_bits());
        assert_eq!(
            direct.energy.total_nj().to_bits(),
            stored.energy.total_nj().to_bits()
        );
        assert_eq!(direct.walk_latency, stored.walk_latency);
        assert_eq!(direct.metrics.len(), stored.metrics.len());
    }
    assert_eq!(reopened.stats().hits, configs.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_store_records_are_skipped_and_resimulated() {
    let _guard = lock();
    let dir = tmp_dir("corrupt");
    let cfg = RunConfig::quick("mcf").instructions(42_000);
    let store = Arc::new(Store::open(&dir).unwrap());

    let mut plan = Plan::with_threads(1).with_store(store.clone());
    plan.push("only", cfg.clone());
    assert!(plan.run_sweep(SweepPolicy::from_env()).all_ok());

    // Truncate the record mid-payload: a fresh handle must treat it as
    // absent (counted corrupt), never panic, and a rewrite repairs it.
    // The store holds exactly one result record: this cell's.
    let rec = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("r-"))
        })
        .expect("the sweep committed its cell");
    let bytes = std::fs::read(&rec).unwrap();
    std::fs::write(&rec, &bytes[..bytes.len() / 3]).unwrap();

    let reopened = Store::open(&dir).unwrap();
    assert!(reopened.get(&fingerprint(&cfg)).is_none());
    assert_eq!(reopened.stats().corrupt, 1);
    assert_eq!(reopened.verify(), (0, 1));

    let direct = System::build(&cfg).unwrap().run().unwrap();
    reopened.put_result(&fingerprint(&cfg), &direct);
    assert_eq!(reopened.verify(), (1, 0));
    let Some(StoredOutcome::Result(back)) = reopened.get(&fingerprint(&cfg)) else {
        panic!("rewritten record must load");
    };
    assert_eq!(direct.totals.cycles, back.totals.cycles);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Supervisor: panic isolation, watchdog, retries, backoff determinism.
// ---------------------------------------------------------------------------

#[test]
fn panicking_cell_is_isolated_with_label_and_digest() {
    let _guard = lock();
    let _reset = HookGuard;
    set_cell_chaos_hook(Some(Arc::new(|ctx| {
        if ctx.label == "boom" {
            CellChaos::Panic
        } else {
            CellChaos::Continue
        }
    })));

    let bad = RunConfig::quick("astar").instructions(43_000);
    let good = RunConfig::quick("tunk").instructions(43_000);
    let mut plan = Plan::with_threads(2).without_store();
    plan.push("boom", bad.clone());
    plan.push("fine", good);
    let policy =
        SweepPolicy::default().supervisor(SupervisorConfig::default().retries(1));
    let report = plan.run_sweep(policy);

    let Err(SimError::Panic {
        cell,
        fingerprint: fp,
        message,
    }) = &report.outcomes[0]
    else {
        panic!("expected a Panic outcome, got {:?}", report.outcomes[0]);
    };
    assert_eq!(cell, "boom");
    assert_eq!(*fp, digest(&fingerprint(&bad)));
    assert!(message.contains("injected cell panic"));
    assert!(report.outcomes[1].is_ok(), "sibling cell must survive");
    // First attempt + one retry, both panicking.
    assert_eq!(report.supervisor.panics_caught, 2);
    assert_eq!(report.supervisor.retries, 1);
    assert_eq!(report.supervisor.permanent_failures, 1);
}

#[test]
fn transient_panic_succeeds_on_retry() {
    let _guard = lock();
    let _reset = HookGuard;
    set_cell_chaos_hook(Some(Arc::new(|ctx| {
        if ctx.label == "flaky" && ctx.attempt == 0 {
            CellChaos::Panic
        } else {
            CellChaos::Continue
        }
    })));

    let cfg = RunConfig::quick("astar").instructions(44_000);
    let mut plan = Plan::with_threads(1).without_store();
    plan.push("flaky", cfg.clone());
    let policy = SweepPolicy::default().supervisor(
        SupervisorConfig::default()
            .retries(2)
            .backoff(Duration::from_millis(1), Duration::from_millis(8)),
    );
    let report = plan.run_sweep(policy);
    let result = report.outcomes[0].as_ref().expect("retry must succeed");
    let direct = System::build(&cfg).unwrap().run().unwrap();
    assert_eq!(direct.totals.cycles, result.totals.cycles);
    assert_eq!(report.supervisor.panics_caught, 1);
    assert_eq!(report.supervisor.retries, 1);
    assert_eq!(report.supervisor.permanent_failures, 0);
}

#[test]
fn hanging_cell_trips_the_watchdog() {
    let _guard = lock();
    let _reset = HookGuard;
    set_cell_chaos_hook(Some(Arc::new(|ctx| {
        if ctx.label == "wedge" {
            CellChaos::HangMs(1_500)
        } else {
            CellChaos::Continue
        }
    })));

    let cfg = RunConfig::quick("tunk").instructions(45_000);
    let mut plan = Plan::with_threads(1).without_store();
    plan.push("wedge", cfg);
    let policy = SweepPolicy::default().supervisor(
        SupervisorConfig::default()
            .timeout(Duration::from_millis(100))
            .retries(0),
    );
    let report = plan.run_sweep(policy);
    let Err(SimError::Timeout { cell, timeout_ms }) = &report.outcomes[0] else {
        panic!("expected a Timeout outcome, got {:?}", report.outcomes[0]);
    };
    assert_eq!(cell, "wedge");
    assert_eq!(*timeout_ms, 100);
    assert_eq!(report.supervisor.timeouts, 1);
}

#[test]
fn timeout_during_store_write_back_is_contained() {
    let _guard = lock();
    let _reset = HookGuard;
    // The cell simulates to completion, then wedges before the store
    // commit finishes: the watchdog must still fire, and the eventual
    // late write from the leaked thread is harmless (atomic rename of a
    // deterministic result).
    set_cell_chaos_hook(Some(Arc::new(|ctx| {
        if ctx.label == "slow-commit" {
            CellChaos::HangAfterRunMs(1_500)
        } else {
            CellChaos::Continue
        }
    })));

    let dir = tmp_dir("writeback");
    let store = Arc::new(Store::open(&dir).unwrap());
    let cfg = RunConfig::quick("astar").instructions(46_000);
    let mut plan = Plan::with_threads(1).with_store(store.clone());
    plan.push("slow-commit", cfg.clone());
    let policy = SweepPolicy::default().supervisor(
        SupervisorConfig::default()
            .timeout(Duration::from_millis(200))
            .retries(0),
    );
    let report = plan.run_sweep(policy);
    assert!(matches!(report.outcomes[0], Err(SimError::Timeout { .. })));

    // A later chaos-free sweep of the same config (fresh store handle,
    // fresh or late-written record — both valid) completes and matches a
    // direct simulation bit for bit. The memo must not have cached the
    // timeout: the cell really re-executes.
    set_cell_chaos_hook(None);
    let mut plan = Plan::with_threads(1).with_store(store);
    plan.push("slow-commit", cfg.clone());
    let report = plan.run_sweep(SweepPolicy::from_env());
    let result = report.outcomes[0].as_ref().expect("no chaos, must pass");
    let direct = System::build(&cfg).unwrap().run().unwrap();
    assert_eq!(direct.totals.cycles, result.totals.cycles);
    assert_eq!(direct.runtime_ns.to_bits(), result.runtime_ns.to_bits());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cell_that_panics_on_its_retry_is_permanent() {
    let _guard = lock();
    let _reset = HookGuard;
    // Attempt 0 wedges (timeout, retryable); the retry panics. With one
    // retry granted the panic is final — the supervisor must not loop.
    set_cell_chaos_hook(Some(Arc::new(|ctx| {
        if ctx.label != "worse-on-retry" {
            CellChaos::Continue
        } else if ctx.attempt == 0 {
            CellChaos::HangMs(1_500)
        } else {
            CellChaos::Panic
        }
    })));

    let cfg = RunConfig::quick("gups").instructions(47_000);
    let mut plan = Plan::with_threads(1).without_store();
    plan.push("worse-on-retry", cfg);
    let policy = SweepPolicy::default().supervisor(
        SupervisorConfig::default()
            .timeout(Duration::from_millis(100))
            .retries(1)
            .backoff(Duration::from_millis(1), Duration::from_millis(4)),
    );
    let report = plan.run_sweep(policy);
    assert!(matches!(report.outcomes[0], Err(SimError::Panic { .. })));
    assert_eq!(report.supervisor.timeouts, 1);
    assert_eq!(report.supervisor.panics_caught, 1);
    assert_eq!(report.supervisor.retries, 1);
    assert_eq!(report.supervisor.permanent_failures, 1);
}

#[test]
fn backoff_schedule_is_deterministic_and_capped() {
    let sup = SupervisorConfig::default();
    let cell = 0x0123_4567_89ab_cdefu64;
    for attempt in 0..6 {
        assert_eq!(
            sup.backoff_delay(cell, attempt),
            sup.backoff_delay(cell, attempt),
            "backoff must be a pure function of (seed, digest, attempt)"
        );
    }
    // Exponential growth up to the cap, jitter bounded by 50% of base.
    for attempt in 0..32 {
        let d = sup.backoff_delay(cell, attempt);
        assert!(d <= sup.backoff_cap + sup.backoff_cap / 2);
    }
    // Different cells see different jitter somewhere in the schedule.
    let other = 0xfeed_face_cafe_beefu64;
    assert!(
        (0..6).any(|a| sup.backoff_delay(cell, a) != sup.backoff_delay(other, a)),
        "jitter must depend on the cell digest"
    );
}

// ---------------------------------------------------------------------------
// Degradation policy.
// ---------------------------------------------------------------------------

#[test]
fn zero_cell_plan_with_degradation_policy() {
    let _guard = lock();
    let report = Plan::with_threads(1)
        .without_store()
        .run_sweep(SweepPolicy::default().max_failures(0));
    assert!(report.all_ok());
    assert!(report.outcomes.is_empty());
    assert_eq!(report.skipped().count(), 0);
    assert_eq!(report.supervisor.cells, 0);
}

#[test]
fn failure_budget_skips_remaining_cells_but_survivors_complete() {
    let _guard = lock();
    // One thread, so plan order is execution order and the skip set is
    // deterministic: the violating cell fails first, the good cell after
    // it is skipped once the budget (0 tolerated failures) is exceeded.
    let bad = violating_config(150_000);
    let good = RunConfig::quick("astar").instructions(48_000);
    let mut plan = Plan::with_threads(1).without_store();
    plan.push("violates", bad);
    plan.push("never-started", good.clone());
    let report = plan.run_sweep(SweepPolicy::default().max_failures(0));
    assert!(matches!(report.outcomes[0], Err(SimError::Check(_))));
    assert!(matches!(
        report.outcomes[1],
        Err(SimError::Skipped { .. })
    ));
    assert_eq!(report.failed.len(), 2);
    assert_eq!(report.skipped().count(), 1);
    assert_eq!(report.supervisor.cells_skipped, 1);
    let summary = report.summary();
    assert!(summary.contains("violates"));
    assert!(summary.contains("never-started"));

    // The skip was not memoized: the same cell runs fine in a sweep
    // with headroom.
    let mut plan = Plan::with_threads(1).without_store();
    plan.push("runs-now", good);
    assert!(plan.run_sweep(SweepPolicy::default().max_failures(5)).all_ok());
}

// ---------------------------------------------------------------------------
// Failure memoization and repro autosave degradation.
// ---------------------------------------------------------------------------

#[test]
fn failure_memo_and_store_record_the_bundle_path() {
    let _guard = lock();
    let dir = tmp_dir("repro-autosave");
    std::env::set_var("SEESAW_REPRO", &dir);
    let store_dir = tmp_dir("failure-store");
    let store = Arc::new(Store::open(&store_dir).unwrap());

    let bad = violating_config(160_000);
    let mut plan = Plan::with_threads(1).with_store(store.clone());
    plan.push("bad", bad.clone());
    let report = plan.run_sweep(SweepPolicy::from_env());
    std::env::remove_var("SEESAW_REPRO");

    let f = &report.failed[0];
    let bundle_path = f.bundle_path.clone().expect("autosave must report a path");
    assert!(bundle_path.exists(), "autosaved bundle must be on disk");

    // Memoized recurrence keeps the pointer (satellite: a resumed sweep
    // must not lose the repro path).
    let mut plan = Plan::with_threads(1).with_store(store.clone());
    plan.push("bad again", bad.clone());
    let again = plan.run_sweep(SweepPolicy::from_env());
    assert_eq!(again.failed[0].bundle_path.as_ref(), Some(&bundle_path));

    // The persistent failure marker keeps it too: a fresh handle (a
    // relaunched process) rehydrates the violation with the path and the
    // bundle itself.
    let reopened = Store::open(&store_dir).unwrap();
    let Some(StoredOutcome::Failure(SimError::Check(v))) = reopened.get(&fingerprint(&bad))
    else {
        panic!("expected a persisted failure marker");
    };
    assert_eq!(v.autosaved.as_ref(), Some(&bundle_path));
    assert!(v.repro.is_some(), "bundle must rehydrate from the autosave");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn unwritable_repro_dir_degrades_gracefully() {
    let _guard = lock();
    // Point SEESAW_REPRO at a *file*: create_dir_all must fail, the run
    // must still report the violation with its in-memory bundle, and the
    // autosaved path must be absent.
    let blocker = std::env::temp_dir().join(format!(
        "seesaw-chaos-not-a-dir-{}",
        std::process::id()
    ));
    std::fs::write(&blocker, b"occupied").unwrap();
    std::env::set_var("SEESAW_REPRO", &blocker);

    let bad = violating_config(170_000);
    let mut plan = Plan::with_threads(1).without_store();
    plan.push("bad", bad);
    let report = plan.run_sweep(SweepPolicy::from_env());
    std::env::remove_var("SEESAW_REPRO");

    let Err(SimError::Check(v)) = &report.outcomes[0] else {
        panic!("expected the checker violation");
    };
    assert!(v.repro.is_some(), "in-memory bundle must survive");
    assert!(v.autosaved.is_none(), "no path when the dir is unwritable");
    assert!(report.failed[0].bundle_path.is_none());
    let _ = std::fs::remove_file(&blocker);
}

// ---------------------------------------------------------------------------
// SIGKILL + resume: the tentpole acceptance test.
// ---------------------------------------------------------------------------

/// The grid the kill/resume pair sweeps. Budgets are unique to this test
/// so neither the parent's memo nor another test's store traffic can
/// mask a resume bug.
fn kill_resume_grid() -> Vec<(String, RunConfig)> {
    let b = 130_000;
    vec![
        ("astar-base".into(), RunConfig::quick("astar").instructions(b)),
        (
            "astar-seesaw".into(),
            RunConfig::quick("astar").instructions(b).design(L1DesignKind::Seesaw),
        ),
        ("gups-base".into(), RunConfig::quick("gups").instructions(b)),
        (
            "gups-frag".into(),
            RunConfig::quick("gups").instructions(b).memhog(40),
        ),
        ("mcf-base".into(), RunConfig::quick("mcf").instructions(b)),
        (
            "redis-seesaw".into(),
            RunConfig::quick("redis").instructions(b).design(L1DesignKind::Seesaw),
        ),
    ]
}

/// Child half of the kill/resume test: not a test of its own — it only
/// acts when the parent launches it with `SEESAW_CHAOS_CHILD` pointing
/// at the store directory, sweeping [`kill_resume_grid`] into that
/// store until killed.
#[test]
fn child_sweep() {
    let Ok(dir) = std::env::var("SEESAW_CHAOS_CHILD") else {
        return;
    };
    let store = Arc::new(Store::open(&dir).expect("child opens the shared store"));
    let mut plan = Plan::with_threads(1).with_store(store);
    for (label, cfg) in kill_resume_grid() {
        plan.push(label, cfg);
    }
    let report = plan.run_sweep(SweepPolicy::from_env());
    assert!(report.all_ok());
}

#[test]
fn sigkill_mid_sweep_then_resume_is_bit_identical() {
    let _guard = lock();
    let dir = tmp_dir("sigkill");
    std::fs::create_dir_all(&dir).unwrap();

    // Launch this same test binary as the child sweep and let it commit
    // at least two cells.
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(&exe)
        .args(["child_sweep", "--exact", "--nocapture"])
        .env("SEESAW_CHAOS_CHILD", &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child sweep");
    let committed = |dir: &std::path::Path| {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| {
                        let name = e.file_name();
                        let name = name.to_string_lossy();
                        name.starts_with("r-") && name.ends_with(".rec")
                    })
                    .count()
            })
            .unwrap_or(0)
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while committed(&dir) < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "child never committed two cells"
        );
        if let Ok(Some(status)) = child.try_wait() {
            panic!("child finished before it could be killed: {status}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("SIGKILL the child mid-sweep");
    let _ = child.wait();

    // Damage one committed record: resume must also shrug off a record
    // the crash (or the disk) corrupted.
    let first_record = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("r-"))
        })
        .min()
        .expect("at least one committed record");
    let bytes = std::fs::read(&first_record).unwrap();
    std::fs::write(&first_record, &bytes[..bytes.len() / 2]).unwrap();

    // Resume in this process against the same directory. Grid budgets
    // are unique to this test, so the parent's memo has no entries for
    // these configs: every cell comes from the store or a fresh run.
    let store = Arc::new(Store::open(&dir).unwrap());
    let mut plan = Plan::with_threads(2).with_store(store.clone());
    for (label, cfg) in kill_resume_grid() {
        plan.push(label, cfg);
    }
    let report = plan.run_sweep(SweepPolicy::from_env());
    assert!(report.all_ok(), "resumed sweep must complete: {}", report.summary());
    assert!(
        store.stats().hits >= 1,
        "resume must reuse at least one of the child's committed cells"
    );

    // The acceptance bar: resumed outcomes are bit-identical to an
    // undisturbed serial run of the same grid.
    for ((label, cfg), outcome) in kill_resume_grid().iter().zip(&report.outcomes) {
        let resumed = outcome.as_ref().expect("cell completed");
        let serial = System::build(cfg).unwrap().run().unwrap();
        assert_eq!(serial.totals.cycles, resumed.totals.cycles, "{label}: cycles");
        assert_eq!(serial.l1.misses, resumed.l1.misses, "{label}: misses");
        assert_eq!(
            serial.runtime_ns.to_bits(),
            resumed.runtime_ns.to_bits(),
            "{label}: runtime bits"
        );
        assert_eq!(
            serial.energy.total_nj().to_bits(),
            resumed.energy.total_nj().to_bits(),
            "{label}: energy bits"
        );
        assert_eq!(serial.walk_latency, resumed.walk_latency, "{label}: histogram");
    }

    // And the store itself audits clean after the repair.
    let (valid, corrupt) = store.verify();
    assert_eq!(corrupt, 0, "every record valid after resume");
    assert_eq!(valid, kill_resume_grid().len());
    let _ = std::fs::remove_dir_all(&dir);
}
