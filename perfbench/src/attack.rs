//! `attack_grid`: the quick-profile Fig. 4 grid (8 panels × 3 methods)
//! through `ExperimentRunner` at one worker per CPU, with the runner's
//! default memoized worker sessions.
//!
//! The grid is wrapped in an [`Experiment`] that delegates to
//! `Fig4Experiment`. Untraced, the wrapper only notes each cell's wall
//! time and record rows. Traced, it runs the cell itself through the
//! same public calls `Fig4Experiment::run_cell` makes — sampling,
//! session, attack, AScore curve — timing each, and must produce the
//! same record rows (checked through the fig4.csv bytes).

use crate::report::{capture_stdout, phase, Report};
use crate::stats::median;
use crate::substrate::nproc;
use ba_bench::artifact::{dec_curve, enc_curve};
use ba_bench::experiments::fig4::{Fig4Experiment, Fig4Method};
use ba_bench::runner::{
    derive_seed, CellCtx, DatasetSpec, Experiment, ExperimentRunner, SubstratePool,
};
use ba_bench::{sample_from_pool, target_pool, BenchError, ExpOptions};
use ba_core::{
    AttackConfig, AttackError, AttackOutcome, AttackSession, BinarizedAttack, Candidates,
    ContinuousA, GradMaxSearch, MemoStats, StructuralAttack,
};
use ba_graph::{CsrGraph, GraphView, NodeId};
use ba_oddball::{OddBall, OddBallModel};
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Where runs write their grid artifacts and the per-seed reference
/// CSVs later runs compare against, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

/// The full grid: `Fig4Experiment::standard` at the quick profile with
/// one target sample per panel — 24 cells, the smallest grid the
/// standard panels allow. It takes about 30 s on 2 CPUs, longer than a
/// typical run length, so the run length cannot trim it further.
pub fn full() -> Fig4Experiment {
    Fig4Experiment::standard(&ExpOptions {
        samples: 1,
        ..ExpOptions::default()
    })
}

/// Seconds a full run spends repeating its set-up. One serial build of
/// the grid's substrates takes a few milliseconds, so the median is
/// taken over a few hundred builds.
pub const SETUP_S: f64 = 2.0;

/// Set-ups timed at least, however short the budget.
const MIN_SETUPS: usize = 3;

/// Runs the seconds-scale grid (two tiny panels, 12 cells) a traced run
/// of another workload uses to probe these layers. The fig4 table it
/// prints becomes report lines, so it is shown with the probe's prefix.
pub fn run_probe(seed: u64) -> Result<Report, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(format!("probe-stdout-{}.txt", std::process::id()));
    let (report, printed) = capture_stdout(&path, || {
        run(&Fig4Experiment::tiny("perfbench-probe"), 0.0, seed, true)
    })?;
    let mut report = report?;
    let own = std::mem::take(&mut report.lines);
    report.lines = printed.lines().map(str::to_string).chain(own).collect();
    Ok(report)
}

fn method_of(exp: &Fig4Experiment, cell: usize) -> (usize, Fig4Method, usize) {
    let sample = cell % exp.samples;
    let rest = cell / exp.samples;
    (
        rest / exp.methods.len(),
        exp.methods[rest % exp.methods.len()],
        sample,
    )
}

/// Dataset index of a panel: its position in `Experiment::datasets`,
/// which is also its index in a pool built from that list.
fn panel_ds(exp: &Fig4Experiment, panel: usize) -> usize {
    exp.datasets()
        .iter()
        .position(|s| *s == exp.panels[panel].spec)
        .unwrap_or(0)
}

/// The targets a fig4 cell samples: the same derivation as
/// `CellCtx::seed_for("targets", [panel, sample])`.
fn targets_for(
    exp: &Fig4Experiment,
    model: &OddBallModel,
    seed: u64,
    panel: usize,
    sample: usize,
) -> Vec<NodeId> {
    let pool = target_pool(model, exp.pool);
    let tseed = derive_seed(
        &format!("{}/targets", exp.name),
        &[seed, panel as u64, sample as u64],
    );
    sample_from_pool(&pool, exp.panels[panel].num_targets, tseed)
}

fn budget_for(exp: &Fig4Experiment, panel: usize, edges: usize) -> usize {
    ((edges as f64 * exp.panels[panel].budget_frac).round() as usize).max(4)
}

/// Runs one method the way the fig4 grid configures it.
fn attack(
    exp: &Fig4Experiment,
    method: Fig4Method,
    session: &mut AttackSession<'_>,
    budget: usize,
    threads: usize,
) -> Result<AttackOutcome, AttackError> {
    let cfg = AttackConfig::default();
    match method {
        Fig4Method::Binarized => BinarizedAttack::new(cfg)
            .with_iterations(exp.bin_iters)
            .with_lambdas(exp.bin_lambdas.clone())
            .attack_with_session(session, budget),
        Fig4Method::GradMax => GradMaxSearch::new(cfg).attack_with_session(session, budget),
        Fig4Method::Continuous => ContinuousA::new(cfg)
            .with_iterations(exp.cont_iters)
            .with_threads(threads)
            .attack_with_session(session, budget),
    }
}

/// What the wrapper saw of one cell.
#[derive(Debug, Default)]
struct CellRecord {
    cell: usize,
    method: Option<Fig4Method>,
    rows: Vec<String>,
    /// Wall time of the whole cell.
    cell_s: f64,
    /// Traced only: `attack_with_session` seconds.
    attack_s: f64,
    /// Traced only: `ascore_curve_with_clean` seconds.
    curve_s: f64,
    /// Traced only: PGD iterations a binarized cell ran.
    iterations: usize,
    /// Traced only: `(hits, misses)` this cell added per memo tier.
    memo: Option<[(u64, u64); 5]>,
}

/// The fig4 grid with per-cell observation.
struct Observed<'a> {
    exp: &'a Fig4Experiment,
    trace: bool,
    cells: Mutex<Vec<CellRecord>>,
    /// When the first cell started: the runner's own set-up ends there.
    first_cell: OnceLock<Instant>,
}

impl Observed<'_> {
    /// The fig4 cell body, timed call by call. Must return exactly the
    /// rows `Fig4Experiment::run_cell` returns.
    fn traced_cell(
        &self,
        cell: usize,
        ctx: &mut CellCtx<'_, '_>,
        rec: &mut CellRecord,
    ) -> Vec<String> {
        let exp = self.exp;
        let (p, method, s) = method_of(exp, cell);
        let ds = panel_ds(exp, p);
        let g = ctx.graph(ds);
        let edges = g.num_edges();
        let budget = budget_for(exp, p, edges);
        let pool = target_pool(ctx.model(ds), exp.pool);
        let targets = sample_from_pool(
            &pool,
            exp.panels[p].num_targets,
            ctx.seed_for("targets", &[p as u64, s as u64]),
        );
        let mut rows = vec![format!(
            "meta,nodes={},edges={edges},budget={budget}",
            g.num_nodes()
        )];
        let threads = ctx.inner_threads();
        let outcome = ctx.session(ds, &targets).and_then(|session| {
            let before = session.memo_stats();
            let t0 = Instant::now();
            let out = attack(exp, method, session, budget, threads);
            rec.attack_s = t0.elapsed().as_secs_f64();
            rec.memo = before.zip(session.memo_stats()).map(|(b, a)| {
                let (b, a) = (memo_counts(&b), memo_counts(&a));
                std::array::from_fn(|i| (a[i].0 - b[i].0, a[i].1 - b[i].1))
            });
            out
        });
        if let Ok(o) = &outcome {
            rec.iterations = o.loss_trajectory.len() * exp.bin_lambdas.len();
        }
        let t0 = Instant::now();
        let curve = outcome.map_err(|e| e.to_string()).and_then(|o| {
            o.ascore_curve_with_clean(ctx.csr(ds), ctx.model(ds), &targets, &OddBall::default())
                .map_err(|e| e.to_string())
        });
        rec.curve_s = t0.elapsed().as_secs_f64();
        match curve {
            Ok(scores) => {
                let tau: Vec<f64> = (0..scores.len())
                    .map(|b| AttackOutcome::tau_as(&scores, b))
                    .collect();
                rows.push(enc_curve(&tau));
            }
            Err(reason) => rows.push(format!("failed,{reason}")),
        }
        rows
    }
}

/// The memo tiers, in the order [`memo_counts`] lists them.
const MEMO_TIERS: [&str; 5] = ["outcome", "assembly", "ng", "tt", "loss"];

/// `(hits, misses)` of each memo tier.
fn memo_counts(m: &MemoStats) -> [(u64, u64); 5] {
    [
        (m.outcome_hits, m.outcome_misses),
        (m.grads_hits, m.grads_misses),
        (m.ng_hits, m.ng_misses),
        (m.table.hits, m.table.misses),
        (m.loss_hits, m.loss_misses),
    ]
}

impl Experiment for Observed<'_> {
    fn name(&self) -> String {
        self.exp.name()
    }
    fn config_fingerprint(&self) -> String {
        self.exp.config_fingerprint()
    }
    fn datasets(&self) -> Vec<DatasetSpec> {
        self.exp.datasets()
    }
    fn num_cells(&self) -> usize {
        self.exp.num_cells()
    }
    fn cell_dataset(&self, cell: usize) -> usize {
        self.exp.cell_dataset(cell)
    }
    fn cell_label(&self, cell: usize) -> String {
        self.exp.cell_label(cell)
    }
    fn artifacts(&self) -> Vec<String> {
        self.exp.artifacts()
    }
    fn finalize(&self, opts: &ExpOptions, cells: &[Vec<String>]) -> Result<(), BenchError> {
        self.exp.finalize(opts, cells)
    }

    fn run_cell(&self, cell: usize, ctx: &mut CellCtx<'_, '_>) -> Vec<String> {
        let mut rec = CellRecord {
            cell,
            method: Some(method_of(self.exp, cell).1),
            ..CellRecord::default()
        };
        let t0 = Instant::now();
        self.first_cell.get_or_init(|| t0);
        let rows = if self.trace {
            self.traced_cell(cell, ctx, &mut rec)
        } else {
            self.exp.run_cell(cell, ctx)
        };
        rec.cell_s = t0.elapsed().as_secs_f64();
        rec.rows = rows.clone();
        self.cells
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(rec);
        rows
    }
}

/// Builds every substrate of the grid on a fresh pool (dataset build,
/// CSR freeze, OddBall fit) through the same `build_eager` the runner
/// calls before its first cell. Serial, so the time is the work and not
/// thread start-up.
fn build_pool(exp: &Fig4Experiment, seed: u64) -> SubstratePool {
    let pool = SubstratePool::new(exp.datasets(), seed);
    pool.build_eager(&vec![true; pool.specs().len()], false);
    pool
}

/// Builds fresh pools for `budget_s` seconds (at least [`MIN_SETUPS`]
/// times). Returns the last pool and each build's seconds.
fn time_setups(exp: &Fig4Experiment, seed: u64, budget_s: f64) -> (SubstratePool, Vec<f64>) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let pool = build_pool(exp, seed);
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= MIN_SETUPS && start.elapsed().as_secs_f64() >= budget_s {
            return (pool, times);
        }
    }
}

/// Runs `attack_grid` (or the probe grid) once, timing its set-up for
/// `setup_budget_s` seconds first.
pub fn run(
    exp: &Fig4Experiment,
    setup_budget_s: f64,
    seed: u64,
    trace: bool,
) -> Result<Report, String> {
    let mut report = Report::default();
    let threads = nproc();
    let t_run = Instant::now();

    // Set-up, timed repeatedly; the last pool serves the checks.
    let (pool, setup_s) = time_setups(exp, seed, setup_budget_s);
    phase("attack_grid setup", t_run);

    // The grid itself.
    let run_dir = PathBuf::from(OUT_DIR).join(format!("run-{}-{}", exp.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    let opts = ExpOptions {
        seed,
        samples: exp.samples,
        out_dir: run_dir.clone(),
        threads,
        ..ExpOptions::default()
    };
    let observed = Observed {
        exp,
        trace,
        cells: Mutex::new(Vec::new()),
        first_cell: OnceLock::new(),
    };
    let t0 = Instant::now();
    let grid = ExperimentRunner::new(&opts).run(&observed, &opts);
    let grid_s = t0.elapsed().as_secs_f64();
    let runner_setup_s = observed
        .first_cell
        .get()
        .map_or(grid_s, |first| first.duration_since(t0).as_secs_f64());
    let csv_path = run_dir.join(&exp.csv_name);
    let csv = std::fs::read(&csv_path).map_err(|e| format!("read {}: {e}", csv_path.display()));
    let _ = std::fs::remove_dir_all(&run_dir);
    grid.map_err(|e| format!("grid failed: {e}"))?;
    let csv = csv?;
    let mut cells = observed
        .cells
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    cells.sort_by_key(|c| c.cell);

    // Checks: every cell ran and none failed; fig4.csv is complete, every
    // tau is a number <= 1, and it matches earlier runs of this seed byte
    // for byte; one cell per method re-runs identically, and its
    // incremental AScore curve equals the full-refit oracle bit for bit.
    report.attempted += cells.len() as u64;
    let failed: Vec<&CellRecord> = cells
        .iter()
        .filter(|c| c.rows.get(1).is_none_or(|r| r.starts_with("failed")))
        .collect();
    report.failed += failed.len() as u64;
    for c in &failed {
        report.note(format!(
            "failed cell {}: {:?}",
            exp.cell_label(c.cell),
            c.rows.get(1)
        ));
    }
    report.check(cells.len() == exp.num_cells(), || {
        format!("{} of {} cells reported", cells.len(), exp.num_cells())
    });
    let tau_binarized = check_csv(exp, &csv, &mut report);
    check_reference(exp, seed, &csv, &mut report)?;
    let t_check = Instant::now();
    check_method_cells(exp, seed, &pool, &cells, threads, &mut report)?;
    phase("attack_grid method-cell checks", t_check);

    let cell_ms: Vec<f64> = cells.iter().map(|c| c.cell_s * 1e3).collect();
    let cell_p50 = median(&cell_ms).ok_or("no cells ran")?;
    let setup = median(&setup_s).ok_or("no setup")?;
    let rss = crate::report::peak_rss_mib().ok_or("VmHWM unavailable")?;
    let n_cells = cells.len() as f64;

    report.e2e.insert("setup_s".into(), setup);
    report.e2e.insert("peak_rss_mib".into(), rss);
    report
        .e2e
        .insert("throughput_per_s".into(), n_cells / grid_s);
    report.e2e.insert("p50_ms".into(), cell_p50);
    report.e2e.insert("tail_ms".into(), grid_s * 1e3);
    report.e2e.insert("quality".into(), tau_binarized);

    report.line("setup_s", setup, "s", setup_s.len());
    report.line("peak_rss_mib", rss, "MiB", 1);
    report.line("grid_s", grid_s, "s", 1);
    report.line("runner_setup_s", runner_setup_s, "s", 1);
    report.line("tau_as_binarized", tau_binarized, "ratio", exp.panels.len());
    report.line("cell_p50_ms", cell_p50, "ms", cells.len());
    let busy_s: f64 = cells.iter().map(|c| c.cell_s).sum();
    report.line("cell_busy_s", busy_s, "s", cells.len());
    report.line(
        "error_rate",
        report.failed as f64 / report.attempted as f64,
        "ratio",
        report.attempted as usize,
    );
    report.note(format!(
        "attack_grid: {} panels x {} methods x {} samples = {} cells on {threads} threads",
        exp.panels.len(),
        exp.methods.len(),
        exp.samples,
        exp.num_cells()
    ));

    if trace {
        let t_trace = Instant::now();
        trace_layers(exp, seed, &pool, &cells, grid_s, threads, &mut report)?;
        phase("attack_grid layer timings", t_trace);
    }
    Ok(report)
}

/// Parses fig4.csv: every panel present, every tau a finite number no
/// greater than 1 (AScores are non-negative, so `(S0 - Sb) / S0 <= 1`).
/// A tau below 0 is legitimate — the attack raised its targets' scores,
/// which ContinuousA does on some seeds — and is only counted. Returns
/// the mean binarized tau at each panel's largest listed budget.
fn check_csv(exp: &Fig4Experiment, csv: &[u8], report: &mut Report) -> f64 {
    let text = String::from_utf8_lossy(csv);
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().unwrap_or("").split(',').collect();
    let col = header.iter().position(|h| *h == "tau_binarized");
    report.check(col.is_some(), || {
        format!("fig4.csv header {header:?} lacks tau_binarized")
    });
    let mut last_binarized: Vec<(String, f64)> = Vec::new();
    let mut bad = Vec::new();
    let mut negative = 0;
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        let taus: Vec<Option<f64>> = fields.iter().skip(3).map(|f| f.parse().ok()).collect();
        let valid = |t: &Option<f64>| t.is_some_and(|t: f64| t.is_finite() && t <= 1.0);
        if fields.len() != header.len() || !taus.iter().all(valid) {
            bad.push(line.to_string());
            continue;
        }
        negative += taus.iter().flatten().filter(|t| **t < 0.0).count();
        let b = col
            .and_then(|c| taus.get(c - 3).copied().flatten())
            .unwrap_or(f64::NAN);
        match last_binarized.last_mut() {
            Some((panel, v)) if panel == fields[0] => *v = b,
            _ => last_binarized.push((fields[0].to_string(), b)),
        }
    }
    report.check(bad.is_empty(), || {
        format!("fig4.csv rows with a tau that is not a number <= 1: {bad:?}")
    });
    if negative > 0 {
        report.note(format!(
            "fig4.csv: {negative} tau value(s) below 0 (the attack raised its targets' scores)"
        ));
    }
    let panels: Vec<&str> = last_binarized.iter().map(|(p, _)| p.as_str()).collect();
    let expected: Vec<&str> = exp.panels.iter().map(|p| p.label.as_str()).collect();
    report.check(panels == expected, || {
        format!("fig4.csv panels {panels:?}, expected {expected:?}")
    });
    let sum: f64 = last_binarized.iter().map(|(_, v)| v).sum();
    sum / last_binarized.len().max(1) as f64
}

/// A hash of this executable's bytes: a reference recorded by one build
/// is only ever compared with runs of the same build.
fn build_id() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(&bytes);
    Ok(h.finish())
}

/// Compares fig4.csv with the first run of the same build, seed and
/// sample count in this directory, or records it as the reference.
fn check_reference(
    exp: &Fig4Experiment,
    seed: u64,
    csv: &[u8],
    report: &mut Report,
) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(format!(
        "{}-build{:016x}-seed{seed}-s{}.csv",
        exp.name,
        build_id()?,
        exp.samples
    ));
    match std::fs::read(&path) {
        Ok(reference) => report.check(reference == csv, || {
            format!(
                "fig4.csv differs from the earlier run recorded in {}",
                path.display()
            )
        }),
        Err(_) => {
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            let stored = std::fs::create_dir_all(OUT_DIR)
                .and_then(|_| std::fs::write(&tmp, csv))
                .and_then(|_| std::fs::rename(&tmp, &path));
            if let Err(e) = stored {
                report.note(format!(
                    "note: could not record reference {}: {e}",
                    path.display()
                ));
            }
        }
    }
    Ok(())
}

/// The panel whose cells are cheapest to re-run: the fewest edges.
fn check_panel(exp: &Fig4Experiment) -> usize {
    (0..exp.panels.len())
        .min_by_key(|&p| exp.panels[p].spec.edges)
        .unwrap_or(0)
}

/// Re-runs one cell per method on a fresh session: its tau curve must
/// equal the grid's record bit for bit, and the incremental curve must
/// equal `ascore_curve_full_refit` bit for bit.
fn check_method_cells(
    exp: &Fig4Experiment,
    seed: u64,
    pool: &SubstratePool,
    cells: &[CellRecord],
    threads: usize,
    report: &mut Report,
) -> Result<(), String> {
    let p = check_panel(exp);
    let sub = pool.get(panel_ds(exp, p));
    let budget = budget_for(exp, p, sub.csr.num_edges());
    let targets = targets_for(exp, &sub.model, seed, p, 0);
    for (mi, &method) in exp.methods.iter().enumerate() {
        let cell = (p * exp.methods.len() + mi) * exp.samples;
        let label = exp.cell_label(cell);
        let mut session = AttackSession::new(&sub.csr, &targets)
            .map_err(|e| format!("check session for {label}: {e}"))?
            .with_memo();
        let outcome = match attack(exp, method, &mut session, budget, threads) {
            Ok(o) => o,
            Err(e) => {
                report.check(false, || format!("re-run of {label} failed: {e}"));
                continue;
            }
        };
        let det = OddBall::default();
        let inc = outcome.ascore_curve_with_clean(&sub.csr, &sub.model, &targets, &det);
        let full = outcome.ascore_curve_full_refit(&sub.csr, &sub.model, &targets, &det);
        let bits = |c: &Result<Vec<f64>, _>| -> Option<Vec<u64>> {
            c.as_ref()
                .ok()
                .map(|v: &Vec<f64>| v.iter().map(|x| x.to_bits()).collect())
        };
        report.check(bits(&inc).is_some() && bits(&inc) == bits(&full), || {
            format!("{label}: incremental AScore curve differs from the full refit")
        });
        let tau: Option<Vec<u64>> = inc.ok().map(|scores| {
            (0..scores.len())
                .map(|b| AttackOutcome::tau_as(&scores, b).to_bits())
                .collect()
        });
        let recorded: Option<Vec<u64>> = cells
            .iter()
            .find(|c| c.cell == cell)
            .and_then(|c| c.rows.get(1))
            .and_then(|r| dec_curve(r))
            .map(|v| v.iter().map(|x| x.to_bits()).collect());
        report.check(tau.is_some() && tau == recorded, || {
            format!("{label}: re-run tau curve differs from the grid's record")
        });
    }
    Ok(())
}

/// Cold per-call times of one panel's session primitives.
#[derive(Default)]
struct Cold {
    pair_ms: Vec<f64>,
    node_us: Vec<f64>,
    toggle_us: Vec<f64>,
    loss_us: Vec<f64>,
}

/// Calls per primitive per panel.
const COLD_REPS: usize = 5;

/// Times `node_grads`, `pair_gradients_into`, `toggle` and `loss` on a
/// memo-free single-thread session over the panel's full candidate set.
fn cold_calls(csr: &CsrGraph, targets: &[NodeId]) -> Result<Cold, String> {
    let mut session = AttackSession::new(csr, targets)
        .map_err(|e| e.to_string())?
        .with_threads(1)
        .without_memo();
    let candidates = Candidates::build(AttackConfig::default().scope, csr, targets);
    let mask = vec![true; candidates.len()];
    let mut out = vec![0.0; candidates.len()];
    let mut cold = Cold::default();
    for _ in 0..COLD_REPS {
        let t0 = Instant::now();
        let ng = session.node_grads().map_err(|e| e.to_string())?;
        cold.node_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        session.pair_gradients_into(&ng, &candidates, &mask, &mut out);
        cold.pair_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(&out);
        let t0 = Instant::now();
        session.loss().map_err(|e| e.to_string())?;
        cold.loss_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    // Toggle pairs at each target, then restore the clean graph.
    let n = csr.num_nodes() as NodeId;
    for (k, &t) in targets.iter().enumerate().take(COLD_REPS * 2) {
        let other = (t + 1 + k as NodeId) % n;
        if other == t {
            continue;
        }
        let t0 = Instant::now();
        session.toggle(t, other);
        cold.toggle_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    session.reset();
    Ok(cold)
}

/// The per-layer numbers of a traced grid run.
fn trace_layers(
    exp: &Fig4Experiment,
    seed: u64,
    pool: &SubstratePool,
    cells: &[CellRecord],
    grid_s: f64,
    threads: usize,
    report: &mut Report,
) -> Result<(), String> {
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let l = &mut report.layers;

    // ba-datasets / ba-graph / ba-oddball: each substrate's build,
    // freeze and fit, timed separately and serially.
    let (mut build_ms, mut freeze_ms, mut fit_ms) = (vec![], vec![], vec![]);
    for spec in exp.datasets() {
        let t0 = Instant::now();
        let g = spec.build(seed);
        build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let csr = CsrGraph::from(&g);
        freeze_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        OddBall::default()
            .fit(&csr)
            .map_err(|e| format!("fit {}: {e}", spec.dataset.name()))?;
        fit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    l.insert("datasets.build_ms".into(), med(&build_ms));
    l.insert("graph.freeze_ms".into(), med(&freeze_ms));
    l.insert("oddball.fit_ms".into(), med(&fit_ms));

    // ba-core: cold primitives per panel (sample 0's targets).
    let mut all = Cold::default();
    let mut per_panel_pgd_ms = Vec::new();
    for p in 0..exp.panels.len() {
        let sub = pool.get(panel_ds(exp, p));
        let targets = targets_for(exp, &sub.model, seed, p, 0);
        let c = cold_calls(&sub.csr, &targets)?;
        per_panel_pgd_ms.push(med(&c.pair_ms) + med(&c.node_us) / 1e3);
        all.pair_ms.extend(c.pair_ms);
        all.node_us.extend(c.node_us);
        all.toggle_us.extend(c.toggle_us);
        all.loss_us.extend(c.loss_us);
    }
    l.insert("core.pair_grads_ms".into(), med(&all.pair_ms));
    l.insert("core.node_grads_us".into(), med(&all.node_us));
    l.insert("core.toggle_us".into(), med(&all.toggle_us));
    l.insert("core.loss_us".into(), med(&all.loss_us));

    let of = |m: Fig4Method| -> Vec<&CellRecord> {
        cells.iter().filter(|c| c.method == Some(m)).collect()
    };
    for m in [
        Fig4Method::Binarized,
        Fig4Method::GradMax,
        Fig4Method::Continuous,
    ] {
        let secs: Vec<f64> = of(m).iter().map(|c| c.attack_s).collect();
        l.insert(format!("core.cell_s.{}", m.column()), med(&secs));
    }
    let (mut iter_ms, mut attributed) = (vec![], vec![]);
    for c in of(Fig4Method::Binarized) {
        if c.iterations == 0 || c.attack_s == 0.0 {
            continue;
        }
        let panel = method_of(exp, c.cell).0;
        iter_ms.push(c.attack_s * 1e3 / c.iterations as f64);
        attributed.push(c.iterations as f64 * per_panel_pgd_ms[panel] / (c.attack_s * 1e3));
    }
    l.insert("core.pgd_iter_ms".into(), med(&iter_ms));
    l.insert("core.binarized_attributed_frac".into(), med(&attributed));

    // Memo tiers: hits over hits + misses, summed over every cell.
    let mut sum = [(0u64, 0u64); 5];
    for m in cells.iter().filter_map(|c| c.memo) {
        for (total, cell) in sum.iter_mut().zip(m) {
            total.0 += cell.0;
            total.1 += cell.1;
        }
    }
    for (tier, (hits, misses)) in MEMO_TIERS.into_iter().zip(sum) {
        let base = hits + misses;
        let ratio = if base == 0 {
            0.0
        } else {
            hits as f64 / base as f64
        };
        l.insert(format!("core.memo.{tier}_hit_ratio"), ratio);
        l.insert(format!("core.memo.{tier}_base"), base as f64);
    }

    // ba-oddball curve, and the runner pool.
    let curve_ms: Vec<f64> = cells.iter().map(|c| c.curve_s * 1e3).collect();
    l.insert("oddball.curve_ms".into(), med(&curve_ms));
    let busy: f64 = cells.iter().map(|c| c.cell_s).sum();
    l.insert("bench.cells".into(), cells.len() as f64);
    l.insert("bench.cells_failed".into(), report.failed as f64);
    l.insert(
        "bench.pool_busy_frac".into(),
        busy / (threads as f64 * grid_s),
    );
    Ok(())
}
