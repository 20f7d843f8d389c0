//! What one workload run produces, and how it is printed.
//!
//! The metric names here are the benchmark's contract with
//! `BENCHMARK.json` at the repository root: [`END_TO_END`] and
//! [`PER_LAYER`] must list exactly the names declared there, and every
//! run prints all of one list in its final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced run), `(name, unit)`. Every workload
/// reports every one; README.md gives each workload's reading.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("quality", "ratio"),
];

/// Per-layer metrics (traced run), `(name, unit)`, grouped by crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    // ba-core
    ("core.cell_s.binarized", "s"),
    ("core.cell_s.gradmax", "s"),
    ("core.cell_s.continuousA", "s"),
    ("core.pair_grads_ms", "ms"),
    ("core.node_grads_us", "us"),
    ("core.toggle_us", "us"),
    ("core.loss_us", "us"),
    ("core.pgd_iter_ms", "ms"),
    ("core.binarized_attributed_frac", "ratio"),
    ("core.memo.outcome_hit_ratio", "ratio"),
    ("core.memo.outcome_base", "count"),
    ("core.memo.assembly_hit_ratio", "ratio"),
    ("core.memo.assembly_base", "count"),
    ("core.memo.ng_hit_ratio", "ratio"),
    ("core.memo.ng_base", "count"),
    ("core.memo.tt_hit_ratio", "ratio"),
    ("core.memo.tt_base", "count"),
    ("core.memo.loss_hit_ratio", "ratio"),
    ("core.memo.loss_base", "count"),
    // ba-oddball
    ("oddball.curve_ms", "ms"),
    ("oddball.fit_ms", "ms"),
    // ba-datasets / ba-graph
    ("datasets.build_ms", "ms"),
    ("graph.freeze_ms", "ms"),
    ("graph.gen_s", "s"),
    // ba-bench runner and the load generator
    ("bench.cells", "count"),
    ("bench.cells_failed", "count"),
    ("bench.pool_busy_frac", "ratio"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.backlog_max", "count"),
    // ba-stream
    ("stream.batch_ms.plain", "ms"),
    ("stream.batch_ms.compacting", "ms"),
    ("stream.applied_per_batch", "count"),
    ("stream.dirty_rows_per_batch", "count"),
    ("stream.compactions", "count"),
    ("stream.fit_s", "s"),
    ("stream.epoch_snapshot_ms", "ms"),
    ("stream.top_k_ms", "ms"),
    ("stream.score_us", "us"),
    // ba-serve
    ("serve.handle_point_us", "us"),
    ("serve.handle_topk_ms", "ms"),
    ("serve.handle_ingest_ms", "ms"),
    ("serve.retained_epochs", "count"),
    ("serve.rss_per_epoch_mib", "MiB"),
    // ba-net
    ("net.rtt_overhead_us", "us"),
];

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (cells, requests, batches, and checks).
    pub attempted: u64,
    /// Operations that failed (failed cells, error or mis-typed
    /// responses, degenerate refits, failed checks).
    pub failed: u64,
    /// Correctness-check failures, one line each.
    pub errors: Vec<String>,
    /// End-to-end values by name.
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer values by name.
    pub layers: BTreeMap<String, f64>,
    /// Human-readable lines printed before the JSON line: the named
    /// metrics of each workload with their units and sample counts.
    pub lines: Vec<String>,
}

impl Report {
    /// Records a correctness check; a failing one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// Adds a human-readable metric line with its unit and sample count.
    pub fn line(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.lines
            .push(format!("metric {name} = {value:.6} {unit} (n={samples})"));
    }

    /// Adds an informational line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Folds another run's per-layer values into this one (used for the
    /// probes a traced run makes of layers its workload does not reach).
    /// The probe's lines are kept under a `probe <name>:` prefix, so each
    /// plain `metric` line belongs to this run's own workload.
    pub fn absorb_layers(&mut self, probe: &str, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(
            other
                .errors
                .into_iter()
                .map(|e| format!("probe {probe}: {e}")),
        );
        self.lines.extend(
            other
                .lines
                .into_iter()
                .map(|l| format!("probe {probe}: {l}")),
        );
        for (k, v) in other.layers {
            self.layers.entry(k).or_insert(v);
        }
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The final JSON line: the end-to-end metrics (`trace == false`) or
    /// the per-layer metrics. A declared metric the run did not produce
    /// is a benchmark bug and is reported as an error.
    pub fn json(&self, trace: bool) -> Result<String, String> {
        let (names, values) = if trace {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = values
                .get(*name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            // JSON has no infinity; a tail that landed on a failure
            // (which already fails the run) prints as the largest double.
            let v = if v.is_finite() { *v } else { f64::MAX };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        ))
    }
}

/// Notes on standard error how long a phase of a run took.
pub fn phase(what: &str, t0: std::time::Instant) {
    eprintln!("[perfbench] {what}: {:.2}s", t0.elapsed().as_secs_f64());
}

/// Runs `f` with this process's standard output sent to the file
/// `path`, and returns `f`'s result with what it printed. Library code
/// that prints (the fig4 table) is kept off the benchmark's output this
/// way.
pub fn capture_stdout<R>(
    path: &std::path::Path,
    f: impl FnOnce() -> R,
) -> Result<(R, String), String> {
    use std::io::Write as _;
    use std::os::unix::io::AsRawFd;
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let flush = || {
        std::io::stdout()
            .flush()
            .map_err(|e| format!("flush stdout: {e}"))
    };
    flush()?;
    // SAFETY: dup/dup2/close only act on file descriptors: 1 (standard
    // output), the saved copy, and `file`'s, which lives to the end of
    // this function.
    let saved = unsafe { crate::sys::dup(1) };
    if saved < 0 || unsafe { crate::sys::dup2(file.as_raw_fd(), 1) } < 0 {
        return Err("cannot redirect standard output".into());
    }
    let out = f();
    let flushed = flush();
    // SAFETY: as above; `saved` is the descriptor dup returned.
    unsafe {
        crate::sys::dup2(saved, 1);
        crate::sys::close(saved);
    }
    flushed?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()));
    let _ = std::fs::remove_file(path);
    Ok((out, text?))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    proc_status_kib("VmHWM:").map(|kib| kib / 1024.0)
}

fn proc_status_kib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_every_declared_metric_in_order() {
        let mut r = Report::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.e2e.insert(name.to_string(), 1.5 + i as f64);
        }
        r.attempted = 3;
        let line = r.json(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(r.json(true).is_err(), "per-layer metrics were not set");
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let declared = spec.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                spec.contains(&entry),
                "BENCHMARK.json lacks {name} in {unit}"
            );
        }
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true, || "fine".into());
        assert!(r.correct());
        r.check(false, || "broken".into());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
    }

    #[test]
    fn capture_stdout_returns_what_was_printed() {
        use std::io::Write as _;
        // A relative name: the file lands in the package directory, and
        // capture_stdout removes it.
        let path = std::path::PathBuf::from(format!("capture-test-{}.txt", std::process::id()));
        let (n, text) = capture_stdout(&path, || {
            std::io::stdout().write_all(b"FIG 4\n").unwrap();
            7
        })
        .unwrap();
        assert_eq!((n, text.as_str()), (7, "FIG 4\n"));
        assert!(!path.exists());
    }

    #[test]
    fn probe_lines_are_prefixed() {
        let mut probe = Report::default();
        probe.line("setup_s", 0.5, "s", 1);
        probe.layers.insert("graph.gen_s".into(), 0.25);
        let mut r = Report::default();
        r.line("setup_s", 2.0, "s", 3);
        r.absorb_layers("serve_mixed", probe);
        assert_eq!(
            r.lines.iter().filter(|l| l.starts_with("metric ")).count(),
            1
        );
        assert!(r.lines[1].starts_with("probe serve_mixed: metric setup_s"));
        assert_eq!(r.layers["graph.gen_s"], 0.25);
    }
}
