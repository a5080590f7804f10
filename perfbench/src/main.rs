//! End-to-end and per-layer benchmark of the Pattern-Fusion engine.
//!
//! ```text
//! perfbench --workload replace|all|diag [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Generates the workload's inputs from the seed, hands the program only
//! those inputs (a FIMI file, then requests), measures for about `S`
//! seconds, checks every output against figures computed here, and prints
//! the metrics — one per line, then one JSON object as the last line. With
//! `--trace 0` the metrics are end-to-end (tracing off); with `--trace 1`
//! they are per layer, from a single-threaded traced replay. See README.md.

mod check;
mod e2e;
mod measure;
mod query;
mod replay;
mod workload;
mod yardstick;

use check::Checks;
use measure::{median, timed, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Default of `--seconds`: the `run_seconds` of `BENCHMARK.json`, the run
/// length every bound there was set on.
const DEFAULT_SECONDS: f64 = 32.0;

/// Operations attempted and failed, by kind.
#[derive(Default)]
pub struct Ops {
    kinds: Vec<(String, u64, u64)>,
}

impl Ops {
    pub fn count(&mut self, kind: &str, ok: bool) {
        let entry = match self.kinds.iter().position(|(k, _, _)| k == kind) {
            Some(i) => &mut self.kinds[i],
            None => {
                self.kinds.push((kind.to_string(), 0, 0));
                self.kinds.last_mut().expect("just pushed")
            }
        };
        entry.1 += 1;
        entry.2 += u64::from(!ok);
    }

    fn attempted(&self) -> u64 {
        self.kinds.iter().map(|k| k.1).sum()
    }

    fn failed(&self) -> u64 {
        self.kinds.iter().map(|k| k.2).sum()
    }

    fn print(&self) {
        let parts: Vec<String> = self
            .kinds
            .iter()
            .map(|(k, a, f)| format!("{k} {a} ({f} failed)"))
            .collect();
        println!("operations: {}", parts.join(", "));
    }
}

pub struct Outcome {
    pub report: Report,
    pub ops: Ops,
    pub checks: Checks,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required ({})",
            workload::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// The traced run: a single-threaded replay of the mine with a span per
/// layer call, checked bit-for-bit against `Engine::mine`; then the append
/// path in-process and the daemon's per-verb latencies.
fn trace_run(w: &workload::Workload, fimi: &Path) -> Result<Outcome, String> {
    let mut report = Report::default();
    let mut ops = Ops::default();
    let mut checks = Checks::default();
    let config = &w.config;

    let db = cfp_itemset::read_fimi(fimi).map_err(|e| e.to_string())?;
    let (reference, _, mine_cpu_s) =
        timed(|| config.engine(&db).mine(cfp_core::Source::Transactions));
    ops.count("mine", reference.is_ok());
    let reference = reference.map_err(|e| e.to_string())?.patterns;

    let mut tracer = replay::Tracer::new();
    let (replayed, counters) = replay::replay(fimi, config, &mut tracer);
    ops.count("replay", true);
    checks.expect(replayed == reference, || {
        format!(
            "the traced replay returned {} patterns that differ from Engine::mine's {}",
            replayed.len(),
            reference.len()
        )
    });
    replay::report(&tracer, &counters, &mut report);
    let (total, coverage) = tracer.coverage("replay");
    report.put("trace.replay_s", total, "s");
    report.put("trace.span_coverage", coverage, "fraction");
    report.put("trace.mine_cpu_s", mine_cpu_s, "s");
    report.put("trace.replay_over_mine_cpu", total / mine_cpu_s, "ratio");

    // The append path in-process, on the end-to-end run's batches.
    let batches = w.append_batches(e2e::APPENDS);
    let mut delta = cfp_core::DeltaEngine::new(db.clone(), config.clone());
    let (_, first_s, _) =
        timed(|| delta.append(&cfp_itemset::DbDelta::from_transactions(batches[0].clone())));
    ops.count("append", true);
    let (mut times, mut dirty, mut remined, mut spliced, mut carried) = (Vec::new(), 0, 0, 0, 0);
    let mut last = None;
    for batch in &batches[1..] {
        last = Some(delta.append(&cfp_itemset::DbDelta::from_transactions(batch.clone())));
        ops.count("append", true);
        let s = delta.last_append();
        times.push(s.elapsed.as_secs_f64());
        dirty += s.dirty_items;
        remined += s.subtrees_remined;
        spliced += s.rows_spliced;
        carried += usize::from(s.index_carried);
    }
    let cold = config
        .engine(delta.db())
        .mine(cfp_core::Source::Transactions)
        .map_err(|e| e.to_string())?;
    checks.expect(last.is_some_and(|r| r.patterns == cold.patterns), || {
        "DeltaEngine::append differs from a cold mine of the grown database".to_string()
    });
    report.put("delta.first_append_s", first_s, "s");
    report.put("delta.append_s", median(&times), "s");
    report.put("delta.dirty_items", dirty as f64, "count");
    report.put("delta.subtrees_remined", remined as f64, "count");
    report.put("delta.rows_spliced", spliced as f64, "count");
    report.put("delta.index_carried", carried as f64, "count");

    // The daemon's per-verb latencies under the same closed loop.
    let (daemon, mut probe) = query::launch(db.clone(), config.clone())?;
    ops.count("launch", true);
    let queries = query::QuerySet::build(&db, &reference, config.tau, w.seed);
    let reply_bytes = queries.reply_bytes(&mut probe)?;
    let mut clients = vec![probe];
    while clients.len() < query::CONNECTIONS {
        clients.push(daemon.connect()?);
    }
    let (clients, reads) = query::closed_loop(clients, &queries, e2e::QUERY_WINDOW_S, w.seed);
    checks.expect(reads.wrong == 0, || {
        format!(
            "wrong replies: {}",
            reads.first_wrong.clone().unwrap_or_default()
        )
    });
    reads.count_ops(&mut ops);
    for (v, verb) in query::VERBS.iter().enumerate() {
        report.put(
            &format!("serve.{verb}_p50_ms"),
            median(&reads.latencies_ms[v]),
            "ms",
        );
    }
    report.put("serve.reply_bytes", reply_bytes, "bytes");
    daemon.stop(clients)?;

    Ok(Outcome {
        report,
        ops,
        checks,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = match workload::build(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("workload {}", w.describe());

    // The program's only input: the generated database as a FIMI file.
    let dir = PathBuf::from(".bench_work");
    let fimi = dir.join(format!(
        "{}-{}-{}.dat",
        w.name,
        args.seed,
        std::process::id()
    ));
    let written = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&fimi, w.fimi()));
    if let Err(e) = written {
        eprintln!("perfbench: writing {}: {e}", fimi.display());
        return ExitCode::FAILURE;
    }
    let outcome = if args.trace {
        trace_run(&w, &fimi)
    } else {
        e2e::run(&w, &fimi, args.seconds)
    };
    let _ = std::fs::remove_file(&fimi);
    let _ = std::fs::remove_dir(&dir);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    outcome.ops.print();
    println!(
        "checks: {} passed, {} failed",
        outcome.checks.passed,
        outcome.checks.failures.len()
    );
    let correct = outcome.checks.ok();
    outcome
        .report
        .print(correct, outcome.ops.attempted(), outcome.ops.failed());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
