//! The end-to-end run: only the program's front doors, tracing off.
//!
//! A run is a sequence of whole rounds, each doing the same operations one
//! after another, never overlapping:
//!
//! 1. set-up — parse the FIMI file and prepare the engine;
//! 2. batch mining — `FusionConfig::engine(..).mine(Source::Transactions)`;
//! 3. serving — a daemon over the same database, launched after the
//!    round's first mine, with a closed read window over [`CONNECTIONS`]
//!    connections after each of the [`MINES_PER_ROUND`] mines; then
//!    [`APPENDS`] `append wait=1` batches (the first append after launch,
//!    then later ones); then it stops.
//!
//! Rounds repeat until `--seconds` have passed. Each metric is the median
//! over the run's samples (latencies: over windows, of each window's median
//! and 99th percentile over thousands of requests), scaled to reference
//! seconds by the [`Yardstick`], which is read before and after every timed
//! operation.

use crate::check::{self, Checks};
use crate::measure::{median, peak_rss_mib, quantile, timed, Report};
use crate::query::{self, closed_loop, QuerySet, CONNECTIONS};
use crate::workload::{label, LabeledPattern, Workload};
use crate::yardstick::Yardstick;
use crate::{Ops, Outcome};
use cfp_core::{Pattern, Source};
use cfp_itemset::{read_fimi, TransactionDb};
use std::path::Path;
use std::time::Instant;

/// Set-ups per round.
const SETUPS_PER_ROUND: usize = 10;
/// Rounds every run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 2;
/// Batch mines per round, each followed by a read window.
const MINES_PER_ROUND: usize = 3;
/// Length of each closed read window.
pub const QUERY_WINDOW_S: f64 = 0.5;
/// Append batches per daemon: the first after launch, then four more. The
/// later ones copy different rows, whose cost differs (on `all` by up to a
/// quarter), so a round's later appends are averaged.
pub const APPENDS: usize = 5;

/// Every timing taken, over all rounds, as measured.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    mine_s: Vec<f64>,
    mine_cpu_s: Vec<f64>,
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    rate: Vec<f64>,
    first_append_s: Vec<f64>,
    /// Per round, the mean of its later appends.
    append_s: Vec<f64>,
}

pub fn run(w: &Workload, fimi: &Path, seconds: f64) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let mut checks = Checks::default();
    let config = &w.config;
    let batches = w.append_batches(APPENDS);
    let txns: Vec<String> = batches
        .iter()
        .map(|batch| {
            let rows: Vec<String> = batch
                .iter()
                .map(|t| t.iter().map(u32::to_string).collect::<Vec<_>>().join(","))
                .collect();
            rows.join(";")
        })
        .collect();

    // The grown database, parsed afresh from FIMI text: the base file plus
    // the appended transactions.
    let mut text = std::fs::read_to_string(fimi).map_err(|e| e.to_string())?;
    for t in batches.iter().flatten() {
        let line: Vec<String> = t.iter().map(u32::to_string).collect();
        text.push_str(&line.join(" "));
        text.push('\n');
    }
    let grown_db = cfp_itemset::parse_fimi(&text).map_err(|e| e.to_string())?;

    let mut yard = Yardstick::new();
    let mut samples = Samples::default();
    let mut rounds = 0usize;
    let mut peak_rss = None;
    // Outputs kept for the checks after the last round: the mined
    // patterns, each launch ranking, each ranking after the appends.
    let mut mined: Option<Vec<Pattern>> = None;
    let mut last_db: Option<TransactionDb> = None;
    let mut launched: Vec<Vec<LabeledPattern>> = Vec::new();
    let mut grown: Vec<Vec<LabeledPattern>> = Vec::new();
    let mut queries: Option<QuerySet> = None;
    let mut wrong = (0u64, None::<String>);

    let t0 = Instant::now();
    while rounds < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
        // 1. Set-up: parse + engine preparation (the vertical index).
        let db = yard.around(|| {
            let mut db = None;
            for _ in 0..SETUPS_PER_ROUND {
                let (parsed, wall, _) = timed(|| {
                    let parsed = read_fimi(fimi).map_err(|e| e.to_string())?;
                    drop(config.engine(&parsed));
                    Ok::<_, String>(parsed)
                });
                ops.count("setup", parsed.is_ok());
                db = Some(parsed?);
                samples.setup_s.push(wall);
            }
            Ok::<_, String>(db.expect("at least one set-up"))
        })?;

        // 2 + 3. Batch mines, each followed by a read window on the
        // daemon, which is launched after the round's first mine and sits
        // idle while the later ones run.
        let mut serving = None;
        for _ in 0..MINES_PER_ROUND {
            let engine = config.engine(&db);
            let (result, wall, cpu) = yard.around(|| timed(|| engine.mine(Source::Transactions)));
            ops.count("mine", result.is_ok());
            let patterns = result.map_err(|e| e.to_string())?.patterns;
            drop(engine);
            samples.mine_s.push(wall);
            samples.mine_cpu_s.push(cpu);
            peak_rss.get_or_insert_with(peak_rss_mib);
            match &mined {
                None => mined = Some(patterns),
                Some(first) => checks.expect(*first == patterns, || {
                    "two mines of one database disagree".to_string()
                }),
            }

            if serving.is_none() {
                let (daemon, mut probe) = query::launch(db.clone(), config.clone())?;
                ops.count("launch", true);
                launched.push(query::ranking(&mut probe, &db)?);
                let mut clients = vec![probe];
                while clients.len() < CONNECTIONS {
                    clients.push(daemon.connect()?);
                }
                serving = Some((daemon, clients));
            }
            let (daemon, clients) = serving.take().expect("daemon launched");
            let queries = queries.get_or_insert_with(|| {
                QuerySet::build(&db, mined.as_ref().expect("mined"), config.tau, w.seed)
            });
            let window_seed = w.seed ^ (samples.p50_ms.len() as u64) << 32;
            let (clients, reads) =
                yard.around(|| closed_loop(clients, queries, QUERY_WINDOW_S, window_seed));
            reads.count_ops(&mut ops);
            wrong.0 += reads.wrong;
            wrong.1 = wrong.1.or(reads.first_wrong.clone());
            let all = reads.all_latencies();
            samples.p50_ms.push(median(&all));
            samples.p99_ms.push(quantile(&all, 0.99));
            samples.rate.push(reads.requests() as f64 / reads.elapsed_s);
            serving = Some((daemon, clients));
        }
        let (daemon, mut clients) = serving.expect("daemon launched");

        let mut later = Vec::new();
        for (i, txns) in txns.iter().enumerate() {
            let (reply, wall, _) = yard.around(|| {
                timed(|| clients[0].request("append", &[("txns", txns), ("wait", "1")]))
            });
            ops.count("append", reply.is_ok());
            reply.map_err(|e| format!("append failed: {e}"))?;
            if i == 0 {
                samples.first_append_s.push(wall);
            } else {
                later.push(wall);
            }
        }
        samples
            .append_s
            .push(later.iter().sum::<f64>() / later.len() as f64);
        grown.push(query::ranking(&mut clients[0], &grown_db)?);
        daemon.stop(clients)?;
        rounds += 1;
        last_db = Some(db);
    }

    let s = &samples;
    let scale = yard.wall_scale();
    let mut report = Report::default();
    report.put("setup_s", median(&s.setup_s) * scale, "s");
    report.put("mine_s", median(&s.mine_s) * scale, "s");
    report.put("mine_cpu_s", median(&s.mine_cpu_s) * yard.cpu_scale(), "s");
    report.put(
        "peak_rss_mib",
        peak_rss.expect("measured after the first mine"),
        "MiB",
    );

    // Checks, all after the measured rounds.
    let db = last_db.as_ref().expect("at least one round");
    let patterns = mined.as_ref().expect("at least one mine");
    check::mined_result(
        &mut checks,
        "mine",
        db,
        patterns,
        config.min_count,
        config.closure_step,
    );
    let labeled = label(db, patterns);
    let recall = check::recall(&w.planted, &labeled);
    checks.expect(recall > 0.0, || {
        "no planted colossal pattern was recovered".to_string()
    });
    report.put("colossal_recall", recall, "fraction");
    for ranking in &launched {
        check::same_ranking(
            &mut checks,
            "launch ranking vs cold mine",
            ranking,
            &labeled,
        );
    }
    checks.expect(wrong.0 == 0, || {
        format!(
            "{} wrong replies, first: {}",
            wrong.0,
            wrong.1.clone().unwrap_or_default()
        )
    });
    // The ranking served after the appends must equal a cold mine of the
    // grown database.
    let cold = config
        .engine(&grown_db)
        .mine(Source::Transactions)
        .map_err(|e| e.to_string())?;
    let cold = label(&grown_db, &cold.patterns);
    for ranking in &grown {
        check::same_ranking(
            &mut checks,
            "ranking after appends vs cold mine",
            ranking,
            &cold,
        );
    }

    report.put("query_p50_ms", median(&s.p50_ms) * scale, "ms");
    report.put("query_p99_ms", median(&s.p99_ms) * scale, "ms");
    report.put("query_rate", median(&s.rate) / scale, "1/s");
    report.put("first_append_s", median(&s.first_append_s) * scale, "s");
    report.put("append_s", median(&s.append_s) * scale, "s");
    println!("rounds: {rounds}");
    println!(
        "yardstick: scale {scale:.4} wall, {:.4} CPU (readings spread {:.3}); as measured: setup_s {:.6}, mine_s {:.6}, mine_cpu_s {:.6}, query_p50_ms {:.6}, query_p99_ms {:.6}, query_rate {:.1}, first_append_s {:.6}, append_s {:.6}",
        yard.cpu_scale(),
        yard.spread(),
        median(&s.setup_s),
        median(&s.mine_s),
        median(&s.mine_cpu_s),
        median(&s.p50_ms),
        median(&s.p99_ms),
        median(&s.rate),
        median(&s.first_append_s),
        median(&s.append_s),
    );
    Ok(Outcome {
        report,
        ops,
        checks,
    })
}
