//! The traced run: the fusion loop replayed single-threaded through the
//! engine's public layer calls, with a span around each call and the
//! program's own counters beside it. The replay mirrors
//! `PatternFusion::run` step for step — the same seed draws, the same
//! per-seed RNG derivation, the same merge and archive rules — and its
//! output must equal `Engine::mine`'s exactly.

use crate::measure::Report;
use crate::workload::mix;
use cfp_core::ball::{BallIndex, BallQueryStats, PoolDelta};
use cfp_core::fusion::{fuse_ball, FusionParams};
use cfp_core::pool::{materialize, rank_rows, PoolStore};
use cfp_core::{ball_radius, FusionConfig, Pattern};
use cfp_itemset::{read_fimi, ClosureOperator, VerticalIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// Live candidates per ball-scan segment, as the engine cuts them.
const SCAN_TASK_CANDIDATES: usize = 2048;

/// One closed span: a layer call, its parent, and when it ran (seconds
/// since the tracer started).
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// Spans held in memory and summarized when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn enter(&mut self, name: &'static str) {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
    }

    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end = self.now();
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Self time per span name: its duration minus the part its children
    /// cover, summed over every span of that name.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(child) {
            let own = s.end - s.start - c;
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// Duration of the named root span and the share of it its children
    /// cover.
    pub fn coverage(&self, root: &'static str) -> (f64, f64) {
        let (id, r) = self
            .spans
            .iter()
            .enumerate()
            .find(|(_, s)| s.name == root && s.parent.is_none())
            .expect("root span recorded");
        let total = r.end - r.start;
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end - s.start)
            .sum();
        (total, covered / total)
    }
}

/// The program's own counters gathered along the replay.
#[derive(Default)]
pub struct Counters {
    pub initial_rows: usize,
    pub iterations: usize,
    pub ball: BallQueryStats,
    pub fusion_calls: u64,
    pub members_in: u64,
    pub patterns_out: u64,
    pub tombstoned: u64,
    pub inserted: u64,
    pub compactions: u64,
}

/// Parses `fimi` and mines it under `cfg` on one thread, recording spans
/// into `tr` under a `replay` root span.
pub fn replay(fimi: &Path, cfg: &FusionConfig, tr: &mut Tracer) -> (Vec<Pattern>, Counters) {
    let mut n = Counters::default();
    tr.enter("replay");
    let db = tr.span("io.parse", || {
        read_fimi(fimi).expect("reading the workload's FIMI file")
    });
    let vindex = tr.span("vertical.build", || VerticalIndex::new(&db));
    let (slab, _) = tr.span("initial_pool.mine", || {
        cfp_miners::initial_pool_slab(&db, cfg.min_count, cfg.pool_max_len, 1)
    });
    let mut store = PoolStore::new(slab);
    let mut rows: Vec<u32> = (0..store.base_len() as u32).collect();
    n.initial_rows = rows.len();
    let params = FusionParams {
        tau: cfg.tau,
        min_count: cfg.min_count,
        attempts: cfg.attempts_per_seed,
        max_results: cfg.max_results_per_seed,
    };
    let radius = ball_radius(cfg.tau);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut archive: Vec<u32> = Vec::new();
    let mut index = tr.span("ball.build", || {
        BallIndex::build_with_threads(&store, &rows, radius, cfg.ball_pivots, 1)
    });
    let closure = ClosureOperator::new(&vindex);

    for iteration in 0..cfg.max_iterations {
        if rows.is_empty() {
            break;
        }
        n.iterations += 1;
        let n_seeds = cfg.k.min(rows.len()).max(1);
        let seeds = tr.span("algorithm.seeds", || {
            rand::seq::index::sample(&mut rng, rows.len(), n_seeds).into_vec()
        });
        let mut iter_stats = BallQueryStats::default();
        let mut per_seed: Vec<Vec<Pattern>> = Vec::with_capacity(seeds.len());
        for (order, &seed_pos) in seeds.iter().enumerate() {
            let ball = tr.span("ball.scan", || {
                let query = index.query(seed_pos);
                query.account(&mut iter_stats);
                let mut members = Vec::new();
                for seg in query.segments(SCAN_TASK_CANDIDATES) {
                    query.scan(&store, seg, &mut members, &mut iter_stats);
                }
                members.sort_unstable();
                members
            });
            // SplitMix64 of (seed, iteration, position), as the engine
            // derives each seed's RNG.
            let mut seed_rng = StdRng::seed_from_u64(mix(
                cfg.seed
                    .wrapping_add((iteration as u64) << 32)
                    .wrapping_add(order as u64),
                0,
            ));
            let ball = if ball.len() > cfg.max_ball_size {
                tr.span("algorithm.subsample", || {
                    rand::seq::index::sample(&mut seed_rng, ball.len(), cfg.max_ball_size)
                        .into_iter()
                        .map(|i| ball[i])
                        .collect()
                })
            } else {
                ball
            };
            let mut out = tr.span("fusion.fuse", || {
                fuse_ball(&store, &rows, seed_pos, &ball, &params, &mut seed_rng)
            });
            n.fusion_calls += 1;
            n.members_in += ball.len() as u64;
            n.patterns_out += out.len() as u64;
            if cfg.closure_step {
                tr.span("closure.apply", || {
                    for p in &mut out {
                        p.items = closure.closure_of_tidset(&p.tids);
                    }
                });
            }
            per_seed.push(out);
        }
        n.ball.merge(&iter_stats);

        let next = tr.span("pool.intern", || {
            let mut next: Vec<u32> = Vec::new();
            let mut seen: HashSet<u32> = HashSet::new();
            for p in per_seed.into_iter().flatten() {
                let row = store.intern(&p);
                if seen.insert(row) {
                    next.push(row);
                }
            }
            next
        });
        if cfg.archive {
            tr.span("pool.rank", || {
                archive.extend(next.iter().copied());
                rank_rows(&store, &mut archive);
                archive.truncate(cfg.archive_cap.unwrap_or(cfg.k));
            });
        }
        let stagnated = next.len() == rows.len() && {
            let mut a = rows.clone();
            let mut b = next.clone();
            a.sort_unstable();
            b.sort_unstable();
            a == b
        };
        let continuing = next.len() > cfg.k && !stagnated && iteration + 1 < cfg.max_iterations;
        if continuing {
            let m = tr.span("algorithm.index_maint", || {
                index.adapt_pivot_target(&iter_stats);
                let delta = PoolDelta::compute(&rows, &next, store.len_rows());
                index.apply_delta(&store, &next, &delta, 1)
            });
            n.tombstoned += m.tombstoned;
            n.inserted += m.inserted;
        }
        rows = next;
        if rows.len() <= cfg.k || stagnated {
            break;
        }
    }
    n.compactions = index.compactions();

    tr.span("pool.rank", || {
        if cfg.archive {
            let cap = rows.len().max(cfg.archive_cap.unwrap_or(cfg.k));
            rows.extend(archive);
            rank_rows(&store, &mut rows);
            rows.truncate(cap);
        } else {
            rank_rows(&store, &mut rows);
        }
    });
    let patterns = tr.span("pool.materialize", || materialize(&store, &rows));
    tr.exit();
    (patterns, n)
}

/// Per-layer figures of one replay: each layer's self time and the
/// program's counters.
pub fn report(tr: &Tracer, n: &Counters, out: &mut Report) {
    let self_times = tr.self_times();
    let time = |name: &str| {
        self_times
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, t)| *t)
    };
    out.put("io.parse_s", time("io.parse"), "s");
    out.put("vertical.build_s", time("vertical.build"), "s");
    out.put("initial_pool.mine_s", time("initial_pool.mine"), "s");
    out.put("initial_pool.rows", n.initial_rows as f64, "count");
    out.put("ball.build_s", time("ball.build"), "s");
    out.put("ball.scan_s", time("ball.scan"), "s");
    out.put("ball.pairs", n.ball.pairs_total as f64, "count");
    out.put(
        "ball.cardinality_pruned",
        n.ball.cardinality_pruned as f64,
        "count",
    );
    out.put("ball.pivot_pruned", n.ball.pivot_pruned as f64, "count");
    out.put("ball.exact_checked", n.ball.exact_checked as f64, "count");
    out.put("ball.members", n.ball.ball_members as f64, "count");
    out.put("algorithm.subsample_s", time("algorithm.subsample"), "s");
    out.put("fusion.fuse_s", time("fusion.fuse"), "s");
    out.put("fusion.calls", n.fusion_calls as f64, "count");
    out.put("fusion.members_in", n.members_in as f64, "count");
    out.put("fusion.patterns_out", n.patterns_out as f64, "count");
    out.put("closure.apply_s", time("closure.apply"), "s");
    out.put("pool.intern_s", time("pool.intern"), "s");
    out.put("pool.rank_s", time("pool.rank"), "s");
    out.put("algorithm.iterations", n.iterations as f64, "count");
    out.put(
        "algorithm.index_maint_s",
        time("algorithm.index_maint"),
        "s",
    );
    out.put("ball.tombstoned", n.tombstoned as f64, "count");
    out.put("ball.inserted", n.inserted as f64, "count");
    out.put("ball.compactions", n.compactions as f64, "count");
}
