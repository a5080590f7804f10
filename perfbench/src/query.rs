//! The serving side: launching the daemon, the seed-drawn read mix with its
//! brute-force expected answers, and the closed request loop.
//!
//! Replies and `items=` fields speak the daemon's dense internal item ids;
//! the expected answers are built over the same parsed database, so the two
//! compare directly. Rankings are compared in external labels.

use crate::check::recount;
use crate::workload::{label, mix, LabeledPattern};
use crate::Ops;
use cfp_core::{spawn_query_server, FusionConfig, Pattern, QueryClient, ServeOptions, ServeReply};
use cfp_itemset::{TidSet, TransactionDb};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const VERBS: [&str; 4] = ["topk", "lookup", "contain", "similar"];
/// Client connections of the closed loop (the box has two cores).
pub const CONNECTIONS: usize = 2;
/// Distinct requests drawn per verb.
const QUERIES_PER_VERB: usize = 256;
/// The daemon's default cap on `contain` output rows.
const CONTAIN_LIMIT: usize = 32;
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// A pattern line of a reply, or of an expected reply.
#[derive(Debug, PartialEq, Eq)]
struct Line {
    items: Vec<u32>,
    support: usize,
    tids: Option<Vec<usize>>,
}

struct Query {
    fields: Vec<(&'static str, String)>,
    /// The verb's count field and its expected value.
    count: (&'static str, usize),
    lines: Vec<Line>,
}

/// The read mix: [`QUERIES_PER_VERB`] requests per verb with their
/// expected answers.
pub struct QuerySet {
    per_verb: [Vec<Query>; 4],
}

/// A served pattern with its support set recounted from the raw rows.
struct Served {
    items: Vec<u32>,
    tids: Vec<usize>,
}

fn join<T: ToString>(xs: &[T]) -> String {
    xs.iter().map(T::to_string).collect::<Vec<_>>().join(",")
}

/// Jaccard distance of two sorted tid lists (Definition 6), and the ball
/// radius r(τ) = 1 − 1/(2/τ − 1) of Theorem 2, both written out here rather
/// than borrowed from the engine.
fn jaccard(a: &[usize], b: &[usize]) -> f64 {
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        1.0 - inter as f64 / union as f64
    }
}

fn radius(tau: f64) -> f64 {
    1.0 - 1.0 / (2.0 / tau - 1.0)
}

impl QuerySet {
    /// Draws the read mix from `served` (the launch ranking, internal ids of
    /// `db`) and answers every request by brute force over it.
    pub fn build(db: &TransactionDb, served: &[Pattern], tau: f64, seed: u64) -> Self {
        let served: Vec<Served> = served
            .iter()
            .map(|p| Served {
                items: p.items.items().to_vec(),
                tids: recount(db, p.items.items()),
            })
            .collect();
        let line = |s: &Served| Line {
            items: s.items.clone(),
            support: s.tids.len(),
            tids: None,
        };
        let mut rng = StdRng::seed_from_u64(mix(seed, 4));
        let n = served.len();
        let r = radius(tau);
        let mut per_verb: [Vec<Query>; 4] = Default::default();
        for _ in 0..QUERIES_PER_VERB {
            let k = rng.gen_range(1..=20usize);
            per_verb[0].push(Query {
                fields: vec![("k", k.to_string())],
                count: ("count", k.min(n)),
                lines: served.iter().take(k).map(line).collect(),
            });

            let p = &served[rng.gen_range(0..n)];
            per_verb[1].push(Query {
                fields: vec![("items", join(&p.items))],
                count: ("found", 1),
                lines: vec![Line {
                    tids: Some(p.tids.clone()),
                    ..line(p)
                }],
            });

            let p = &served[rng.gen_range(0..n)];
            let take = rng.gen_range(1..=p.items.len().min(2));
            let mut items: Vec<u32> = rand::seq::index::sample(&mut rng, p.items.len(), take)
                .into_iter()
                .map(|i| p.items[i])
                .collect();
            items.sort_unstable();
            let matching: Vec<&Served> = served
                .iter()
                .filter(|s| items.iter().all(|i| s.items.contains(i)))
                .collect();
            per_verb[2].push(Query {
                fields: vec![("items", join(&items))],
                count: ("matched", matching.len()),
                lines: matching
                    .iter()
                    .take(CONTAIN_LIMIT)
                    .map(|s| line(s))
                    .collect(),
            });

            // A served support set with one transaction toggled: an
            // external tid-set near, but usually not on, a pool member.
            let p = &served[rng.gen_range(0..n)];
            let flip = rng.gen_range(0..db.len());
            let mut tids: Vec<usize> = p.tids.iter().copied().filter(|&t| t != flip).collect();
            if tids.len() == p.tids.len() {
                tids.push(flip);
                tids.sort_unstable();
            }
            if tids.is_empty() {
                tids = p.tids.clone();
            }
            let ball: Vec<Line> = served
                .iter()
                .filter(|s| jaccard(&tids, &s.tids) <= r)
                .map(line)
                .collect();
            per_verb[3].push(Query {
                fields: vec![("tids", join(&tids))],
                count: ("count", ball.len()),
                lines: ball,
            });
        }
        Self { per_verb }
    }

    /// Sends request `i` of verb `v`; `Err(_)` is a failed request.
    fn send(&self, client: &mut QueryClient, v: usize, i: usize) -> Result<ServeReply, String> {
        let fields: Vec<(&str, &str)> = self.per_verb[v][i]
            .fields
            .iter()
            .map(|(k, s)| (*k, s.as_str()))
            .collect();
        client.request(VERBS[v], &fields).map_err(|e| e.to_string())
    }

    /// Checks `reply` against the expected answer to request `i` of verb
    /// `v`; `Err(_)` describes a wrong answer.
    fn check(&self, v: usize, i: usize, reply: &ServeReply) -> Result<(), String> {
        let q = &self.per_verb[v][i];
        check_reply(q, reply).map_err(|e| format!("{} {:?}: {e}", VERBS[v], q.fields))
    }

    /// Mean reply size over one pass of every distinct request — a
    /// deterministic figure, unlike byte totals of a timed loop.
    pub fn reply_bytes(&self, client: &mut QueryClient) -> Result<f64, String> {
        let (mut bytes, mut replies) = (0usize, 0usize);
        for v in 0..VERBS.len() {
            for i in 0..self.per_verb[v].len() {
                let reply = self.send(client, v, i)?;
                self.check(v, i, &reply)?;
                bytes += reply.lines.iter().map(|l| l.len() + 1).sum::<usize>();
                replies += 1;
            }
        }
        Ok(bytes as f64 / replies as f64)
    }
}

fn parse_line(line: &str) -> Option<Line> {
    let mut out = Line {
        items: Vec::new(),
        support: 0,
        tids: None,
    };
    for tok in line.strip_prefix("pattern ")?.split(' ') {
        let (key, value) = tok.split_once('=')?;
        let list = || -> Option<Vec<u64>> { value.split(',').map(|x| x.parse().ok()).collect() };
        match key {
            "items" => out.items = list()?.into_iter().map(|x| x as u32).collect(),
            "support" => out.support = value.parse().ok()?,
            "tids" => out.tids = Some(list()?.into_iter().map(|x| x as usize).collect()),
            _ => return None,
        }
    }
    Some(out)
}

fn check_reply(q: &Query, reply: &ServeReply) -> Result<(), String> {
    let (key, want) = q.count;
    let got = reply.field(key).and_then(|v| v.parse::<usize>().ok());
    if got != Some(want) {
        return Err(format!("{key}={got:?}, expected {want}"));
    }
    let lines: Vec<Option<Line>> = reply.patterns().map(parse_line).collect();
    if lines.len() != q.lines.len() {
        return Err(format!(
            "{} pattern lines, expected {}",
            lines.len(),
            q.lines.len()
        ));
    }
    for (rank, (got, want)) in lines.iter().zip(&q.lines).enumerate() {
        let Some(got) = got else {
            return Err(format!("unparsable pattern line at rank {rank}"));
        };
        let same = got.items == want.items
            && got.support == want.support
            && (want.tids.is_none() || got.tids == want.tids);
        if !same {
            return Err(format!(
                "pattern at rank {rank} differs: {got:?} vs {want:?}"
            ));
        }
    }
    Ok(())
}

/// A running daemon: its address and the serving thread.
pub struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<()>>,
}

/// Spawns the daemon over `db` and waits for its first reply (it answers
/// once its launch mine is done); returns the daemon and that connection.
/// The daemon accepts [`CONNECTIONS`] connections, then exits once both
/// have said goodbye.
pub fn launch(db: TransactionDb, config: FusionConfig) -> Result<(Daemon, QueryClient), String> {
    let opts = ServeOptions::default().with_max_conns(CONNECTIONS);
    let (addr, handle) = spawn_query_server(db, config, opts).map_err(|e| e.to_string())?;
    let mut probe = QueryClient::connect(addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
    probe.request("stats", &[]).map_err(|e| e.to_string())?;
    Ok((Daemon { addr, handle }, probe))
}

impl Daemon {
    pub fn connect(&self) -> Result<QueryClient, String> {
        QueryClient::connect(self.addr, IO_TIMEOUT).map_err(|e| e.to_string())
    }

    /// Says goodbye on every connection and waits for the daemon to exit.
    pub fn stop(self, clients: Vec<QueryClient>) -> Result<(), String> {
        for c in clients {
            c.bye();
        }
        self.handle
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?
            .map_err(|e| e.to_string())
    }
}

/// The full ranking the daemon serves now, with support sets, in labels.
pub fn ranking(
    client: &mut QueryClient,
    db: &TransactionDb,
) -> Result<Vec<LabeledPattern>, String> {
    let reply = client
        .request("topk", &[("k", "1000000"), ("tids", "1")])
        .map_err(|e| e.to_string())?;
    let universe = db.len();
    let mut patterns = Vec::new();
    for l in reply.patterns() {
        let line = parse_line(l).ok_or_else(|| format!("unparsable topk line: {l}"))?;
        let tids = line.tids.unwrap_or_default();
        if tids.iter().any(|&t| t >= universe) {
            return Err(format!(
                "topk reports a tid outside the {universe} transactions"
            ));
        }
        patterns.push(Pattern::new(
            cfp_itemset::Itemset::from_items(&line.items),
            TidSet::from_tids(universe, tids),
        ));
    }
    Ok(label(db, &patterns))
}

/// What the closed loop saw, per verb in [`VERBS`] order.
#[derive(Default)]
pub struct LoopStats {
    pub latencies_ms: [Vec<f64>; 4],
    pub failed: [u64; 4],
    pub wrong: u64,
    pub first_wrong: Option<String>,
    pub elapsed_s: f64,
}

impl LoopStats {
    pub fn requests(&self) -> u64 {
        self.latencies_ms
            .iter()
            .map(|l| l.len() as u64)
            .sum::<u64>()
            + self.failed.iter().sum::<u64>()
    }

    /// Books every request of the loop into `ops`, by verb.
    pub fn count_ops(&self, ops: &mut Ops) {
        for (v, verb) in VERBS.iter().enumerate() {
            for _ in 0..self.latencies_ms[v].len() {
                ops.count(verb, true);
            }
            for _ in 0..self.failed[v] {
                ops.count(verb, false);
            }
        }
    }

    pub fn all_latencies(&self) -> Vec<f64> {
        self.latencies_ms.concat()
    }

    fn absorb(&mut self, other: LoopStats) {
        for v in 0..4 {
            self.latencies_ms[v].extend(&other.latencies_ms[v]);
            self.failed[v] += other.failed[v];
        }
        self.wrong += other.wrong;
        self.first_wrong = self.first_wrong.take().or(other.first_wrong);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }
}

/// Closed loop: each client sends its next request as soon as the previous
/// reply is in, cycling topk → lookup → contain → similar in whole rounds
/// until `seconds` have passed. Returns the clients for reuse.
pub fn closed_loop(
    clients: Vec<QueryClient>,
    queries: &QuerySet,
    seconds: f64,
    seed: u64,
) -> (Vec<QueryClient>, LoopStats) {
    let results: Vec<(QueryClient, LoopStats)> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                scope.spawn(move || {
                    // Each client walks the distinct requests of every verb
                    // in its own seeded order, so a window sends an even mix.
                    let mut rng = StdRng::seed_from_u64(mix(seed, 100 + c as u64));
                    let order: Vec<usize> = (0..QUERIES_PER_VERB).collect();
                    let orders: Vec<Vec<usize>> = (0..VERBS.len())
                        .map(|_| {
                            let mut o = order.clone();
                            o.shuffle(&mut rng);
                            o
                        })
                        .collect();
                    // The served patterns do not change during a window, so
                    // each distinct reply to a request is kept with how often
                    // it came and checked once, after the window: checking
                    // takes neither request time nor window time.
                    let mut distinct: Vec<Vec<Vec<(ServeReply, u64)>>> = (0..VERBS.len())
                        .map(|_| (0..QUERIES_PER_VERB).map(|_| Vec::new()).collect())
                        .collect();
                    let mut stats = LoopStats::default();
                    let t0 = Instant::now();
                    let mut step = 0;
                    while t0.elapsed().as_secs_f64() < seconds {
                        for (v, order) in orders.iter().enumerate() {
                            let i = order[step % QUERIES_PER_VERB];
                            let t = Instant::now();
                            let sent = queries.send(&mut client, v, i);
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            match sent {
                                Ok(reply) => {
                                    stats.latencies_ms[v].push(ms);
                                    let seen = &mut distinct[v][i];
                                    match seen.iter_mut().find(|(r, _)| r.lines == reply.lines) {
                                        Some((_, n)) => *n += 1,
                                        None => seen.push((reply, 1)),
                                    }
                                }
                                Err(e) => {
                                    stats.failed[v] += 1;
                                    stats
                                        .first_wrong
                                        .get_or_insert(format!("request failed: {e}"));
                                }
                            }
                        }
                        step += 1;
                    }
                    stats.elapsed_s = t0.elapsed().as_secs_f64();
                    for (v, per_request) in distinct.iter().enumerate() {
                        for (i, seen) in per_request.iter().enumerate() {
                            for (reply, n) in seen {
                                if let Err(e) = queries.check(v, i, reply) {
                                    stats.wrong += n;
                                    stats.first_wrong.get_or_insert(e);
                                }
                            }
                        }
                    }
                    (client, stats)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = LoopStats::default();
    let mut clients = Vec::new();
    for (client, stats) in results {
        clients.push(client);
        total.absorb(stats);
    }
    (clients, total)
}
