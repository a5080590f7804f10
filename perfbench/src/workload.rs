//! The three workloads: generated inputs, the mining configuration each is
//! run under, the planted colossal patterns the checks score against, and
//! the seed-drawn append batches.

use cfp_core::{FusionConfig, Pattern};
use cfp_datagen::{all_like, diag_plus, replace_like, AllLikeConfig, ReplaceConfig};
use cfp_itemset::{MinSupport, TransactionDb};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

pub const NAMES: [&str; 3] = ["replace", "all", "diag"];

/// Diag-plus shape: `DIAG_N` diagonal rows, then `DIAG_EXTRA_ROWS` copies of
/// a block of `DIAG_EXTRA_ITEMS` items (the colossal pattern).
const DIAG_N: u32 = 120;
const DIAG_EXTRA_ROWS: u32 = 60;
const DIAG_EXTRA_ITEMS: u32 = 119;

/// A planted colossal pattern in external labels.
pub struct Planted {
    pub labels: Vec<u32>,
    pub tids: Vec<usize>,
}

pub struct Workload {
    pub name: &'static str,
    /// The generated database, handed to the program only as FIMI text.
    pub db: TransactionDb,
    pub planted: Vec<Planted>,
    pub config: FusionConfig,
    /// Rows the append batches copy their transactions from, and how many
    /// transactions each batch holds.
    pub append_rows: Range<usize>,
    pub append_txns: usize,
    /// The master seed every draw of the benchmark derives from.
    pub seed: u64,
}

/// SplitMix64: derives independent streams from the one `--seed`. Stream 0
/// is the plain SplitMix64 finalizer of `seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The engine's own RNG seed, fixed like K and τ (`cfp mine`'s default):
/// the work of a mine then depends on the generated data alone, so runs
/// with different `--seed`s measure comparable work.
const ENGINE_SEED: u64 = 2007;

pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
    let data_seed = mix(seed, 2);
    // One shard: the sharded engine is out of scope here, whatever
    // CFP_SHARDS says.
    let base = |k: usize, min_count: usize, pool_len: usize| {
        FusionConfig::new(k, min_count)
            .with_pool_max_len(pool_len)
            .with_seed(ENGINE_SEED)
            .with_shards(1)
    };
    let (name, db, planted, config, append_rows, append_txns) = match name {
        "replace" => {
            let data = replace_like(&ReplaceConfig {
                seed: data_seed,
                ..ReplaceConfig::default()
            });
            let sigma = MinSupport::relative(0.03, data.db.len())
                .map_err(|e| e.to_string())?
                .count();
            let planted = data
                .profiles
                .iter()
                .map(|p| planted(&data.db, p.items.items(), p.rows.iter()))
                .collect();
            let rows = 0..data.db.len();
            ("replace", data.db, planted, base(100, sigma, 3), rows, 3)
        }
        "all" => {
            let data = all_like(&AllLikeConfig {
                seed: data_seed,
                ..AllLikeConfig::default()
            });
            let planted = data
                .colossal
                .iter()
                .map(|p| planted(&data.db, p.items.items(), p.rows.iter()))
                .collect();
            let rows = 0..data.db.len();
            let config = base(100, 30, 2).with_closure_step(true);
            // One sample per batch: a row is 2.6% of this database.
            ("all", data.db, planted, config, rows, 1)
        }
        "diag" => {
            let db = diag_plus(DIAG_N, DIAG_EXTRA_ROWS, DIAG_EXTRA_ITEMS);
            let block = Planted {
                labels: (DIAG_N + 1..=DIAG_N + DIAG_EXTRA_ITEMS).collect(),
                tids: (DIAG_N as usize..(DIAG_N + DIAG_EXTRA_ROWS) as usize).collect(),
            };
            let rows = DIAG_N as usize..db.len();
            ("diag", db, vec![block], base(100, 60, 2), rows, 3)
        }
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {})",
                NAMES.join(", ")
            ))
        }
    };
    Ok(Workload {
        name,
        db,
        planted,
        config,
        append_rows,
        append_txns,
        seed,
    })
}

fn planted(db: &TransactionDb, items: &[u32], rows: impl Iterator<Item = usize>) -> Planted {
    let mut labels = db.item_map().externalize(items);
    labels.sort_unstable();
    Planted {
        labels,
        tids: rows.collect(),
    }
}

impl Workload {
    /// The database as FIMI text (external labels), the program's input.
    pub fn fimi(&self) -> Vec<u8> {
        let mut out = Vec::new();
        cfp_itemset::write_fimi(&self.db, &mut out).expect("writing FIMI to memory");
        out
    }

    /// `batches` append batches of `append_txns` transactions each, in
    /// external labels, copied from seed-drawn rows of `append_rows`.
    pub fn append_batches(&self, batches: usize) -> Vec<Vec<Vec<u32>>> {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, 3));
        (0..batches)
            .map(|_| {
                (0..self.append_txns)
                    .map(|_| {
                        let row = rng.gen_range(self.append_rows.clone());
                        self.db
                            .item_map()
                            .externalize(self.db.transaction(row).items())
                    })
                    .collect()
            })
            .collect()
    }

    pub fn describe(&self) -> String {
        let c = &self.config;
        format!(
            "{}: {} transactions x {} items, min count {}, pool length <= {}, K = {}, tau = {}, closure {}, seed {}",
            self.name,
            self.db.len(),
            self.db.num_items(),
            c.min_count,
            c.pool_max_len,
            c.k,
            c.tau,
            if c.closure_step { "on" } else { "off" },
            self.seed
        )
    }
}

/// A pattern in external labels (sorted) with its support set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LabeledPattern {
    pub labels: Vec<u32>,
    pub tids: Vec<usize>,
}

pub fn label(db: &TransactionDb, patterns: &[Pattern]) -> Vec<LabeledPattern> {
    patterns
        .iter()
        .map(|p| {
            let mut labels = db.item_map().externalize(p.items.items());
            labels.sort_unstable();
            LabeledPattern {
                labels,
                tids: p.tids.iter().collect(),
            }
        })
        .collect()
}
