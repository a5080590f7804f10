//! Output checks computed apart from the engine: supports recounted from the
//! raw transactions, closures intersected by hand, planted patterns matched
//! in external labels, rankings compared with cold mines.

use crate::workload::{LabeledPattern, Planted};
use cfp_core::Pattern;
use cfp_itemset::TransactionDb;

/// Collects check failures; a run with any failure reports `correct: false`.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
    pub passed: u64,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The transactions containing every item of `items` (internal ids of
/// `db`), by a scan over the raw rows.
pub fn recount(db: &TransactionDb, items: &[u32]) -> Vec<usize> {
    db.transactions()
        .iter()
        .enumerate()
        .filter(|(_, t)| items.iter().all(|&i| t.contains(i)))
        .map(|(tid, _)| tid)
        .collect()
}

/// The items shared by every transaction in `tids`.
fn intersection(db: &TransactionDb, tids: &[usize]) -> Vec<u32> {
    let Some((&first, rest)) = tids.split_first() else {
        return Vec::new();
    };
    let mut common: Vec<u32> = db.transaction(first).items().to_vec();
    for &t in rest {
        let row = db.transaction(t);
        common.retain(|&i| row.contains(i));
    }
    common
}

/// Checks a mined result over `db`: every support set equals its recount
/// and reaches `min_count`, and — with the closure step on — every itemset
/// is the intersection of its transactions.
pub fn mined_result(
    checks: &mut Checks,
    what: &str,
    db: &TransactionDb,
    patterns: &[Pattern],
    min_count: usize,
    closed: bool,
) {
    checks.expect(!patterns.is_empty(), || format!("{what}: no patterns"));
    for p in patterns {
        let tids: Vec<usize> = p.tids.iter().collect();
        let recounted = recount(db, p.items.items());
        checks.expect(recounted == tids, || {
            format!(
                "{what}: pattern of {} items reports support {} but {} transactions contain it",
                p.items.len(),
                tids.len(),
                recounted.len()
            )
        });
        checks.expect(tids.len() >= min_count, || {
            format!(
                "{what}: support {} below the minimum {min_count}",
                tids.len()
            )
        });
        if closed {
            let common = intersection(db, &tids);
            checks.expect(common == p.items.items(), || {
                format!(
                    "{what}: a {}-item pattern is not closed ({} items shared by its transactions)",
                    p.items.len(),
                    common.len()
                )
            });
        }
    }
}

/// Share of the planted colossal patterns returned with exactly their
/// planted support set.
pub fn recall(planted: &[Planted], result: &[LabeledPattern]) -> f64 {
    let found = planted
        .iter()
        .filter(|pl| {
            result
                .iter()
                .any(|r| r.labels == pl.labels && r.tids == pl.tids)
        })
        .count();
    found as f64 / planted.len() as f64
}

/// Two rankings agree pattern for pattern, in order.
pub fn same_ranking(
    checks: &mut Checks,
    what: &str,
    got: &[LabeledPattern],
    want: &[LabeledPattern],
) {
    let first_diff = got.iter().zip(want).position(|(a, b)| a != b);
    checks.expect(got.len() == want.len() && first_diff.is_none(), || {
        format!(
            "{what}: {} patterns vs {} expected, first difference at rank {:?}",
            got.len(),
            want.len(),
            first_diff
        )
    });
}
