//! Deterministic weighted fair-share scheduling across campaigns.
//!
//! Every campaign carries a priority *weight* and a count of the
//! cells it has been *served*; the next lease goes to the eligible
//! campaign with the smallest virtual time `served / weight`. A
//! weight-3 campaign therefore receives three cells for every one a
//! weight-1 campaign gets, no campaign with pending work starves (its
//! virtual time stands still while others grow), and the choice is a
//! pure function of (weights, served counts) — no clocks, no
//! randomness — so a coordinator restored from a checkpoint schedules
//! exactly as the one that died would have. The daemon keeps both
//! numbers on its campaign records; this module holds only the rule.

/// Pick the next campaign to serve among `eligible` `(id, weight,
/// served)` triples (campaigns with pending cells, weights ≥ 1):
/// smallest `served / weight`, ties broken by lowest id so the choice
/// is total and deterministic whatever the input order. The division
/// never happens — `a.served/a.weight < b.served/b.weight` is compared
/// as `a.served * b.weight < b.served * a.weight` in u128, which is
/// exact.
pub fn pick(eligible: impl IntoIterator<Item = (u64, u64, u64)>) -> Option<u64> {
    let mut best: Option<(u64, u64, u64)> = None;
    for (id, weight, served) in eligible {
        let beats = match best {
            None => true,
            Some((b_id, b_weight, b_served)) => {
                let (lhs, rhs) = (
                    served as u128 * b_weight as u128,
                    b_served as u128 * weight as u128,
                );
                lhs < rhs || (lhs == rhs && id < b_id)
            }
        };
        if beats {
            best = Some((id, weight, served));
        }
    }
    best.map(|(id, _, _)| id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// `(id, weight, served)` rows in id order, as the daemon's
    /// campaign table yields them, with nothing served yet.
    fn table(weights: &[(u64, u64)]) -> Vec<(u64, u64, u64)> {
        weights.iter().map(|&(id, w)| (id, w, 0)).collect()
    }

    /// Serve one cell to `id`.
    fn charge(t: &mut [(u64, u64, u64)], id: u64) {
        t.iter_mut().find(|row| row.0 == id).unwrap().2 += 1;
    }

    /// Drive the rule one cell at a time and count who got what.
    fn serve_cells(t: &mut [(u64, u64, u64)], cells: usize) -> BTreeMap<u64, u64> {
        let mut counts = BTreeMap::new();
        for _ in 0..cells {
            let id = pick(t.iter().copied()).expect("some campaign is eligible");
            charge(t, id);
            *counts.entry(id).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn weights_split_service_proportionally() {
        let counts = serve_cells(&mut table(&[(1, 2), (2, 1)]), 300);
        assert_eq!(counts[&1], 200);
        assert_eq!(counts[&2], 100);
    }

    #[test]
    fn equal_weights_round_robin() {
        let counts = serve_cells(&mut table(&[(1, 1), (2, 1), (3, 1)]), 99);
        assert_eq!(counts[&1], 33);
        assert_eq!(counts[&2], 33);
        assert_eq!(counts[&3], 33);
    }

    #[test]
    fn low_weight_campaigns_are_not_starved() {
        // Even against a weight-1000 campaign, the weight-1 campaign
        // keeps receiving service at its (small) proportional rate.
        let counts = serve_cells(&mut table(&[(1, 1000), (2, 1)]), 2002);
        assert_eq!(counts[&2], 2, "weight-1 campaign got its share");
        assert_eq!(counts[&1], 2000);
    }

    #[test]
    fn ineligible_campaigns_are_skipped() {
        let mut t = table(&[(1, 10), (2, 1)]);
        // Campaign 1 has nothing pending: everything goes to 2.
        for _ in 0..5 {
            assert_eq!(pick(t.iter().copied().filter(|row| row.0 == 2)), Some(2));
            charge(&mut t, 2);
        }
        // Campaign 1 becomes eligible again and, being far behind in
        // virtual time, is picked immediately.
        assert_eq!(pick(t.iter().copied()), Some(1));
        // Nothing eligible → no pick.
        assert_eq!(pick([]), None);
    }

    #[test]
    fn ties_break_toward_the_lowest_id() {
        assert_eq!(pick([(7, 1, 0), (3, 1, 0)]), Some(3));
        assert_eq!(pick([(3, 1, 0), (7, 1, 0)]), Some(3));
        // Equal virtual time at different weights is a tie too.
        assert_eq!(pick([(5, 2, 4), (4, 1, 2)]), Some(4));
    }

    #[test]
    fn restore_resumes_historical_fairness() {
        // A table rebuilt from the served counts a checkpoint holds
        // schedules in lockstep with the live one it was taken from.
        let mut live = table(&[(1, 2), (2, 1)]);
        serve_cells(&mut live, 150);
        let mut restored = live.clone();
        for _ in 0..150 {
            let a = pick(live.iter().copied()).unwrap();
            let b = pick(restored.iter().copied()).unwrap();
            assert_eq!(a, b);
            charge(&mut live, a);
            charge(&mut restored, b);
        }
    }

    #[test]
    fn removed_campaigns_stop_receiving_service() {
        let mut t = table(&[(1, 1), (2, 1)]);
        serve_cells(&mut t, 4);
        // Evicted, or a submit rolled back: its row leaves the table.
        t.retain(|row| row.0 != 1);
        let counts = serve_cells(&mut t, 10);
        assert_eq!(counts.get(&1), None);
        assert_eq!(counts[&2], 10);
    }
}
