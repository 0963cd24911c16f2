//! The seeded request mix of the `serve` workload.
//!
//! Four classes, assigned by the generator:
//!
//! - `hit` — a repeat from a hot pool primed in set-up;
//! - `miss_eval` — a fresh `eval` point at the primed 64 kB capacity, with
//!   continuous clock, carbon intensity, hours and lifetime, so the core
//!   memos are warm and only the evaluation runs;
//! - `miss_mc` — a fresh-seed `mc` query;
//! - `miss_org` — an `eval` at a capacity the server has not seen, which
//!   needs a new eDRAM characterization (SPICE) per technology.
//!
//! Parameters come only from the servable, timing-feasible region (clock
//! at most 500 MHz, where every even capacity closes timing for both
//! technologies), so every request has an `ok` answer.

use crate::util::SplitMix64;
use ppatc_workloads::Workload;
use std::collections::BTreeSet;

/// Request classes, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Repeat of a primed hot-pool query.
    Hit,
    /// Fresh `eval` point over warm memos.
    MissEval,
    /// Fresh-seed Monte-Carlo query.
    MissMc,
    /// `eval` at an unseen capacity.
    MissOrg,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 4] = [Class::Hit, Class::MissEval, Class::MissMc, Class::MissOrg];

    /// The metric-name form.
    pub fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::MissEval => "miss_eval",
            Class::MissMc => "miss_mc",
            Class::MissOrg => "miss_org",
        }
    }
}

/// Hot-pool size: well inside the server's 2048-entry response cache.
pub const HOT_POOL: usize = 256;
/// Requests per block. Each block holds every class in its exact share, in
/// a seeded order, so class counts never drift between runs or seeds.
pub const BLOCK: usize = 1000;
/// Class shares per block, in [`Class::ALL`] order.
const SHARES: [usize; 4] = [750, 192, 50, 8];
const _: () = assert!(SHARES[0] + SHARES[1] + SHARES[2] + SHARES[3] == BLOCK);
/// Samples per `miss_mc` query.
const MC_SAMPLES: usize = 2048;
/// The primed capacity every non-`miss_org` query uses, kB.
const PRIMED_KB: u32 = 64;

/// One generated request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// The class the generator assigned.
    pub class: Class,
    /// The request line.
    pub line: String,
}

/// The generator.
#[derive(Clone, Debug)]
pub struct Mix {
    g: SplitMix64,
    workloads: Vec<&'static str>,
    hot: Vec<String>,
    capacities: Vec<u32>,
    next_capacity: usize,
    block: Vec<Class>,
}

impl Mix {
    /// The mix for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut g = SplitMix64::new(seed, 0x5E);
        let workloads: Vec<&'static str> = Workload::suite().iter().map(Workload::name).collect();
        let mut seen = BTreeSet::new();
        let mut hot = Vec::with_capacity(HOT_POOL);
        while hot.len() < HOT_POOL {
            // Whole-number parameters: disjoint from the continuous misses.
            let line = format!(
                "eval workload={} f_clk_mhz={} ci_g_per_kwh={} hours_per_day={} lifetime_months={}",
                workloads[g.below(workloads.len())],
                100 + 25 * g.below(17),
                50 + 10 * g.below(76),
                1 + g.below(12),
                6 + 6 * g.below(10),
            );
            if seen.insert(line.clone()) {
                hot.push(line);
            }
        }
        let mut capacities: Vec<u32> = (1..=512)
            .map(|k| 2 * k)
            .filter(|&kb| kb != PRIMED_KB)
            .collect();
        g.shuffle(&mut capacities);
        Self {
            g,
            workloads,
            hot,
            capacities,
            next_capacity: 0,
            block: Vec::with_capacity(BLOCK),
        }
    }

    /// What set-up sends before timing: one `eval` per suite workload (the
    /// ISS run of each), then every hot-pool query once.
    pub fn priming(&self) -> Vec<String> {
        self.workloads
            .iter()
            .map(|w| format!("eval workload={w}"))
            .chain(self.hot.iter().cloned())
            .collect()
    }

    /// Capacities still unused by `miss_org`.
    pub fn capacities_left(&self) -> usize {
        self.capacities.len() - self.next_capacity
    }

    fn design_point(&mut self) -> String {
        format!(
            "workload={} f_clk_mhz={:.6} ci_g_per_kwh={:.6} hours_per_day={:.6} lifetime_months={:.6}",
            self.workloads[self.g.below(self.workloads.len())],
            self.g.uniform(50.0, 500.0),
            self.g.uniform(20.0, 1000.0),
            self.g.uniform(0.5, 24.0),
            self.g.uniform(6.0, 120.0),
        )
    }

    /// Deals the next block: `miss_org` slots one per equal stretch of the
    /// block, at a seeded offset in its first half, so two characterizations
    /// never queue back to back on one connection; the other classes in a
    /// seeded order around them.
    fn refill_block(&mut self) {
        let mut rest: Vec<Class> = Class::ALL[..3]
            .iter()
            .zip(&SHARES)
            .flat_map(|(&c, &n)| std::iter::repeat_n(c, n))
            .collect();
        self.g.shuffle(&mut rest);
        let org = SHARES[3];
        let stretch = BLOCK / org;
        let org_slots: Vec<usize> = (0..org)
            .map(|i| i * stretch + self.g.below(stretch / 2))
            .collect();
        let mut rest = rest.into_iter();
        self.block = (0..BLOCK)
            .map(|k| {
                if org_slots.contains(&k) {
                    Class::MissOrg
                } else {
                    rest.next().expect("one class per remaining slot")
                }
            })
            .collect();
    }

    /// The next request. Once every capacity has been used, a `miss_org`
    /// slot becomes a `miss_eval` (a run sized as documented never gets
    /// there).
    pub fn next_request(&mut self) -> Request {
        if self.block.is_empty() {
            self.refill_block();
        }
        let class = match self.block.pop().expect("a refilled block is not empty") {
            Class::MissOrg if self.capacities_left() == 0 => Class::MissEval,
            class => class,
        };
        let line = match class {
            Class::Hit => self.hot[self.g.below(self.hot.len())].clone(),
            Class::MissEval => format!("eval capacity_kb={PRIMED_KB} {}", self.design_point()),
            Class::MissMc => {
                let seed = self.g.next_u64();
                format!(
                    "mc samples={MC_SAMPLES} seed={seed} capacity_kb={PRIMED_KB} {}",
                    self.design_point()
                )
            }
            Class::MissOrg => {
                let kb = self.capacities[self.next_capacity];
                self.next_capacity += 1;
                format!("eval capacity_kb={kb} {}", self.design_point())
            }
        };
        Request { class, line }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(seed: u64, n: usize) -> Vec<Request> {
        let mut m = Mix::new(seed);
        (0..n).map(|_| m.next_request()).collect()
    }

    #[test]
    fn a_seed_repeats_its_mix() {
        assert_eq!(draw(7, 2000), draw(7, 2000));
        assert_eq!(Mix::new(7).priming(), Mix::new(7).priming());
    }

    #[test]
    fn another_seed_gives_another_mix() {
        assert_ne!(draw(7, 2000), draw(8, 2000));
        assert_ne!(Mix::new(7).priming(), Mix::new(8).priming());
    }

    #[test]
    fn classes_follow_their_shares_and_misses_are_distinct() {
        let reqs = draw(3, 20_000);
        let count = |c| reqs.iter().filter(|r| r.class == c).count();
        assert_eq!(count(Class::Hit), 15_000);
        assert_eq!(count(Class::MissEval), 3_840);
        assert_eq!(count(Class::MissMc), 1_000);
        assert_eq!(count(Class::MissOrg), 160);
        let misses: BTreeSet<&str> = reqs
            .iter()
            .filter(|r| r.class != Class::Hit)
            .map(|r| r.line.as_str())
            .collect();
        assert_eq!(misses.len(), reqs.len() - count(Class::Hit));
        let hot: BTreeSet<String> = Mix::new(3).priming().into_iter().collect();
        assert!(misses.iter().all(|m| !hot.contains(*m)));
    }

    #[test]
    fn unseen_capacities_run_out_into_plain_misses() {
        let mut m = Mix::new(1);
        let orgs = (0..100_000)
            .filter(|_| m.next_request().class == Class::MissOrg)
            .count();
        assert_eq!(orgs, 511);
        assert_eq!(m.capacities_left(), 0);
    }
}
