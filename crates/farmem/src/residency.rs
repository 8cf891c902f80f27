//! Host-side residency table: which pages live in host DRAM, with
//! age-based demotion and miss-triggered promotion.
//!
//! The state machine per page (DESIGN.md §13):
//!
//! ```text
//!            touch (hit)                    promote (miss resolved)
//!        ┌───────────────┐             ┌────────────────────────────┐
//!        ▼               │             │                            │
//!   RESIDENT ──demote_aged (idle ≥ age)──▶ FAR (clean)              │
//!        │                                  FAR (dirty: write-back) │
//!        └──evicted by promote at capacity──▶ ──────────────────────┘
//! ```
//!
//! Recency order is kept in a `BTreeMap` keyed by a monotonic touch
//! tick — never by HashMap iteration — so eviction and aging decisions
//! are identical across runs.

use std::collections::{BTreeMap, HashMap};

use simnet::Nanos;

/// A page leaving host DRAM; `dirty` means its contents must be
/// written back to the far tier (clean demotions just drop the copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Demotion {
    /// The demoted page.
    pub page: u64,
    /// Whether the resident copy was modified since promotion.
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tick: u64,
    last_touch: Nanos,
    dirty: bool,
}

/// The host residency table: a bounded set of resident pages with LRU
/// recency, age-based demotion, and hit/miss/demotion accounting.
#[derive(Debug)]
pub struct ResidencyTable {
    cap: usize,
    demote_age: Nanos,
    pages: HashMap<u64, Entry>,
    lru: BTreeMap<u64, u64>,
    next_tick: u64,
    /// Accesses that found the page resident.
    pub hits: u64,
    /// Accesses that missed (and will trigger a promotion).
    pub misses: u64,
    /// Pages demoted (aged out or evicted at capacity).
    pub demotions: u64,
    /// Demotions that carried a dirty page (write-back required).
    pub writebacks: u64,
}

impl ResidencyTable {
    /// An empty table holding at most `cap` resident pages and aging
    /// out entries idle for `demote_age`.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize, demote_age: Nanos) -> Self {
        assert!(cap > 0, "residency capacity must be positive");
        ResidencyTable {
            cap,
            demote_age,
            pages: HashMap::new(),
            lru: BTreeMap::new(),
            next_tick: 0,
            hits: 0,
            misses: 0,
            demotions: 0,
            writebacks: 0,
        }
    }

    /// Resident page count.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Whether `page` is currently resident (no accounting).
    pub fn resident(&self, page: u64) -> bool {
        self.pages.contains_key(&page)
    }

    /// Record an access to `page`. Returns `true` on a hit (recency
    /// and dirtiness updated); on a miss the caller must fetch the
    /// page from the far tier and call [`promote`](Self::promote) when
    /// it lands.
    pub fn touch(&mut self, now: Nanos, page: u64, write: bool) -> bool {
        let tick = self.next_tick;
        match self.pages.get_mut(&page) {
            Some(e) => {
                self.lru.remove(&e.tick);
                e.tick = tick;
                e.last_touch = now;
                e.dirty |= write;
                self.lru.insert(tick, page);
                self.next_tick += 1;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Install `page` as resident (the promotion completing a miss).
    /// If the table is full the least-recently-touched page is evicted
    /// first and pushed onto `out` for the caller to demote. If `page`
    /// is already resident — two misses on it raced before the first
    /// promotion landed — only recency and dirtiness are refreshed.
    pub fn promote(&mut self, now: Nanos, page: u64, write: bool, out: &mut Vec<Demotion>) {
        if let Some(e) = self.pages.get_mut(&page) {
            let tick = self.next_tick;
            self.next_tick += 1;
            self.lru.remove(&e.tick);
            e.tick = tick;
            e.last_touch = now;
            e.dirty |= write;
            self.lru.insert(tick, page);
            return;
        }
        if self.pages.len() >= self.cap {
            let (&tick, &victim) = self.lru.iter().next().expect("full table has an LRU");
            self.lru.remove(&tick);
            let e = self.pages.remove(&victim).expect("LRU entry is resident");
            self.account_demotion(victim, e.dirty, out);
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        self.pages.insert(
            page,
            Entry {
                tick,
                last_touch: now,
                dirty: write,
            },
        );
        self.lru.insert(tick, page);
    }

    /// Demote every resident page idle since before `now - demote_age`,
    /// oldest first, pushing each onto `out`.
    pub fn demote_aged(&mut self, now: Nanos, out: &mut Vec<Demotion>) {
        let cutoff = now.as_nanos().saturating_sub(self.demote_age.as_nanos());
        loop {
            let Some((&tick, &page)) = self.lru.iter().next() else {
                return;
            };
            let e = self.pages[&page];
            if e.last_touch.as_nanos() > cutoff {
                return;
            }
            self.lru.remove(&tick);
            self.pages.remove(&page);
            self.account_demotion(page, e.dirty, out);
        }
    }

    fn account_demotion(&mut self, page: u64, dirty: bool, out: &mut Vec<Demotion>) {
        self.demotions += 1;
        if dirty {
            self.writebacks += 1;
        }
        out.push(Demotion { page, dirty });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> Nanos {
        Nanos::new(n)
    }

    #[test]
    fn miss_then_promote_then_hit() {
        let mut t = ResidencyTable::new(4, ns(100));
        let mut out = Vec::new();
        assert!(!t.touch(ns(1), 7, false));
        t.promote(ns(2), 7, false, &mut out);
        assert!(t.touch(ns(3), 7, true));
        assert!(out.is_empty());
        assert_eq!((t.hits, t.misses), (1, 1));
    }

    #[test]
    fn capacity_evicts_lru_and_reports_dirtiness() {
        let mut t = ResidencyTable::new(2, ns(1_000_000));
        let mut out = Vec::new();
        t.promote(ns(1), 1, true, &mut out); // dirty
        t.promote(ns(2), 2, false, &mut out);
        t.touch(ns(3), 2, false); // 1 is now LRU
        t.promote(ns(4), 3, false, &mut out);
        assert_eq!(
            out,
            vec![Demotion {
                page: 1,
                dirty: true
            }]
        );
        assert_eq!((t.demotions, t.writebacks), (1, 1));
        assert!(!t.resident(1) && t.resident(2) && t.resident(3));
    }

    #[test]
    fn aging_demotes_idle_pages_oldest_first() {
        let mut t = ResidencyTable::new(8, ns(10));
        let mut out = Vec::new();
        t.promote(ns(0), 1, false, &mut out);
        t.promote(ns(5), 2, true, &mut out);
        t.promote(ns(20), 3, false, &mut out);
        t.demote_aged(ns(16), &mut out);
        assert_eq!(
            out,
            vec![
                Demotion {
                    page: 1,
                    dirty: false
                },
                Demotion {
                    page: 2,
                    dirty: true
                }
            ]
        );
        assert!(t.resident(3));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn racing_promotion_refreshes_instead_of_duplicating() {
        let mut t = ResidencyTable::new(4, ns(100));
        let mut out = Vec::new();
        t.promote(ns(1), 5, false, &mut out);
        t.promote(ns(2), 5, true, &mut out);
        assert_eq!(t.len(), 1);
        assert!(out.is_empty());
        // The refresh kept the page and marked it dirty.
        t.demote_aged(ns(200), &mut out);
        assert_eq!(
            out,
            vec![Demotion {
                page: 5,
                dirty: true
            }]
        );
    }

    #[test]
    fn touch_refreshes_age() {
        let mut t = ResidencyTable::new(8, ns(10));
        let mut out = Vec::new();
        t.promote(ns(0), 1, false, &mut out);
        t.touch(ns(9), 1, false);
        t.demote_aged(ns(15), &mut out);
        assert!(out.is_empty());
        assert!(t.resident(1));
    }
}
