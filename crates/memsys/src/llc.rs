//! Last-level cache model with DDIO semantics.
//!
//! Intel's Data Direct I/O steers inbound PCIe writes straight into the
//! LLC (write-allocate) and serves reads from it on a hit. Because the
//! cache absorbs accesses regardless of how narrow the address range is,
//! a DDIO-equipped host is immune to the skew anomaly that collapses the
//! SoC's DRAM throughput (paper §3.2, Figure 7).
//!
//! The model is a real set-associative tag array with per-set LRU, plus a
//! sliced bandwidth model (one server per LLC slice, addresses hashed
//! across slices as on Xeon). The tag array is paged and allocated on
//! first touch: every simulated machine carries an 18 MB host LLC, and
//! most of them never touch most of it.

use simnet::resource::Server;
use simnet::time::Nanos;

/// Static description of an LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcSpec {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Cache-line size in bytes.
    pub line: u64,
    /// Number of slices (one bank/server per slice).
    pub slices: u32,
    /// Fixed hit latency component.
    pub t_hit: Nanos,
    /// Slice occupancy per line moved.
    pub t_line: Nanos,
}

impl LlcSpec {
    /// An LLC like the SRV machines' Xeon Gold: ~18 MB, 11-way, 12 slices.
    pub fn xeon_like() -> Self {
        LlcSpec {
            capacity: 18 << 20,
            ways: 11,
            line: 64,
            slices: 12,
            t_hit: Nanos::new(14),
            t_line: Nanos::new(2),
        }
    }

    /// Number of sets implied by capacity/ways/line.
    pub fn sets(&self) -> u64 {
        self.capacity / (self.ways as u64 * self.line)
    }
}

/// Sets per tag page. A page is allocated on the first access that
/// touches one of its sets, so a machine whose LLC the simulation never
/// touches pays for no tags at all (an 11-way page is 5.6 KB, heads
/// included).
const PAGE_SETS: usize = 64;

/// An unused way. `addr / line` with `line > 1` never reaches it.
const EMPTY: u64 = u64::MAX;

/// The page-table entry of a page no access has touched.
const UNTOUCHED: u32 = u32::MAX;

/// A stateful LLC simulator.
///
/// Tags live in pages of [`PAGE_SETS`] sets, allocated on first touch.
/// A page holds each set's `ways` tag slots and a head byte per set; the
/// page table keeps a 4-byte index per page. A set that is not yet full
/// is packed least-recently-used first from slot 0, with [`EMPTY`]
/// filling the unused tail, and its head is 0. A full set is a ring: its
/// head slot holds the LRU way and the order runs on from there,
/// wrapping, to the MRU way just before it. A miss on a full set
/// overwrites the head and advances it; only a hit moves tags.
///
/// # Examples
///
/// ```
/// use memsys::llc::{LlcSim, LlcSpec};
/// use simnet::time::Nanos;
///
/// let mut llc = LlcSim::new(LlcSpec::xeon_like());
/// assert!(!llc.probe(0x1000, 64));
/// llc.access(Nanos::ZERO, 0x1000, 64); // allocates
/// assert!(llc.probe(0x1000, 64));
/// ```
#[derive(Debug, Clone)]
pub struct LlcSim {
    spec: LlcSpec,
    sets: u64,
    ways: usize,
    /// Each page's index into `pages`, or [`UNTOUCHED`].
    page_of: Vec<u32>,
    /// The touched pages, in first-touch order.
    pages: Vec<Page>,
    slices: Vec<Server>,
    /// Line range `(first, last)` of the latest access, kept only when
    /// it spans at most `sets` lines. Each of its lines is then the MRU
    /// way of its own set until another access runs.
    recent: Option<(u64, u64)>,
    hits: u64,
    misses: u64,
}

impl LlcSim {
    /// Creates an empty cache. No tag storage is allocated until an
    /// access touches it.
    ///
    /// # Panics
    ///
    /// Panics if the spec implies zero sets or 2^32 - 1 or more pages,
    /// has zero or more than 256 ways, has zero slices, or has a line of
    /// fewer than 2 bytes.
    pub fn new(spec: LlcSpec) -> Self {
        assert!(
            (1..=256).contains(&spec.ways) && spec.slices > 0 && spec.line > 1,
            "degenerate LLC"
        );
        let sets = spec.sets();
        assert!(sets > 0, "LLC smaller than one set");
        let pages = (sets as usize).div_ceil(PAGE_SETS);
        assert!(pages < UNTOUCHED as usize, "LLC too large to page");
        LlcSim {
            spec,
            sets,
            ways: spec.ways as usize,
            page_of: vec![UNTOUCHED; pages],
            pages: Vec::new(),
            slices: vec![Server::new(); spec.slices as usize],
            recent: None,
            hits: 0,
            misses: 0,
        }
    }

    /// The spec this cache was built from.
    pub fn spec(&self) -> &LlcSpec {
        &self.spec
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr / self.spec.line
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets) as usize
    }

    /// Whether the first line of `[addr, addr+bytes)` is resident, without
    /// touching LRU state.
    pub fn probe(&self, addr: u64, _bytes: u64) -> bool {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let off = set % PAGE_SETS * self.ways;
        self.pages
            .get(self.page_of[set / PAGE_SETS] as usize)
            .is_some_and(|page| page.tags[off..off + self.ways].contains(&line))
    }

    /// Accesses (and allocates) `[addr, addr+bytes)`, reserving slice
    /// bandwidth; returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn access(&mut self, now: Nanos, addr: u64, bytes: u64) -> Nanos {
        assert!(bytes > 0, "zero-byte LLC access");
        let first = self.line_of(addr);
        let last = self.line_of(addr + bytes - 1);
        let lines = last - first + 1;
        if self.recent == Some((first, last)) {
            // Every line is already the MRU way of its own set, so the
            // walk would hit on each and move no tag.
            self.hits += lines;
        } else {
            self.walk(first, lines);
            self.recent = (lines <= self.sets).then_some((first, last));
        }
        // Slice `first + j` serves lines `first + j`, `first + j + S`, …:
        // one reservation of their summed occupancy finishes exactly
        // where that many back-to-back one-line reservations would.
        let n_slices = self.slices.len();
        let (per_slice, extra) = (lines / n_slices as u64, lines % n_slices as u64);
        // Xeon hashes physical addresses across slices; consecutive lines
        // land on consecutive slices, which simple interleaving captures.
        let mut slice = (first % n_slices as u64) as usize;
        let mut done = now;
        for j in 0..lines.min(n_slices as u64) {
            let k = per_slice + u64::from(j < extra);
            let res = self.slices[slice].reserve(now, self.spec.t_line * k);
            done = done.max(res.finish + self.spec.t_hit);
            slice = if slice + 1 == n_slices { 0 } else { slice + 1 };
        }
        done
    }

    /// Touches `lines` consecutive lines from `first`. Consecutive lines
    /// fall in consecutive sets, so the walk steps the set index instead
    /// of dividing per line, and looks each page up once per run of sets.
    fn walk(&mut self, first: u64, lines: u64) {
        let ways = self.ways;
        let n_sets = self.sets as usize;
        let mut set = self.set_of(first);
        let mut line = first;
        let end = first + lines;
        let mut hits = 0;
        while line < end {
            let s0 = set % PAGE_SETS;
            let run = (PAGE_SETS - s0)
                .min(n_sets - set)
                .min((end - line) as usize);
            let entry = &mut self.page_of[set / PAGE_SETS];
            if *entry == UNTOUCHED {
                *entry = self.pages.len() as u32;
                self.pages.push(Page {
                    heads: [0; PAGE_SETS],
                    tags: vec![EMPTY; PAGE_SETS * ways].into_boxed_slice(),
                });
            }
            let page = &mut self.pages[*entry as usize];
            let sets = page.heads[s0..s0 + run]
                .iter_mut()
                .zip(page.tags.chunks_exact_mut(ways).skip(s0));
            for (head, tags) in sets {
                hits += u64::from(touch(tags, head, line));
                line += 1;
            }
            set = if set + run == n_sets { 0 } else { set + run };
        }
        self.hits += hits;
        self.misses += lines - hits;
    }

    /// Hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses (allocations) observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// `PAGE_SETS` consecutive sets of the tag array.
#[derive(Debug, Clone, PartialEq)]
struct Page {
    /// Each set's ring head: the slot of its LRU way once the set is
    /// full, 0 before.
    heads: [u8; PAGE_SETS],
    /// Each set's `ways` tag slots, set after set.
    tags: Box<[u64]>,
}

/// Makes `line` the MRU way of the set with tag slots `tags` and ring
/// head `head`, evicting the LRU way on a miss to a full set. Returns
/// whether `line` was resident.
fn touch(tags: &mut [u64], head: &mut u8, line: u64) -> bool {
    let ways = tags.len();
    if tags[ways - 1] == EMPTY {
        // Packed set: fill the first empty way on a miss, rotate a hit
        // to the end of the run.
        let pos = tags
            .iter()
            .position(|&t| t == line || t == EMPTY)
            .expect("a packed set has an empty way");
        if tags[pos] == EMPTY {
            tags[pos] = line;
            return false;
        }
        let run = tags[pos..]
            .iter()
            .position(|&t| t == EMPTY)
            .expect("a packed set has an empty way");
        tags[pos..pos + run].rotate_left(1);
        return true;
    }
    // Full ring: the MRU slot is just before the head.
    let lru = usize::from(*head);
    let mru = lru.checked_sub(1).unwrap_or(ways - 1);
    if tags[mru] == line {
        return true;
    }
    let Some(pos) = tags.iter().position(|&t| t == line) else {
        // Overwrite the LRU way, the head, and advance the head.
        tags[lru] = line;
        *head = if lru + 1 == ways { 0 } else { lru as u8 + 1 };
        return false;
    };
    // Move the ways logically after the hit down one slot and put the
    // hit in the MRU slot.
    if pos < mru {
        tags.copy_within(pos + 1..=mru, pos);
    } else {
        // The ways after the hit wrap past the last slot.
        tags.copy_within(pos + 1.., pos);
        tags[ways - 1] = tags[0];
        tags.copy_within(1..=mru, 0);
    }
    tags[mru] = line;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::prop::{check, Gen};
    use simnet::{prop_assert, prop_assert_eq};

    /// The unpaged reference model: one `Vec` of tags per set, most
    /// recently used last, and one slice reservation per line. The
    /// paged [`LlcSim`] must agree with it access for access.
    struct BaselineLlc {
        spec: LlcSpec,
        sets: Vec<Vec<u64>>,
        slices: Vec<Server>,
        hits: u64,
        misses: u64,
    }

    impl BaselineLlc {
        fn new(spec: LlcSpec) -> Self {
            BaselineLlc {
                spec,
                sets: vec![Vec::new(); spec.sets() as usize],
                slices: vec![Server::new(); spec.slices as usize],
                hits: 0,
                misses: 0,
            }
        }

        fn probe(&self, addr: u64) -> bool {
            let line = addr / self.spec.line;
            self.sets[(line % self.sets.len() as u64) as usize].contains(&line)
        }

        fn access(&mut self, now: Nanos, addr: u64, bytes: u64) -> Nanos {
            let first = addr / self.spec.line;
            let last = (addr + bytes - 1) / self.spec.line;
            let mut done = now;
            for line in first..=last {
                let n_sets = self.sets.len() as u64;
                let set = &mut self.sets[(line % n_sets) as usize];
                if let Some(pos) = set.iter().position(|&t| t == line) {
                    let t = set.remove(pos);
                    set.push(t);
                    self.hits += 1;
                } else {
                    if set.len() == self.spec.ways as usize {
                        set.remove(0);
                    }
                    set.push(line);
                    self.misses += 1;
                }
                let slice = (line % self.slices.len() as u64) as usize;
                let res = self.slices[slice].reserve(now, self.spec.t_line);
                done = done.max(res.finish + self.spec.t_hit);
            }
            done
        }
    }

    /// Drives the paged model and the reference with the same random
    /// accesses and probes. Half the fresh addresses alias onto a handful
    /// of sets (`base + i * sets` lines), so sets fill past `ways` and
    /// evict; sizes up to 9 KB straddle tag pages and, on the tiny spec,
    /// span more lines than there are sets. A share of accesses repeat
    /// the latest range exactly (the fast path), some cover the same
    /// lines with other byte bounds, and some repeat the range before it
    /// after a different access has replaced the remembered one. Probes
    /// run between some accesses and not others.
    fn agrees_with_baseline(g: &mut Gen, spec: LlcSpec) -> Result<(), String> {
        let sets = spec.sets();
        let line = spec.line;
        let mut paged = LlcSim::new(spec);
        let mut base = BaselineLlc::new(spec);
        let hot_set = g.u64(0..sets);
        let span = sets * line * 4;
        let (mut prev, mut prev2) = ((0, 1), (0, 1));
        for _ in 0..g.usize(1..300) {
            let (addr, bytes) = match g.u32(0..8) {
                0 | 1 => prev,
                2 => {
                    let (a, b) = prev;
                    let lo = a / line * line + g.u64(0..line);
                    let hi = (a + b).div_ceil(line) * line - g.u64(0..line);
                    (lo, hi.max(lo + 1) - lo)
                }
                3 => prev2,
                _ => {
                    let addr = if g.bool() {
                        let l =
                            hot_set + g.u64(0..sets.min(4)) + g.u64(0..2 * spec.ways as u64) * sets;
                        l * line + g.u64(0..line)
                    } else {
                        g.u64(0..span)
                    };
                    (addr, g.u64(1..9_000))
                }
            };
            (prev2, prev) = (prev, (addr, bytes));
            let now = Nanos::new(g.u64(0..5_000));
            prop_assert_eq!(
                paged.access(now, addr, bytes),
                base.access(now, addr, bytes),
                "access({now}, {addr:#x}, {bytes})"
            );
            if g.bool() {
                let probe = g.u64(0..span);
                prop_assert_eq!(paged.probe(probe, 64), base.probe(probe));
                prop_assert_eq!(paged.probe(addr, 64), base.probe(addr));
            }
            prop_assert_eq!(paged.hits(), base.hits);
            prop_assert_eq!(paged.misses(), base.misses);
        }
        prop_assert!(paged.hits() + paged.misses() > 0);
        Ok(())
    }

    #[test]
    fn paged_tags_match_baseline_tiny() {
        check("llc_paged_matches_baseline_tiny", |g| {
            agrees_with_baseline(g, tiny_spec())
        });
    }

    #[test]
    fn paged_tags_match_baseline_multi_page() {
        // 3 full pages plus a partial one, 2 ways, 3 slices.
        let spec = LlcSpec {
            capacity: (3 * PAGE_SETS as u64 + 5) * 2 * 64,
            ways: 2,
            line: 64,
            slices: 3,
            t_hit: Nanos::new(5),
            t_line: Nanos::new(3),
        };
        check("llc_paged_matches_baseline_multi_page", |g| {
            agrees_with_baseline(g, spec)
        });
    }

    #[test]
    fn paged_tags_match_baseline_xeon() {
        check("llc_paged_matches_baseline_xeon", |g| {
            agrees_with_baseline(g, LlcSpec::xeon_like())
        });
    }

    #[test]
    fn untouched_pages_stay_unallocated() {
        let mut llc = LlcSim::new(LlcSpec::xeon_like());
        assert!(llc.pages.is_empty());
        llc.access(Nanos::ZERO, 0, 4096);
        assert_eq!(
            llc.pages.len(),
            1,
            "one 4 KB access spans 64 sets = one page"
        );
    }

    fn tiny_spec() -> LlcSpec {
        LlcSpec {
            capacity: 4096, // 16 sets of 4 ways
            ways: 4,
            line: 64,
            slices: 2,
            t_hit: Nanos::new(10),
            t_line: Nanos::new(2),
        }
    }

    #[test]
    fn sets_arithmetic() {
        let s = tiny_spec();
        assert_eq!(s.sets(), 4096 / (4 * 64));
    }

    #[test]
    fn allocate_then_hit() {
        let mut llc = LlcSim::new(tiny_spec());
        assert!(!llc.probe(0, 64));
        llc.access(Nanos::ZERO, 0, 64);
        assert!(llc.probe(0, 64));
        assert_eq!(llc.misses(), 1);
        llc.access(Nanos::ZERO, 0, 64);
        assert_eq!(llc.hits(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let spec = tiny_spec();
        let sets = spec.sets();
        let mut llc = LlcSim::new(spec);
        // Fill one set: lines that share `line % sets`.
        let lines: Vec<u64> = (0..4u64).map(|i| i * sets).collect();
        for &l in &lines {
            llc.access(Nanos::ZERO, l * 64, 64);
        }
        // Touch line 0 to make it MRU, then insert a 5th line.
        llc.access(Nanos::ZERO, 0, 64);
        llc.access(Nanos::ZERO, 4 * sets * 64, 64);
        // Line 1*sets was LRU and must be gone; line 0 must survive.
        assert!(!llc.probe(sets * 64, 64));
        assert!(llc.probe(0, 64));
    }

    #[test]
    fn repeated_range_counts_hits_without_moving_tags() {
        let mut llc = LlcSim::new(LlcSpec::xeon_like());
        llc.access(Nanos::ZERO, 0, 4096);
        let pages = llc.pages.clone();
        llc.access(Nanos::ZERO, 0, 4096);
        assert_eq!(llc.recent, Some((0, 63)));
        assert_eq!((llc.hits(), llc.misses()), (64, 64));
        assert_eq!(llc.pages, pages, "a repeat must not move a tag");
    }

    #[test]
    fn range_longer_than_sets_is_not_remembered() {
        let spec = tiny_spec();
        let mut llc = LlcSim::new(spec);
        llc.access(Nanos::ZERO, 0, spec.sets() * 64);
        assert_eq!(llc.recent, Some((0, spec.sets() - 1)));
        llc.access(Nanos::ZERO, 0, (spec.sets() + 1) * 64);
        assert_eq!(llc.recent, None, "line 0 and line `sets` share a set");
    }

    #[test]
    fn full_set_hits_keep_ring_order() {
        // One 4-way set: fill it, wrap the head with two evictions, then
        // hit ways whose successors wrap past the end of the slots.
        let spec = tiny_spec();
        let sets = spec.sets();
        let mut llc = LlcSim::new(spec);
        let at = |i: u64| i * sets * 64;
        for i in 0..6 {
            llc.access(Nanos::ZERO, at(i), 64); // LRU→MRU: 2 3 4 5
        }
        llc.access(Nanos::ZERO, at(3), 64); // 2 4 5 3
        llc.access(Nanos::ZERO, at(5), 64); // 2 4 3 5
        llc.access(Nanos::ZERO, at(6), 64); // evicts 2: 4 3 5 6
        llc.access(Nanos::ZERO, at(7), 64); // evicts 4: 3 5 6 7
        assert_eq!((llc.hits(), llc.misses()), (2, 8));
        for (i, resident) in [
            (2, false),
            (3, true),
            (4, false),
            (5, true),
            (6, true),
            (7, true),
        ] {
            assert_eq!(llc.probe(at(i), 64), resident, "line {i} x sets");
        }
    }

    #[test]
    fn multi_line_access_spans_lines() {
        let mut llc = LlcSim::new(tiny_spec());
        llc.access(Nanos::ZERO, 0, 256); // 4 lines
        assert_eq!(llc.misses(), 4);
        assert!(llc.probe(192, 64));
    }

    #[test]
    fn slices_parallelize() {
        let mut llc = LlcSim::new(LlcSpec::xeon_like());
        // Many single-line accesses at t=0: with 12 slices x 2 ns, the
        // makespan for 120 accesses is ~10 serialized per slice.
        let mut done = Nanos::ZERO;
        for i in 0..120u64 {
            done = done.max(llc.access(Nanos::ZERO, i * 64, 64));
        }
        // Sequential would be 240 ns + hit; sliced should be well under.
        assert!(done < Nanos::new(100), "{done}");
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_bytes_rejected() {
        LlcSim::new(tiny_spec()).access(Nanos::ZERO, 0, 0);
    }

    #[test]
    fn xeon_spec_sane() {
        let s = LlcSpec::xeon_like();
        assert!(s.sets() > 10_000);
        let llc = LlcSim::new(s);
        assert!(!llc.probe(12345 * 64, 64));
    }
}
