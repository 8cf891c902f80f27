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
/// touches pays for no tags at all (an 11-way page is 5.5 KB).
const PAGE_SETS: usize = 64;

/// An unused way. `addr / line` with `line > 1` never reaches it.
const EMPTY: u64 = u64::MAX;

/// A stateful LLC simulator.
///
/// Tags live in pages of [`PAGE_SETS`] sets, allocated on first touch.
/// Each set is `ways` slots packed least-recently-used first, with
/// [`EMPTY`] filling the unused tail.
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
    /// Tag pages; an empty page has never been touched.
    pages: Vec<Box<[u64]>>,
    slices: Vec<Server>,
    hits: u64,
    misses: u64,
}

impl LlcSim {
    /// Creates an empty cache. No tag storage is allocated until an
    /// access touches it.
    ///
    /// # Panics
    ///
    /// Panics if the spec implies zero sets, has zero ways/slices, or
    /// has a line of fewer than 2 bytes.
    pub fn new(spec: LlcSpec) -> Self {
        assert!(
            spec.ways > 0 && spec.slices > 0 && spec.line > 1,
            "degenerate LLC"
        );
        let sets = spec.sets();
        assert!(sets > 0, "LLC smaller than one set");
        let pages = (sets as usize).div_ceil(PAGE_SETS);
        LlcSim {
            spec,
            sets,
            ways: spec.ways as usize,
            pages: (0..pages).map(|_| Box::default()).collect(),
            slices: vec![Server::new(); spec.slices as usize],
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

    fn slice_of(&self, line: u64) -> usize {
        // Xeon hashes physical addresses across slices; consecutive lines
        // land on consecutive slices, which simple interleaving captures.
        (line % self.slices.len() as u64) as usize
    }

    /// Whether the first line of `[addr, addr+bytes)` is resident, without
    /// touching LRU state.
    pub fn probe(&self, addr: u64, _bytes: u64) -> bool {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let off = set % PAGE_SETS * self.ways;
        self.pages[set / PAGE_SETS]
            .get(off..off + self.ways)
            .is_some_and(|tags| tags.contains(&line))
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
        for line in first..=last {
            self.touch(line);
        }
        // Slice `first + j` serves lines `first + j`, `first + j + S`, …:
        // one reservation of their summed occupancy finishes exactly
        // where that many back-to-back one-line reservations would.
        let lines = last - first + 1;
        let n_slices = self.slices.len() as u64;
        let mut done = now;
        for j in 0..lines.min(n_slices) {
            let k = (lines - 1 - j) / n_slices + 1;
            let slice = self.slice_of(first + j);
            let res = self.slices[slice].reserve(now, self.spec.t_line * k);
            done = done.max(res.finish + self.spec.t_hit);
        }
        done
    }

    fn touch(&mut self, line: u64) {
        let ways = self.ways;
        let set_idx = self.set_of(line);
        let page = &mut self.pages[set_idx / PAGE_SETS];
        if page.is_empty() {
            *page = vec![EMPTY; PAGE_SETS * ways].into_boxed_slice();
        }
        let off = set_idx % PAGE_SETS * ways;
        let tags = &mut page[off..off + ways];
        match tags.iter().position(|&t| t == line || t == EMPTY) {
            Some(pos) if tags[pos] == line => {
                // Hit: move to MRU position (the end of the packed run).
                let len = tags[pos..]
                    .iter()
                    .position(|&t| t == EMPTY)
                    .map_or(ways, |n| pos + n);
                tags[pos..len].rotate_left(1);
                self.hits += 1;
            }
            Some(free) => {
                tags[free] = line;
                self.misses += 1;
            }
            None => {
                // Full set: evict the LRU way.
                tags.rotate_left(1);
                tags[ways - 1] = line;
                self.misses += 1;
            }
        }
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
    /// accesses and probes. Half the addresses alias onto a handful of
    /// sets (`base + i * sets` lines), so sets fill past `ways` and
    /// evict; sizes up to 9 KB straddle tag pages.
    fn agrees_with_baseline(g: &mut Gen, spec: LlcSpec) -> Result<(), String> {
        let sets = spec.sets();
        let mut paged = LlcSim::new(spec);
        let mut base = BaselineLlc::new(spec);
        let hot_set = g.u64(0..sets);
        let span = sets * spec.line * 4;
        for _ in 0..g.usize(1..300) {
            let addr = if g.bool() {
                let line = hot_set + g.u64(0..sets.min(4)) + g.u64(0..2 * spec.ways as u64) * sets;
                line * spec.line + g.u64(0..spec.line)
            } else {
                g.u64(0..span)
            };
            let now = Nanos::new(g.u64(0..5_000));
            let bytes = g.u64(1..9_000);
            prop_assert_eq!(
                paged.access(now, addr, bytes),
                base.access(now, addr, bytes),
                "access({now}, {addr:#x}, {bytes})"
            );
            let probe = g.u64(0..span);
            prop_assert_eq!(paged.probe(probe, 64), base.probe(probe));
            prop_assert_eq!(paged.probe(addr, 64), base.probe(addr));
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
        assert!(llc.pages.iter().all(|p| p.is_empty()));
        llc.access(Nanos::ZERO, 0, 4096);
        let touched = llc.pages.iter().filter(|p| !p.is_empty()).count();
        assert_eq!(touched, 1, "one 4 KB access spans 64 sets = one page");
    }

    fn tiny_spec() -> LlcSpec {
        LlcSpec {
            capacity: 4096, // 4 sets of 16 ways... see below
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
