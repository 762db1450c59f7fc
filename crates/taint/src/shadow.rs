//! Shadow memory: per-byte taint masks and fault provenance over guest
//! *physical* memory, kept together in one page-granular structure.

use crate::{ProvSet, TaintMask};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

const SHADOW_PAGE: usize = 4096;

/// Hashes a shadow page number with one multiply and one fold.
///
/// Page numbers are small dense integers, so SipHash's DoS resistance buys
/// nothing here and its cost lands on every tainted access. The multiply
/// mixes every input bit into the high bits (which select the hash table's
/// control byte); the fold brings them down into the low bits (which select
/// the bucket).
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Byte-granular taint and provenance shadow, keyed by physical address.
///
/// DECAF shadows physical memory so taint survives context switches and is
/// shared by every mapping of a page; Chaser logs both virtual and physical
/// addresses of tainted accesses. Pages are allocated lazily — a fault
/// campaign touches a tiny fraction of guest RAM — and a page's provenance
/// array only once it first receives non-empty provenance, so an 8-byte
/// tainted access costs one page lookup for mask and provenance together.
///
/// The structure maintains running counts of tainted and provenanced bytes
/// (the tainted count is what the paper's Fig. 7 samples every 100K
/// instructions), plus the same counts per page, which the engine's
/// taint-idle fast path and the in-page readers consult to skip shadow work
/// while nothing is live.
///
/// Masks and provenance are independent per byte: a caller may write either
/// without the other (an MPI delivery applies them as two separate buffers).
#[derive(Debug, Default, Clone)]
pub struct ShadowMem {
    pages: HashMap<u64, Box<ShadowPage>, BuildHasherDefault<PageHasher>>,
    tainted_bytes: usize,
    prov_bytes: usize,
}

/// One lazily-allocated shadow page: its taint masks, its provenance
/// (allocated on first non-empty write) and summary counts of both.
#[derive(Debug, Clone)]
struct ShadowPage {
    masks: [u8; SHADOW_PAGE],
    tainted: u32,
    prov: Option<Box<[ProvSet; SHADOW_PAGE]>>,
    prov_bytes: u32,
}

impl ShadowPage {
    fn new() -> Box<ShadowPage> {
        Box::new(ShadowPage {
            masks: [0u8; SHADOW_PAGE],
            tainted: 0,
            prov: None,
            prov_bytes: 0,
        })
    }

    /// Sets one mask byte, keeping this page's and the shadow-wide
    /// (`total`) tainted-byte counts exact.
    #[inline]
    fn set_mask(&mut self, total: &mut usize, off: usize, m: u8) {
        match (self.masks[off] == 0, m == 0) {
            (true, false) => {
                self.tainted += 1;
                *total += 1;
            }
            (false, true) => {
                self.tainted -= 1;
                *total -= 1;
            }
            _ => {}
        }
        self.masks[off] = m;
    }

    /// Sets one provenance byte, keeping this page's and the shadow-wide
    /// (`total`) provenanced-byte counts exact. Writing the empty set to a
    /// page without provenance allocates nothing.
    #[inline]
    fn set_prov(&mut self, total: &mut usize, off: usize, p: ProvSet) {
        if self.prov.is_none() && p.is_empty() {
            return;
        }
        let prov = self
            .prov
            .get_or_insert_with(|| Box::new([ProvSet::EMPTY; SHADOW_PAGE]));
        match (prov[off].is_empty(), p.is_empty()) {
            (true, false) => {
                self.prov_bytes += 1;
                *total += 1;
            }
            (false, true) => {
                self.prov_bytes -= 1;
                *total -= 1;
            }
            _ => {}
        }
        prov[off] = p;
    }

    /// The provenance of the byte at `off`.
    #[inline]
    fn prov(&self, off: usize) -> ProvSet {
        self.prov.as_ref().map_or(ProvSet::EMPTY, |p| p[off])
    }

    /// Union provenance of the bytes at `range` (empty without a lookup
    /// while the page carries none).
    #[inline]
    fn prov_union(&self, range: Range<usize>) -> ProvSet {
        match &self.prov {
            Some(prov) if self.prov_bytes > 0 => prov[range]
                .iter()
                .fold(ProvSet::EMPTY, |acc, &p| acc.union(p)),
            _ => ProvSet::EMPTY,
        }
    }
}

impl ShadowMem {
    /// An empty shadow.
    pub fn new() -> ShadowMem {
        ShadowMem::default()
    }

    fn page(&self, page: u64) -> Option<&ShadowPage> {
        self.pages.get(&page).map(|p| &**p)
    }

    /// The taint bits of the byte at physical address `paddr`.
    pub fn byte(&self, paddr: u64) -> u8 {
        let (page, off) = split(paddr);
        self.page(page).map_or(0, |p| p.masks[off])
    }

    /// Sets the taint bits of the byte at `paddr`.
    pub fn set_byte(&mut self, paddr: u64, mask: u8) {
        let (page, off) = split(paddr);
        if mask == 0 {
            // Avoid allocating a page just to store zero.
            if let Some(p) = self.pages.get_mut(&page) {
                p.set_mask(&mut self.tainted_bytes, off, 0);
            }
            return;
        }
        let p = self.pages.entry(page).or_insert_with(ShadowPage::new);
        p.set_mask(&mut self.tainted_bytes, off, mask);
    }

    /// The provenance of the byte at physical address `paddr`.
    pub fn prov_byte(&self, paddr: u64) -> ProvSet {
        let (page, off) = split(paddr);
        self.page(page).map_or(ProvSet::EMPTY, |p| p.prov(off))
    }

    /// Sets (or, for the empty set, clears) the provenance of the byte at
    /// `paddr`.
    pub(crate) fn set_prov_byte(&mut self, paddr: u64, p: ProvSet) {
        let (page, off) = split(paddr);
        if p.is_empty() {
            if let Some(pg) = self.pages.get_mut(&page) {
                pg.set_prov(&mut self.prov_bytes, off, p);
            }
            return;
        }
        let pg = self.pages.entry(page).or_insert_with(ShadowPage::new);
        pg.set_prov(&mut self.prov_bytes, off, p);
    }

    /// Loads the taint of the 8 bytes at `paddr` as a value mask
    /// (little-endian, matching guest loads).
    pub fn load8(&self, paddr: u64) -> TaintMask {
        self.load8_prov(paddr).0
    }

    /// Loads the taint mask and the union provenance of the 8 bytes at
    /// `paddr` — an 8-byte guest load's shadow — with one page lookup when
    /// the access stays inside a shadow page.
    pub fn load8_prov(&self, paddr: u64) -> (TaintMask, ProvSet) {
        let (page, off) = split(paddr);
        if off > SHADOW_PAGE - 8 {
            let mut prov = ProvSet::EMPTY;
            let bytes = std::array::from_fn(|i| {
                prov = prov.union(self.prov_byte(paddr + i as u64));
                self.byte(paddr + i as u64)
            });
            return (TaintMask::from_bytes(bytes), prov);
        }
        let Some(p) = self.page(page) else {
            return (TaintMask::CLEAN, ProvSet::EMPTY);
        };
        let mask = if p.tainted > 0 {
            TaintMask::from_bytes(p.masks[off..off + 8].try_into().expect("8 in-page bytes"))
        } else {
            TaintMask::CLEAN
        };
        (mask, p.prov_union(off..off + 8))
    }

    /// Stores a value mask over the 8 bytes at `paddr`, leaving their
    /// provenance alone. One page lookup when the access stays inside a
    /// shadow page.
    pub fn store8(&mut self, paddr: u64, mask: TaintMask) {
        let (page, off) = split(paddr);
        if off > SHADOW_PAGE - 8 {
            for i in 0..8 {
                self.set_byte(paddr + i as u64, mask.byte(i));
            }
            return;
        }
        if mask.is_clean() {
            // Clearing: only touch a page that exists and carries taint.
            if let Some(p) = self.pages.get_mut(&page) {
                if p.tainted > 0 {
                    for i in 0..8 {
                        p.set_mask(&mut self.tainted_bytes, off + i, 0);
                    }
                }
            }
            return;
        }
        let p = self.pages.entry(page).or_insert_with(ShadowPage::new);
        for i in 0..8 {
            p.set_mask(&mut self.tainted_bytes, off + i, mask.byte(i));
        }
    }

    /// Stores a value mask and provenance `prov` over the 8 bytes at
    /// `paddr` — an 8-byte guest store's shadow. Provenance is byte-gated
    /// by the mask: a byte whose mask byte is clean gets empty provenance.
    /// One page lookup when the access stays inside a shadow page.
    pub(crate) fn store8_prov(&mut self, paddr: u64, mask: TaintMask, prov: ProvSet) {
        let gated = |i: usize| {
            if mask.byte(i) != 0 {
                prov
            } else {
                ProvSet::EMPTY
            }
        };
        let (page, off) = split(paddr);
        if off > SHADOW_PAGE - 8 {
            for i in 0..8 {
                self.set_byte(paddr + i as u64, mask.byte(i));
                self.set_prov_byte(paddr + i as u64, gated(i));
            }
            return;
        }
        let p = if mask.is_clean() {
            // Clearing: only touch a page that exists and carries taint or
            // provenance.
            match self.pages.get_mut(&page) {
                Some(p) if p.tainted > 0 || p.prov_bytes > 0 => p,
                _ => return,
            }
        } else {
            self.pages.entry(page).or_insert_with(ShadowPage::new)
        };
        for i in 0..8 {
            p.set_mask(&mut self.tainted_bytes, off + i, mask.byte(i));
            p.set_prov(&mut self.prov_bytes, off + i, gated(i));
        }
    }

    /// Copies the masks of the `out.len()` bytes at `paddr` into `out`
    /// with one page lookup. The run must stay inside one shadow page
    /// (callers split guest buffers per page).
    pub fn read_masks(&self, paddr: u64, out: &mut [u8]) {
        let (page, off) = split_run(paddr, out.len());
        match self.page(page) {
            Some(p) if p.tainted > 0 => out.copy_from_slice(&p.masks[off..off + out.len()]),
            _ => out.fill(0),
        }
    }

    /// Sets the masks of the `masks.len()` bytes at `paddr` with one page
    /// lookup, and none for an all-clean run over a page that does not
    /// exist. The run must stay inside one shadow page.
    pub fn write_masks(&mut self, paddr: u64, masks: &[u8]) {
        let (page, off) = split_run(paddr, masks.len());
        let p = if masks.iter().all(|&m| m == 0) {
            match self.pages.get_mut(&page) {
                Some(p) if p.tainted > 0 => p,
                _ => return,
            }
        } else {
            self.pages.entry(page).or_insert_with(ShadowPage::new)
        };
        for (i, &m) in masks.iter().enumerate() {
            p.set_mask(&mut self.tainted_bytes, off + i, m);
        }
    }

    /// Copies the provenance of the `out.len()` bytes at `paddr` into `out`
    /// with one page lookup. The run must stay inside one shadow page.
    pub fn read_provs(&self, paddr: u64, out: &mut [ProvSet]) {
        let (page, off) = split_run(paddr, out.len());
        match self.page(page).and_then(|p| p.prov.as_ref()) {
            Some(prov) => out.copy_from_slice(&prov[off..off + out.len()]),
            None => out.fill(ProvSet::EMPTY),
        }
    }

    /// Sets the provenance of the `provs.len()` bytes at `paddr` with one
    /// page lookup, and none for an all-empty run over a page that does not
    /// exist. The run must stay inside one shadow page.
    pub(crate) fn write_provs(&mut self, paddr: u64, provs: &[ProvSet]) {
        let (page, off) = split_run(paddr, provs.len());
        let p = if provs.iter().all(|p| p.is_empty()) {
            match self.pages.get_mut(&page) {
                Some(p) if p.prov_bytes > 0 => p,
                _ => return,
            }
        } else {
            self.pages.entry(page).or_insert_with(ShadowPage::new)
        };
        for (i, &pv) in provs.iter().enumerate() {
            p.set_prov(&mut self.prov_bytes, off + i, pv);
        }
    }

    /// Current number of tainted bytes (the Fig. 7 series).
    pub fn tainted_bytes(&self) -> usize {
        self.tainted_bytes
    }

    /// Current number of bytes carrying non-empty provenance.
    pub fn provenanced_bytes(&self) -> usize {
        self.prov_bytes
    }

    /// True when no byte anywhere carries taint — the engine's taint-idle
    /// fast-path gate. Invariant: `tainted_bytes == 0` ⇔ every allocated
    /// page's summary count is zero ⇔ every mask byte is zero.
    pub fn is_idle(&self) -> bool {
        self.tainted_bytes == 0
    }

    /// Number of tainted bytes in the shadow page containing `paddr` (the
    /// per-page taint summary).
    pub fn page_tainted_bytes(&self, paddr: u64) -> u32 {
        let (page, _) = split(paddr);
        self.page(page).map_or(0, |p| p.tainted)
    }

    /// Clears all taint and provenance.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.tainted_bytes = 0;
        self.prov_bytes = 0;
    }

    /// Page numbers in ascending order — the deterministic visit order.
    fn sorted_pages(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Visits every shadow page holding at least one tainted byte, in
    /// ascending physical-page order, as `(page_base_paddr, masks)`.
    ///
    /// Allocated-but-fully-clean pages (taint written then cleared, or
    /// provenance only) are skipped, so the visit sequence is a pure
    /// function of the tainted set — two executions with identical taint
    /// contents visit identical sequences regardless of allocation history.
    /// This is what state digests hash.
    pub fn for_each_tainted_page(&self, mut f: impl FnMut(u64, &[u8])) {
        for page in self.sorted_pages() {
            let p = &self.pages[&page];
            if p.tainted > 0 {
                f(page * SHADOW_PAGE as u64, &p.masks[..]);
            }
        }
    }

    /// Visits every byte carrying non-empty provenance as `(paddr, set)` in
    /// ascending address order — like [`ShadowMem::for_each_tainted_page`],
    /// a pure function of contents, and the sequence state digests hash.
    pub fn for_each_prov(&self, mut f: impl FnMut(u64, ProvSet)) {
        for page in self.sorted_pages() {
            let p = &self.pages[&page];
            let Some(prov) = p.prov.as_ref().filter(|_| p.prov_bytes > 0) else {
                continue;
            };
            let base = page * SHADOW_PAGE as u64;
            for (off, &set) in prov.iter().enumerate() {
                if !set.is_empty() {
                    f(base + off as u64, set);
                }
            }
        }
    }
}

fn split(paddr: u64) -> (u64, usize) {
    (
        paddr / SHADOW_PAGE as u64,
        (paddr % SHADOW_PAGE as u64) as usize,
    )
}

/// `split` for a `len`-byte buffer run, which must not leave its page.
fn split_run(paddr: u64, len: usize) -> (u64, usize) {
    let (page, off) = split(paddr);
    debug_assert!(off + len <= SHADOW_PAGE, "buffer run crosses a shadow page");
    (page, off)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_memory_reads_clean() {
        let s = ShadowMem::new();
        assert_eq!(s.byte(0), 0);
        assert!(s.load8(0x1234).is_clean());
        assert_eq!(s.tainted_bytes(), 0);
    }

    #[test]
    fn store_load_round_trip_across_page_boundary() {
        let mut s = ShadowMem::new();
        let paddr = SHADOW_PAGE as u64 - 4; // straddles two pages
        let mask = TaintMask(0x1122_3344_5566_7788);
        s.store8(paddr, mask);
        assert_eq!(s.load8(paddr), mask);
        assert_eq!(s.tainted_bytes(), 8);
    }

    #[test]
    fn overwriting_with_clean_data_untaints() {
        let mut s = ShadowMem::new();
        s.store8(64, TaintMask::ALL);
        assert_eq!(s.tainted_bytes(), 8);
        s.store8(64, TaintMask::CLEAN);
        assert_eq!(s.tainted_bytes(), 0);
        assert!(s.load8(64).is_clean());
    }

    #[test]
    fn tainted_byte_count_tracks_distinct_bytes() {
        let mut s = ShadowMem::new();
        s.set_byte(10, 0b1);
        s.set_byte(10, 0b10); // same byte, still one
        s.set_byte(11, 0b1);
        assert_eq!(s.tainted_bytes(), 2);
        s.set_byte(10, 0);
        assert_eq!(s.tainted_bytes(), 1);
    }

    #[test]
    fn partial_store_keeps_other_bytes() {
        let mut s = ShadowMem::new();
        s.store8(0, TaintMask(0x0000_0000_0000_00ff)); // byte 0 tainted
        s.set_byte(3, 0xf0);
        let m = s.load8(0);
        assert_eq!(m.byte(0), 0xff);
        assert_eq!(m.byte(3), 0xf0);
        assert_eq!(m.byte(7), 0);
    }

    #[test]
    fn page_summaries_track_per_page_counts() {
        let mut s = ShadowMem::new();
        assert!(s.is_idle());
        s.store8(0, TaintMask::ALL);
        s.set_byte(SHADOW_PAGE as u64 + 5, 0x1);
        assert!(!s.is_idle());
        assert_eq!(s.page_tainted_bytes(100), 8);
        assert_eq!(s.page_tainted_bytes(SHADOW_PAGE as u64), 1);
        assert_eq!(s.page_tainted_bytes(2 * SHADOW_PAGE as u64), 0);
        s.store8(0, TaintMask::CLEAN);
        s.set_byte(SHADOW_PAGE as u64 + 5, 0);
        assert!(s.is_idle());
        assert_eq!(s.page_tainted_bytes(0), 0);
    }

    #[test]
    fn straddling_store_updates_both_page_summaries() {
        let mut s = ShadowMem::new();
        let paddr = SHADOW_PAGE as u64 - 4;
        s.store8(paddr, TaintMask::ALL);
        assert_eq!(s.page_tainted_bytes(0), 4);
        assert_eq!(s.page_tainted_bytes(SHADOW_PAGE as u64), 4);
        s.store8(paddr, TaintMask::CLEAN);
        assert!(s.is_idle());
    }

    #[test]
    fn partial_overwrite_keeps_counts_consistent() {
        let mut s = ShadowMem::new();
        s.store8(16, TaintMask(0x0000_0000_ffff_ffff)); // bytes 0..4 tainted
        assert_eq!(s.tainted_bytes(), 4);
        // Overwrite with the complementary half: bytes 4..8 tainted.
        s.store8(16, TaintMask(0xffff_ffff_0000_0000));
        assert_eq!(s.tainted_bytes(), 4);
        assert_eq!(s.page_tainted_bytes(16), 4);
        assert_eq!(s.byte(16), 0);
        assert_eq!(s.byte(20), 0xff);
    }

    #[test]
    fn cleared_pages_are_skipped_by_page_visit() {
        let mut s = ShadowMem::new();
        s.store8(0, TaintMask::ALL);
        s.store8(SHADOW_PAGE as u64, TaintMask::ALL);
        s.store8(0, TaintMask::CLEAN); // page 0 allocated but clean
        let mut seen = Vec::new();
        s.for_each_tainted_page(|base, _| seen.push(base));
        assert_eq!(seen, vec![SHADOW_PAGE as u64]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = ShadowMem::new();
        s.store8_prov(0, TaintMask::ALL, ProvSet::single(1));
        s.clear();
        assert_eq!(s.tainted_bytes(), 0);
        assert_eq!(s.provenanced_bytes(), 0);
        assert!(s.load8(0).is_clean());
        assert_eq!(s.prov_byte(0), ProvSet::EMPTY);
    }

    #[test]
    fn prov_holds_entries_iff_nonempty() {
        let mut s = ShadowMem::new();
        s.set_prov_byte(100, ProvSet::single(2));
        assert_eq!(s.provenanced_bytes(), 1);
        assert_eq!(s.prov_byte(100), ProvSet::single(2));
        s.set_prov_byte(100, ProvSet::EMPTY);
        assert_eq!(s.provenanced_bytes(), 0);
        assert_eq!(s.prov_byte(100), ProvSet::EMPTY);
    }

    #[test]
    fn load8_prov_unions_bytes() {
        let mut s = ShadowMem::new();
        s.set_prov_byte(8, ProvSet::single(0));
        s.set_prov_byte(15, ProvSet::single(4));
        let both = ProvSet::single(0).union(ProvSet::single(4));
        assert_eq!(s.load8_prov(8), (TaintMask::CLEAN, both));
        assert_eq!(s.load8_prov(16).1, ProvSet::EMPTY);
        // Straddling a page boundary unions across both pages.
        let edge = SHADOW_PAGE as u64 - 2;
        s.set_prov_byte(edge, ProvSet::single(1));
        s.set_prov_byte(edge + 3, ProvSet::single(3));
        let straddle = ProvSet::single(1).union(ProvSet::single(3));
        assert_eq!(s.load8_prov(edge).1, straddle);
    }

    #[test]
    fn store8_prov_is_mask_gated() {
        let mut s = ShadowMem::new();
        let p = ProvSet::single(0);
        s.store8_prov(0x100, TaintMask(0xff00), p); // only byte 1 tainted
        assert_eq!(s.prov_byte(0x100), ProvSet::EMPTY);
        assert_eq!(s.prov_byte(0x101), p);
        assert_eq!(s.load8_prov(0x100), (TaintMask(0xff00), p));
        s.store8_prov(0x100, TaintMask::CLEAN, p);
        assert_eq!(s.provenanced_bytes(), 0);
        assert!(s.is_idle());
    }

    #[test]
    fn prov_visit_is_sorted_and_content_pure() {
        let mut s = ShadowMem::new();
        s.set_prov_byte(SHADOW_PAGE as u64 + 30, ProvSet::single(1));
        s.set_prov_byte(10, ProvSet::single(0));
        s.set_prov_byte(20, ProvSet::single(2));
        s.set_prov_byte(20, ProvSet::EMPTY); // cleared entries never visited
        let mut seen = Vec::new();
        s.for_each_prov(|paddr, p| seen.push((paddr, p)));
        assert_eq!(
            seen,
            vec![
                (10, ProvSet::single(0)),
                (SHADOW_PAGE as u64 + 30, ProvSet::single(1))
            ]
        );
    }

    #[test]
    fn buffer_runs_round_trip_up_to_the_page_end() {
        let mut s = ShadowMem::new();
        // The run ends on the last byte of the page.
        let base = SHADOW_PAGE as u64 - 6;
        let masks = [1u8, 0, 2, 3, 0, 4];
        s.write_masks(base, &masks);
        assert_eq!(s.tainted_bytes(), 4);
        let mut back = [0u8; 6];
        s.read_masks(base, &mut back);
        assert_eq!(back, masks);
        let provs = [ProvSet::single(0), ProvSet::EMPTY, ProvSet::single(5)];
        s.write_provs(base + 1, &provs);
        let mut pback = [ProvSet::EMPTY; 3];
        s.read_provs(base + 1, &mut pback);
        assert_eq!(pback, provs);
        assert_eq!(s.provenanced_bytes(), 2);
        s.write_masks(base, &[0; 6]);
        s.write_provs(base + 1, &[ProvSet::EMPTY; 3]);
        assert!(s.is_idle());
        assert_eq!(s.provenanced_bytes(), 0);
    }
}
