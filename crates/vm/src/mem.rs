//! Guest physical memory and frame allocation.
//!
//! Memory is page-granular and lazily materialised: a page holds no storage
//! until first written, reads of untouched pages serve a shared zero page.
//! Pages are either `Owned` (private, writable in place) or `Shared`
//! (`Arc`-backed, adopted from a [`MemSnapshot`]); writing a `Shared` page
//! copies it on write. This is what lets a whole cluster checkpoint be
//! shared across campaign workers the way the layered TB cache shares
//! translations: the snapshot holds `Arc`s to frozen pages, every restored
//! node starts by referencing them, and only pages the suffix execution
//! actually dirties are ever copied.

use chaser_isa::PAGE_SIZE;
use std::fmt;
use std::sync::Arc;

/// Default physical memory per node: 64 MiB, plenty for the paper's
/// mini-app workloads while keeping thousands of campaign runs cheap.
pub const DEFAULT_PHYS_BYTES: u64 = 64 << 20;

/// Page size in bytes as a usize index width.
const PAGE_BYTES: usize = PAGE_SIZE as usize;

/// One physical page.
type Page = [u8; PAGE_BYTES];

/// The canonical all-zero page served for reads of never-written pages.
static ZERO_PAGE: Page = [0u8; PAGE_BYTES];

/// Why a guest memory access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFaultKind {
    /// No mapping for the page.
    Unmapped,
    /// Mapping exists but forbids the access (write to read-only, execute
    /// of non-executable).
    Protection,
}

/// A guest memory fault; the kernel turns this into `SIGSEGV`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting guest virtual address.
    pub vaddr: u64,
    /// The fault kind.
    pub kind: MemFaultKind,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            MemFaultKind::Unmapped => write!(f, "unmapped guest address {:#x}", self.vaddr),
            MemFaultKind::Protection => write!(f, "protection fault at {:#x}", self.vaddr),
        }
    }
}

impl std::error::Error for MemFault {}

/// Backing storage for one resident physical page.
#[derive(Clone)]
enum PageState {
    /// Private storage, written in place.
    Owned(Box<Page>),
    /// Frozen storage adopted from a snapshot; copied on first write.
    Shared(Arc<Page>),
}

impl PageState {
    fn bytes(&self) -> &Page {
        match self {
            PageState::Owned(p) => p,
            PageState::Shared(p) => p,
        }
    }
}

/// Copy-on-write / dirty-page counters for one `PhysMemory`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Pages adopted as `Arc`-shared (zero-copy) when this memory was
    /// restored from a snapshot.
    pub pages_shared: u64,
    /// Shared pages privatised by a write since then (the run's dirty set).
    pub pages_cow: u64,
}

impl MemStats {
    /// Accumulates `other` into `self` (for cluster- and campaign-level
    /// aggregation).
    pub fn absorb(&mut self, other: &MemStats) {
        self.pages_shared += other.pages_shared;
        self.pages_cow += other.pages_cow;
    }
}

/// A frozen, `Arc`-shared image of a `PhysMemory`, cheap to clone and safe
/// to hand to many worker threads at once. Holds slots only up to the
/// highest page ever written (never beyond the frames handed out, in
/// practice) and never-written pages stay `None`, so a snapshot costs
/// storage proportional to the touched frames, not to the node's capacity.
#[derive(Debug, Clone)]
pub struct MemSnapshot {
    pages: Vec<Option<Arc<Page>>>,
    capacity_pages: usize,
    next_frame: u64,
}

impl MemSnapshot {
    /// Number of resident (captured) pages in the snapshot.
    pub fn resident_pages(&self) -> u64 {
        self.pages.iter().filter(|p| p.is_some()).count() as u64
    }
}

/// One node's physical memory plus a bump frame allocator.
///
/// Frames are never freed: campaign runs are short-lived and each run gets
/// a fresh node, so reclamation buys nothing and would complicate the
/// deterministic replay story.
///
/// The page table is sparse: capacity is a number, and the slot vector
/// grows only up to the highest page written so far. A fresh or restored
/// node therefore allocates nothing proportional to its capacity.
///
/// All multi-byte accessors (`read_u64`, `read_bytes`, ...) require the
/// access to stay within one physical page. Every caller honours this:
/// frames are page-aligned and the paging layer chunks virtually-contiguous
/// accesses per page before touching physical memory.
#[derive(Clone)]
pub struct PhysMemory {
    pages: Vec<Option<PageState>>,
    capacity_pages: usize,
    next_frame: u64,
    stats: MemStats,
}

impl PhysMemory {
    /// Allocates `size` bytes of zeroed guest RAM (rounded up to a page).
    /// Storage is lazy: untouched pages occupy no memory.
    pub fn new(size: u64) -> PhysMemory {
        PhysMemory {
            pages: Vec::new(),
            capacity_pages: size.div_ceil(PAGE_SIZE) as usize,
            next_frame: 0,
            stats: MemStats::default(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity_pages as u64 * PAGE_SIZE
    }

    /// Allocates one zeroed frame, returning its physical base address, or
    /// `None` when RAM is exhausted. The frame's storage stays lazy until
    /// first written.
    pub fn alloc_frame(&mut self) -> Option<u64> {
        let base = self.next_frame;
        if base + PAGE_SIZE > self.capacity() {
            return None;
        }
        self.next_frame += PAGE_SIZE;
        Some(base)
    }

    /// The resident page backing `paddr` for reads, or the zero page.
    #[inline]
    fn page(&self, paddr: u64) -> &Page {
        let idx = (paddr / PAGE_SIZE) as usize;
        match self.pages.get(idx) {
            Some(Some(state)) => state.bytes(),
            _ => {
                self.check_capacity(idx);
                &ZERO_PAGE
            }
        }
    }

    /// Panics when page `idx` lies beyond capacity: physical addresses only
    /// come from the page tables, so this is a VM bug, not a guest fault.
    #[inline]
    fn check_capacity(&self, idx: usize) {
        assert!(
            idx < self.capacity_pages,
            "physical page {idx} beyond capacity ({} pages)",
            self.capacity_pages
        );
    }

    /// The private, writable page backing `paddr`, materialising zero pages
    /// and copying shared pages on demand.
    #[inline]
    fn page_mut(&mut self, paddr: u64) -> &mut Page {
        let idx = (paddr / PAGE_SIZE) as usize;
        if !matches!(self.pages.get(idx), Some(Some(PageState::Owned(_)))) {
            self.own_page(idx);
        }
        match &mut self.pages[idx] {
            Some(PageState::Owned(p)) => p,
            _ => unreachable!("own_page installed an owned page"),
        }
    }

    /// Makes page `idx`, which is not owned yet, private: copies a shared
    /// page (counting the copy-on-write) or materialises a zero page,
    /// growing the slot vector up to `idx` when needed.
    #[cold]
    #[inline(never)]
    fn own_page(&mut self, idx: usize) {
        self.check_capacity(idx);
        if idx >= self.pages.len() {
            self.pages.resize(idx + 1, None);
        }
        let slot = &mut self.pages[idx];
        let page = match slot {
            Some(PageState::Shared(shared)) => {
                self.stats.pages_cow += 1;
                Box::new(**shared)
            }
            _ => Box::new(ZERO_PAGE),
        };
        *slot = Some(PageState::Owned(page));
    }

    /// Reads one byte of physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `paddr` is beyond capacity — physical addresses only come
    /// from the page tables, so this indicates a VM bug, not a guest fault.
    pub fn read_u8(&self, paddr: u64) -> u8 {
        self.page(paddr)[(paddr % PAGE_SIZE) as usize]
    }

    /// Writes one byte of physical memory.
    pub fn write_u8(&mut self, paddr: u64, v: u8) {
        self.page_mut(paddr)[(paddr % PAGE_SIZE) as usize] = v;
    }

    /// Reads a little-endian u64 that must not cross a physical page
    /// boundary (frames are page-aligned, so the paging layer's fast path
    /// guarantees this).
    #[inline]
    pub fn read_u64(&self, paddr: u64) -> u64 {
        let off = (paddr % PAGE_SIZE) as usize;
        debug_assert!(off + 8 <= PAGE_BYTES, "u64 read crosses a page");
        u64::from_le_bytes(self.page(paddr)[off..off + 8].try_into().expect("8 bytes"))
    }

    /// Writes a little-endian u64 (same single-page contract as
    /// [`PhysMemory::read_u64`]).
    #[inline]
    pub fn write_u64(&mut self, paddr: u64, v: u64) {
        let off = (paddr % PAGE_SIZE) as usize;
        debug_assert!(off + 8 <= PAGE_BYTES, "u64 write crosses a page");
        self.page_mut(paddr)[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Borrows bytes out of physical memory. The range must stay within one
    /// physical page (all callers chunk per page).
    pub fn read_bytes(&self, paddr: u64, len: usize) -> &[u8] {
        let off = (paddr % PAGE_SIZE) as usize;
        debug_assert!(off + len <= PAGE_BYTES, "read crosses a physical page");
        &self.page(paddr)[off..off + len]
    }

    /// Copies bytes into physical memory (single-page contract as above).
    pub fn write_bytes(&mut self, paddr: u64, data: &[u8]) {
        let off = (paddr % PAGE_SIZE) as usize;
        debug_assert!(
            off + data.len() <= PAGE_BYTES,
            "write crosses a physical page"
        );
        self.page_mut(paddr)[off..off + data.len()].copy_from_slice(data);
    }

    /// Copy-on-write counters for this memory.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Freezes the current contents into an `Arc`-shared [`MemSnapshot`].
    ///
    /// Owned pages are converted to shared in place (no copy), so taking a
    /// snapshot is cheap and the snapshotted memory keeps working — its next
    /// write to any captured page simply pays one CoW copy.
    pub fn snapshot(&mut self) -> MemSnapshot {
        let pages = self
            .pages
            .iter_mut()
            .map(|slot| match slot.take() {
                None => None,
                Some(PageState::Shared(a)) => {
                    *slot = Some(PageState::Shared(Arc::clone(&a)));
                    Some(a)
                }
                Some(PageState::Owned(b)) => {
                    let a: Arc<Page> = Arc::from(b);
                    *slot = Some(PageState::Shared(Arc::clone(&a)));
                    Some(a)
                }
            })
            .collect();
        MemSnapshot {
            pages,
            capacity_pages: self.capacity_pages,
            next_frame: self.next_frame,
        }
    }

    /// Reconstructs a memory from a snapshot. Every captured page is
    /// adopted zero-copy as `Shared`; writes privatise pages on demand.
    pub fn from_snapshot(snap: &MemSnapshot) -> PhysMemory {
        let mut shared = 0u64;
        let pages = snap
            .pages
            .iter()
            .map(|p| {
                p.as_ref().map(|a| {
                    shared += 1;
                    PageState::Shared(Arc::clone(a))
                })
            })
            .collect();
        PhysMemory {
            pages,
            capacity_pages: snap.capacity_pages,
            next_frame: snap.next_frame,
            stats: MemStats {
                pages_shared: shared,
                pages_cow: 0,
            },
        }
    }

    /// Visits every resident page in address order as `(base_paddr, bytes)`.
    /// Never-written pages are skipped; because page residency is a
    /// deterministic function of the writes executed, two equivalent
    /// executions visit identical sequences — which is what makes this
    /// usable for state digests.
    pub fn for_each_resident_page(&self, mut f: impl FnMut(u64, &[u8])) {
        for (idx, slot) in self.pages.iter().enumerate() {
            if let Some(state) = slot {
                f(idx as u64 * PAGE_SIZE, state.bytes());
            }
        }
    }
}

impl fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysMemory")
            .field("capacity", &self.capacity())
            .field("next_frame", &self.next_frame)
            .field(
                "resident_pages",
                &self.pages.iter().filter(|p| p.is_some()).count(),
            )
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for PhysMemory {
    fn default() -> PhysMemory {
        PhysMemory::new(DEFAULT_PHYS_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_distinct_and_page_aligned() {
        let mut m = PhysMemory::new(4 * PAGE_SIZE);
        let a = m.alloc_frame().expect("frame a");
        let b = m.alloc_frame().expect("frame b");
        assert_ne!(a, b);
        assert_eq!(a % PAGE_SIZE, 0);
        assert_eq!(b % PAGE_SIZE, 0);
    }

    #[test]
    fn allocation_exhausts() {
        let mut m = PhysMemory::new(2 * PAGE_SIZE);
        assert!(m.alloc_frame().is_some());
        assert!(m.alloc_frame().is_some());
        assert!(m.alloc_frame().is_none());
    }

    #[test]
    fn u64_round_trip() {
        let mut m = PhysMemory::new(PAGE_SIZE);
        m.write_u64(16, 0xdead_beef_0bad_cafe);
        assert_eq!(m.read_u64(16), 0xdead_beef_0bad_cafe);
        assert_eq!(m.read_u8(16), 0xfe);
    }

    #[test]
    fn capacity_rounds_up_to_page() {
        let m = PhysMemory::new(PAGE_SIZE + 1);
        assert_eq!(m.capacity(), 2 * PAGE_SIZE);
    }

    #[test]
    fn untouched_pages_read_zero_and_stay_lazy() {
        let m = PhysMemory::new(8 * PAGE_SIZE);
        assert_eq!(m.read_u8(3 * PAGE_SIZE + 7), 0);
        assert_eq!(m.read_u64(5 * PAGE_SIZE), 0);
        assert_eq!(m.read_bytes(PAGE_SIZE, 16), &[0u8; 16]);
        let mut resident = 0;
        m.for_each_resident_page(|_, _| resident += 1);
        assert_eq!(resident, 0, "reads must not materialise pages");
    }

    #[test]
    fn snapshot_restore_round_trips_contents() {
        let mut m = PhysMemory::new(4 * PAGE_SIZE);
        m.write_u64(8, 0x1111_2222_3333_4444);
        m.write_bytes(2 * PAGE_SIZE + 100, b"hello");
        let snap = m.snapshot();
        assert_eq!(snap.resident_pages(), 2);

        let r = PhysMemory::from_snapshot(&snap);
        assert_eq!(r.read_u64(8), 0x1111_2222_3333_4444);
        assert_eq!(r.read_bytes(2 * PAGE_SIZE + 100, 5), b"hello");
        assert_eq!(r.read_u8(3 * PAGE_SIZE), 0);
        assert_eq!(r.stats().pages_shared, 2);
        assert_eq!(r.stats().pages_cow, 0);
    }

    #[test]
    fn writes_after_restore_copy_on_write_without_disturbing_the_snapshot() {
        let mut m = PhysMemory::new(2 * PAGE_SIZE);
        m.write_u8(0, 0xAA);
        let snap = m.snapshot();

        let mut a = PhysMemory::from_snapshot(&snap);
        let mut b = PhysMemory::from_snapshot(&snap);
        a.write_u8(0, 0xBB);
        assert_eq!(a.read_u8(0), 0xBB);
        assert_eq!(b.read_u8(0), 0xAA, "sibling restore unaffected");
        assert_eq!(a.stats().pages_cow, 1);
        // Repeated writes to an already-privatised page cost nothing more.
        a.write_u8(1, 0xCC);
        assert_eq!(a.stats().pages_cow, 1);
        b.write_u8(PAGE_SIZE, 1);
        assert_eq!(b.stats().pages_cow, 0, "fresh zero page is not a CoW");
        // A third restore still sees the original byte.
        assert_eq!(PhysMemory::from_snapshot(&snap).read_u8(0), 0xAA);
    }

    #[test]
    fn snapshotted_memory_keeps_working_after_capture() {
        let mut m = PhysMemory::new(2 * PAGE_SIZE);
        m.write_u8(10, 1);
        let snap = m.snapshot();
        m.write_u8(10, 2);
        assert_eq!(m.read_u8(10), 2);
        assert_eq!(PhysMemory::from_snapshot(&snap).read_u8(10), 1);
        assert_eq!(m.stats().pages_cow, 1, "post-capture write pays one CoW");
    }

    #[test]
    fn slots_track_touched_frames_not_capacity() {
        let mut m = PhysMemory::default();
        assert!(m.pages.is_empty(), "a fresh node allocates no slots");
        let a = m.alloc_frame().expect("frame a");
        let b = m.alloc_frame().expect("frame b");
        m.write_u8(b + 3, 7);
        assert_eq!(m.pages.len(), 2);
        assert_eq!(m.read_u8(a), 0);
        let snap = m.snapshot();
        assert_eq!(snap.pages.len(), 2, "snapshot pins only touched frames");
        let r = PhysMemory::from_snapshot(&snap);
        assert_eq!(r.pages.len(), 2);
        assert_eq!(r.capacity(), DEFAULT_PHYS_BYTES);
        assert_eq!(r.read_u8(b + 3), 7);
        // Reads of untouched frames inside capacity stay lazy.
        assert_eq!(r.read_u64(100 * PAGE_SIZE), 0);
        assert_eq!(r.pages.len(), 2);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn write_beyond_capacity_panics() {
        let mut m = PhysMemory::new(2 * PAGE_SIZE);
        m.write_u8(2 * PAGE_SIZE, 1);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn restored_write_beyond_capacity_panics() {
        let mut m = PhysMemory::new(2 * PAGE_SIZE);
        m.write_u8(0, 1);
        let mut r = PhysMemory::from_snapshot(&m.snapshot());
        r.write_u64(2 * PAGE_SIZE + 8, 1);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn read_beyond_capacity_panics() {
        let m = PhysMemory::new(2 * PAGE_SIZE);
        m.read_u8(5 * PAGE_SIZE);
    }

    #[test]
    fn frame_allocator_state_survives_snapshot() {
        let mut m = PhysMemory::new(4 * PAGE_SIZE);
        let a = m.alloc_frame().expect("frame");
        m.write_u8(a, 9);
        let snap = m.snapshot();
        let mut r = PhysMemory::from_snapshot(&snap);
        let b = r.alloc_frame().expect("next frame");
        assert_eq!(b, a + PAGE_SIZE, "bump pointer restored");
    }
}
