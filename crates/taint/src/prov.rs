//! Fault provenance: *which* injected fault(s) a tainted location derives
//! from, carried in parallel with the taint masks.
//!
//! Taint masks answer "is this bit corrupted"; provenance answers "by which
//! injection". Chaser runs are single-fault, but merged taint (reductions,
//! re-injection campaigns, warm-started runs replaying multiple faults)
//! can mix sources, so provenance is a *set* of fault ids. The set is a
//! fixed 32-bit bitmask: fault ids 0..=30 get their own bit and everything
//! above shares bit 31, so membership stays `Copy` and costs one `or` per
//! propagation step.
//!
//! Per-byte provenance over guest memory lives beside the taint masks in
//! [`crate::ShadowMem`].

/// A set of fault (injection) ids, as a 32-bit bitmask.
///
/// Ids `0..=30` map to their own bit; ids `>= 31` saturate into bit 31, so
/// a pathological campaign step with dozens of live faults still tracks
/// "some late fault" without growing the representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct ProvSet(u32);

impl ProvSet {
    /// The empty set: no fault contributed to this location.
    pub const EMPTY: ProvSet = ProvSet(0);

    /// The set containing exactly fault `id` (saturating at bit 31).
    pub fn single(id: u32) -> ProvSet {
        ProvSet(1u32 << id.min(31))
    }

    /// Set union.
    pub fn union(self, other: ProvSet) -> ProvSet {
        ProvSet(self.0 | other.0)
    }

    /// True when no fault id is present.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when fault `id` (saturated like [`ProvSet::single`]) is present.
    pub fn contains(self, id: u32) -> bool {
        self.0 & ProvSet::single(id).0 != 0
    }

    /// The raw bitmask (for serialization).
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Rebuilds a set from [`ProvSet::bits`].
    pub fn from_bits(bits: u32) -> ProvSet {
        ProvSet(bits)
    }

    /// The member ids in ascending order (bit 31 reported as id 31, the
    /// saturation bucket).
    pub fn ids(self) -> Vec<u32> {
        (0..32).filter(|&i| self.0 & (1 << i) != 0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_and_union_track_membership() {
        let p = ProvSet::single(0).union(ProvSet::single(3));
        assert!(p.contains(0));
        assert!(p.contains(3));
        assert!(!p.contains(1));
        assert_eq!(p.ids(), vec![0, 3]);
    }

    #[test]
    fn large_ids_saturate_into_bit_31() {
        let p = ProvSet::single(31).union(ProvSet::single(1000));
        assert_eq!(p.ids(), vec![31]);
        assert!(p.contains(31));
        assert!(p.contains(1000)); // indistinguishable from 31 by design
    }

    #[test]
    fn empty_set_is_empty() {
        assert!(ProvSet::EMPTY.is_empty());
        assert!(!ProvSet::single(5).is_empty());
        assert_eq!(
            ProvSet::from_bits(ProvSet::single(5).bits()),
            ProvSet::single(5)
        );
    }
}
