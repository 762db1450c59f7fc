//! Property tests: shadow memory agrees with a naive model map, and the
//! tainted-byte counter is always exact. The fused mask + provenance shadow
//! is checked against a per-byte reference map, including accesses that
//! straddle a shadow page, and its visits must not depend on allocation
//! history (state digests hash them).

use chaser_taint::{ProvSet, ShadowMem, TaintMask, TaintPolicy, TaintState};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone)]
enum Op {
    SetByte(u64, u8),
    Store8(u64, u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Confine addresses to a few pages so operations actually collide.
    let addr = 0u64..3 * 4096;
    prop_oneof![
        (addr.clone(), any::<u8>()).prop_map(|(a, m)| Op::SetByte(a, m)),
        (addr, any::<u64>()).prop_map(|(a, m)| Op::Store8(a, m)),
    ]
}

proptest! {
    #[test]
    fn shadow_matches_model(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let mut shadow = ShadowMem::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for op in &ops {
            match *op {
                Op::SetByte(addr, mask) => {
                    shadow.set_byte(addr, mask);
                    if mask == 0 {
                        model.remove(&addr);
                    } else {
                        model.insert(addr, mask);
                    }
                }
                Op::Store8(addr, mask) => {
                    shadow.store8(addr, TaintMask(mask));
                    for i in 0..8u64 {
                        let byte = (mask >> (8 * i)) as u8;
                        if byte == 0 {
                            model.remove(&(addr + i));
                        } else {
                            model.insert(addr + i, byte);
                        }
                    }
                }
            }
        }
        // Counter is exact.
        prop_assert_eq!(shadow.tainted_bytes(), model.len());
        // Every model byte reads back; spot-check some clean bytes too.
        for (&addr, &mask) in &model {
            prop_assert_eq!(shadow.byte(addr), mask);
        }
        for addr in (0..3 * 4096).step_by(97) {
            prop_assert_eq!(shadow.byte(addr), model.get(&addr).copied().unwrap_or(0));
        }
    }

    #[test]
    fn load8_equals_byte_assembly(stores in proptest::collection::vec((0u64..4096, any::<u64>()), 1..50), probe in 0u64..4096) {
        let mut shadow = ShadowMem::new();
        for (addr, mask) in &stores {
            shadow.store8(*addr, TaintMask(*mask));
        }
        let assembled: [u8; 8] = std::array::from_fn(|i| shadow.byte(probe + i as u64));
        prop_assert_eq!(shadow.load8(probe), TaintMask::from_bytes(assembled));
    }
}

/// One operation on the fused shadow, driven through [`TaintState`] so the
/// provenance gate and `mem_idle` are exercised too.
#[derive(Debug, Clone)]
enum FusedOp {
    SetByte(u64, u8),
    SetProvByte(u64, ProvSet),
    /// Mask + mask-gated provenance (the guest store path).
    Store8(u64, u64, ProvSet),
    /// Mask only, provenance untouched.
    Store8Mask(u64, u64),
    /// A buffer of masks (the MPI receive path).
    WriteMasks(u64, Vec<u8>),
    /// A buffer of provenance sets (the MPI receive path).
    WriteProvs(u64, Vec<ProvSet>),
    Load8(u64),
    Clear,
}

/// Addresses over three pages, mostly in small windows at the start and
/// end of each page so accesses collide, and often in the last 7 bytes of
/// a page so 8-byte accesses straddle a page boundary and buffers end there.
fn arb_addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..3 * 4096,
        (0u64..3, 0u64..32).prop_map(|(page, off)| page * 4096 + off),
        (0u64..3, 4064u64..4096).prop_map(|(page, off)| page * 4096 + off),
        (0u64..3, 4089u64..4096).prop_map(|(page, off)| page * 4096 + off),
    ]
}

/// Masks with many clean bytes, so overwrites often clean.
fn arb_mask() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        any::<u64>(),
        (any::<u8>(), 0u32..8).prop_map(|(b, i)| u64::from(b) << (8 * i)),
    ]
}

fn arb_prov() -> impl Strategy<Value = ProvSet> {
    prop_oneof![
        Just(ProvSet::EMPTY),
        (0u32..40).prop_map(ProvSet::single),
        any::<u32>().prop_map(ProvSet::from_bits),
    ]
}

fn arb_fused_op() -> impl Strategy<Value = FusedOp> {
    prop_oneof![
        (arb_addr(), any::<u8>()).prop_map(|(a, m)| FusedOp::SetByte(a, m)),
        (arb_addr(), arb_prov()).prop_map(|(a, p)| FusedOp::SetProvByte(a, p)),
        (arb_addr(), arb_mask(), arb_prov()).prop_map(|(a, m, p)| FusedOp::Store8(a, m, p)),
        (arb_addr(), arb_mask(), arb_prov()).prop_map(|(a, m, p)| FusedOp::Store8(a, m, p)),
        (arb_addr(), arb_mask()).prop_map(|(a, m)| FusedOp::Store8Mask(a, m)),
        (arb_addr(), proptest::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(a, v)| FusedOp::WriteMasks(a, v)),
        (arb_addr(), proptest::collection::vec(arb_prov(), 0..24))
            .prop_map(|(a, v)| FusedOp::WriteProvs(a, v)),
        arb_addr().prop_map(FusedOp::Load8),
        arb_addr().prop_map(FusedOp::Load8),
        (0u8..20).prop_map(|_| FusedOp::Clear),
    ]
}

/// The per-byte reference: an entry iff the byte has a mask or provenance.
#[derive(Default)]
struct Reference(BTreeMap<u64, (u8, ProvSet)>);

impl Reference {
    fn get(&self, addr: u64) -> (u8, ProvSet) {
        self.0.get(&addr).copied().unwrap_or((0, ProvSet::EMPTY))
    }

    fn update(&mut self, addr: u64, f: impl FnOnce(&mut (u8, ProvSet))) {
        let mut e = self.get(addr);
        f(&mut e);
        if e.0 == 0 && e.1.is_empty() {
            self.0.remove(&addr);
        } else {
            self.0.insert(addr, e);
        }
    }

    fn load8(&self, addr: u64) -> (TaintMask, ProvSet) {
        let mut prov = ProvSet::EMPTY;
        let bytes = std::array::from_fn(|i| {
            let (m, p) = self.get(addr + i as u64);
            prov = prov.union(p);
            m
        });
        (TaintMask::from_bytes(bytes), prov)
    }

    fn tainted_bytes(&self) -> usize {
        self.0.values().filter(|(m, _)| *m != 0).count()
    }

    fn prov_visit(&self) -> Vec<(u64, ProvSet)> {
        self.0
            .iter()
            .filter(|(_, (_, p))| !p.is_empty())
            .map(|(&a, &(_, p))| (a, p))
            .collect()
    }

    /// `(page base, masks)` of every page holding a tainted byte.
    fn page_visit(&self) -> Vec<(u64, Vec<u8>)> {
        let mut pages: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for (&a, &(m, _)) in &self.0 {
            if m != 0 {
                pages
                    .entry(a / 4096 * 4096)
                    .or_insert_with(|| vec![0; 4096])[(a % 4096) as usize] = m;
            }
        }
        pages.into_iter().collect()
    }
}

fn page_visit(shadow: &ShadowMem) -> Vec<(u64, Vec<u8>)> {
    let mut seen = Vec::new();
    shadow.for_each_tainted_page(|base, masks| seen.push((base, masks.to_vec())));
    seen
}

fn prov_visit(shadow: &ShadowMem) -> Vec<(u64, ProvSet)> {
    let mut seen = Vec::new();
    shadow.for_each_prov(|paddr, p| seen.push((paddr, p)));
    seen
}

/// How many of the `len` bytes at `addr` fit in its page: buffer runs
/// stop at the page end, as the guest-buffer walk splits them.
fn in_page(addr: u64, len: usize) -> usize {
    len.min((4096 - addr % 4096) as usize)
}

/// Applies `op` to the state and the reference; for a load, checks it.
fn apply(
    state: &mut TaintState,
    reference: &mut Reference,
    op: &FusedOp,
) -> Result<(), TestCaseError> {
    match op {
        FusedOp::SetByte(a, m) => {
            state.mem_mut().set_byte(*a, *m);
            reference.update(*a, |e| e.0 = *m);
        }
        FusedOp::SetProvByte(a, p) => {
            state.set_prov_byte(*a, *p);
            reference.update(*a, |e| e.1 = *p);
        }
        FusedOp::Store8(a, m, p) => {
            state.store8_with_prov(*a, TaintMask(*m), *p);
            for i in 0..8 {
                let byte = TaintMask(*m).byte(i);
                let bp = if byte != 0 { *p } else { ProvSet::EMPTY };
                reference.update(a + i as u64, |e| *e = (byte, bp));
            }
        }
        FusedOp::Store8Mask(a, m) => {
            state.mem_mut().store8(*a, TaintMask(*m));
            for i in 0..8 {
                reference.update(a + i as u64, |e| e.0 = TaintMask(*m).byte(i));
            }
        }
        FusedOp::WriteMasks(a, v) => {
            let v = &v[..in_page(*a, v.len())];
            state.mem_mut().write_masks(*a, v);
            for (i, m) in v.iter().enumerate() {
                reference.update(a + i as u64, |e| e.0 = *m);
            }
        }
        FusedOp::WriteProvs(a, v) => {
            let v = &v[..in_page(*a, v.len())];
            state.write_provs(*a, v);
            for (i, p) in v.iter().enumerate() {
                reference.update(a + i as u64, |e| e.1 = *p);
            }
        }
        FusedOp::Load8(a) => {
            let expect = reference.load8(*a);
            prop_assert_eq!(state.load8_with_prov(*a), expect);
            prop_assert_eq!(state.mem().load8_prov(*a), expect);
            prop_assert_eq!(state.mem().load8(*a), expect.0);
            let n = in_page(*a, 11);
            let mut masks = [0u8; 11];
            state.mem().read_masks(*a, &mut masks[..n]);
            let mut provs = [ProvSet::EMPTY; 11];
            state.read_provs(*a, &mut provs[..n]);
            for i in 0..n {
                let (m, p) = reference.get(a + i as u64);
                prop_assert_eq!(masks[i], m);
                prop_assert_eq!(provs[i], p);
            }
        }
        FusedOp::Clear => {
            state.clear();
            reference.0.clear();
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn fused_shadow_matches_per_byte_reference(
        ops in proptest::collection::vec(arb_fused_op(), 1..120)
    ) {
        let mut state = TaintState::new(TaintPolicy::Precise);
        let mut reference = Reference::default();
        for op in &ops {
            apply(&mut state, &mut reference, op)?;
            let tainted = reference.tainted_bytes();
            let provenanced = reference.prov_visit().len();
            prop_assert_eq!(state.mem().tainted_bytes(), tainted);
            prop_assert_eq!(state.mem().provenanced_bytes(), provenanced);
            prop_assert_eq!(state.mem().is_idle(), tainted == 0);
            prop_assert_eq!(state.mem_idle(), tainted == 0 && provenanced == 0);
        }
        prop_assert_eq!(prov_visit(state.mem()), reference.prov_visit());
        prop_assert_eq!(page_visit(state.mem()), reference.page_visit());
        for &a in reference.0.keys() {
            prop_assert_eq!(
                (state.mem().byte(a), state.prov_byte(a)),
                reference.get(a)
            );
        }
    }

    #[test]
    fn visits_ignore_allocation_history(
        ops in proptest::collection::vec(arb_fused_op(), 1..120)
    ) {
        // One shadow reaches its contents through arbitrary churn (pages
        // allocated, provenance arrays grown, bytes cleaned again)...
        let mut churned = TaintState::new(TaintPolicy::Precise);
        let mut reference = Reference::default();
        for op in &ops {
            apply(&mut churned, &mut reference, op)?;
        }
        // ...the other writes only the final contents, highest address
        // first.
        let mut direct = TaintState::new(TaintPolicy::Precise);
        for (&a, &(m, p)) in reference.0.iter().rev() {
            direct.mem_mut().set_byte(a, m);
            direct.set_prov_byte(a, p);
        }
        prop_assert_eq!(page_visit(churned.mem()), page_visit(direct.mem()));
        prop_assert_eq!(prov_visit(churned.mem()), prov_visit(direct.mem()));
        prop_assert_eq!(churned.mem_idle(), direct.mem_idle());
    }
}
