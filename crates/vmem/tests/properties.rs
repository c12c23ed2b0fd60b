//! Property-based tests for virtual memory: the timed translator always
//! agrees with the page-table oracle, for arbitrary mappings and access
//! orders. Randomized cases come from fixed seeds.

use tracegc_mem::{CacheConfig, MemSystem, PhysMem};
use tracegc_sim::rng::{Rng, StdRng};
use tracegc_vmem::{AddressSpace, FrameAlloc, Requester, Tlb, TlbConfig, Translator, PAGE_SIZE};

fn case_rng(property: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(0x7AB0_0000 + property * 10_007 + case)
}

#[test]
fn translator_matches_oracle_for_random_access_orders() {
    // Page-table walks through the full memory model are the costly
    // part, so this property uses fewer, larger cases.
    for case in 0..48 {
        let mut rng = case_rng(1, case);
        let pages = rng.random_range(1u64..64);
        let l1 = rng.random_range(1usize..64);
        let l2 = rng.random_range(1usize..256);
        let walks = rng.random_range(1usize..4);

        let mut phys = PhysMem::new(32 << 20);
        let mut falloc = FrameAlloc::new(0, 32 << 20);
        let aspace = AddressSpace::new(&mut phys, &mut falloc);
        let base = 0x4000_0000u64;
        aspace.map_range(&mut phys, &mut falloc, base, pages * PAGE_SIZE);

        let cfg = TlbConfig {
            l1_entries: l1,
            l2_entries: l2,
            concurrent_walks: walks,
            ..TlbConfig::default()
        };
        let mut tr = Translator::new(aspace, cfg);
        let mut mem = MemSystem::pipe(Default::default());
        let mut now = 0;
        for _ in 0..rng.random_range(1usize..200) {
            let page = rng.random_range(0u64..64);
            let offset = rng.random_range(0u64..4096);
            let va = base + (page % pages) * PAGE_SIZE + (offset & !7);
            let (pa, t) = tr
                .translate(Requester::Marker, va, now, &mut mem, &phys)
                .expect("mapped");
            assert_eq!(Some(pa), aspace.translate(&phys, va), "case {case}");
            assert!(t >= now, "case {case}");
            now = t;
        }
    }
}

#[test]
fn tlb_never_returns_a_wrong_translation() {
    for case in 0..100 {
        let mut rng = case_rng(2, case);
        let capacity = rng.random_range(1usize..32);
        let mut tlb = Tlb::new(capacity);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..rng.random_range(1usize..200) {
            let vpn = rng.random_range(0u64..128);
            let ppn = rng.random_range(0u64..128);
            tlb.insert(vpn * PAGE_SIZE, ppn * PAGE_SIZE);
            truth.insert(vpn, ppn);
        }
        for _ in 0..rng.random_range(1usize..200) {
            let vpn = rng.random_range(0u64..128);
            if let Some(pa) = tlb.lookup(vpn * PAGE_SIZE + 8) {
                // A hit must agree with the last inserted mapping.
                assert_eq!(pa, truth[&vpn] * PAGE_SIZE + 8, "case {case}");
            }
        }
    }
}

#[test]
fn tlb_capacity_is_never_exceeded() {
    for case in 0..100 {
        let mut rng = case_rng(3, case);
        let capacity = rng.random_range(1usize..16);
        let mut tlb = Tlb::new(capacity);
        for _ in 0..rng.random_range(1usize..300) {
            let vpn = rng.random_range(0u64..256);
            tlb.insert(vpn * PAGE_SIZE, vpn * PAGE_SIZE);
            assert!(tlb.len() <= capacity, "case {case}");
        }
    }
}

#[test]
fn walk_path_lengths_are_bounded() {
    for case in 0..100 {
        let mut rng = case_rng(4, case);
        let pages = rng.random_range(1u64..32);
        let probe = rng.random_range(0u64..64);
        let mut phys = PhysMem::new(16 << 20);
        let mut falloc = FrameAlloc::new(0, 16 << 20);
        let aspace = AddressSpace::new(&mut phys, &mut falloc);
        let base = 0x4000_0000u64;
        aspace.map_range(&mut phys, &mut falloc, base, pages * PAGE_SIZE);
        let path = aspace.walk_path(&phys, base + probe * PAGE_SIZE);
        assert!((1..=3).contains(&path.len()), "case {case}");
        if probe < pages {
            assert_eq!(
                path.len(),
                3,
                "case {case}: mapped page must walk to the leaf"
            );
        }
    }
}

#[test]
fn translator_uses_external_cache_identically() {
    // A translator walking through the shared topology's 16 KiB cache
    // must produce the same physical addresses as one walking through
    // the dedicated PTW cache (timing may differ with cache geometry).
    let mut phys = PhysMem::new(16 << 20);
    let mut falloc = FrameAlloc::new(0, 16 << 20);
    let aspace = AddressSpace::new(&mut phys, &mut falloc);
    let base = 0x4000_0000u64;
    aspace.map_range(&mut phys, &mut falloc, base, 8 * PAGE_SIZE);
    let mut internal = Translator::new(aspace, TlbConfig::default());
    let shared = TlbConfig {
        ptw_cache: CacheConfig::hwgc_shared(),
        ..TlbConfig::default()
    };
    let mut external = Translator::new(aspace, shared);
    let mut mem = MemSystem::pipe(Default::default());
    for i in 0..8 {
        let va = base + i * PAGE_SIZE + 16;
        let (pa1, _) = internal
            .translate(Requester::Tracer, va, 0, &mut mem, &phys)
            .unwrap();
        let (pa2, _) = external
            .translate(Requester::Tracer, va, 0, &mut mem, &phys)
            .unwrap();
        assert_eq!(pa1, pa2);
    }
    assert_eq!(*external.cache().config(), CacheConfig::hwgc_shared());
}
