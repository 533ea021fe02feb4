//! Randomized tests for the TLB hierarchy and the generic cache, driven by
//! seeded SplitMix64 streams so every run covers the same cases.

use agile_tlb::{SetAssocCache, SizedTlbConfig, TlbConfig, TlbEntry, TlbHierarchy};
use agile_types::{AccessKind, Asid, Enc, GuestVirtAddr, HostFrame, PageSize, SplitMix64};
use std::collections::HashMap;

const CASES: u64 = 64;

fn entry(frame: u64) -> TlbEntry {
    TlbEntry::new(HostFrame::new(frame), PageSize::Size4K, true).with_dirty(true)
}

/// A hit always returns the most recently filled value for the page.
#[test]
fn hits_return_latest_fill() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(SplitMix64::derive(0x71b_0001, case));
        let ops: Vec<(u64, u64)> = (0..rng.range(1, 200))
            .map(|_| (rng.below(64), rng.range(1, 1000)))
            .collect();
        let mut tlb = TlbHierarchy::new(&TlbConfig::default());
        let asid = Asid::new(1);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (page, frame) in ops {
            let va = GuestVirtAddr::new(page << 12);
            tlb.invalidate_page(asid, va);
            tlb.fill(asid, va, entry(frame));
            model.insert(page, frame);
            if let Some(e) = tlb.lookup(asid, va, AccessKind::Read) {
                assert_eq!(e.frame.raw(), model[&page]);
            }
        }
        // Every model entry, if present in the TLB, matches.
        for (page, frame) in &model {
            if let Some(e) = tlb.lookup(asid, GuestVirtAddr::new(page << 12), AccessKind::Read) {
                assert_eq!(e.frame.raw(), *frame);
            }
        }
    }
}

/// The TLB never returns an entry for a different ASID.
#[test]
fn asid_isolation() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(SplitMix64::derive(0x71b_0002, case));
        let pages: Vec<u64> = (0..rng.range(1, 64)).map(|_| rng.below(256)).collect();
        let mut tlb = TlbHierarchy::new(&TlbConfig::default());
        for (i, page) in pages.iter().enumerate() {
            let asid = Asid::new((i % 4) as u32);
            tlb.fill(
                asid,
                GuestVirtAddr::new(page << 12),
                entry(*page * 4 + (i as u64 % 4)),
            );
        }
        // Look up every page under every asid: a hit must carry the frame
        // encoding that asid.
        for page in 0..256u64 {
            for a in 0..4u32 {
                if let Some(e) = tlb.lookup(
                    Asid::new(a),
                    GuestVirtAddr::new(page << 12),
                    AccessKind::Read,
                ) {
                    assert_eq!(e.frame.raw() % 4, u64::from(a));
                    assert_eq!(e.frame.raw() / 4, page);
                }
            }
        }
    }
}

/// Capacity invariant: the generic cache never exceeds sets × ways, and
/// flush empties it.
#[test]
fn cache_capacity_invariant() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(SplitMix64::derive(0x71b_0003, case));
        let sets = rng.range(1, 8) as usize;
        let ways = rng.range(1, 8) as usize;
        let keys: Vec<u64> = (0..rng.range(1, 300)).map(|_| rng.below(512)).collect();
        let mut c: SetAssocCache<u64, u64> = SetAssocCache::new(sets, ways);
        for k in &keys {
            c.insert(*k as usize, *k, *k * 2);
            assert!(c.len() <= c.capacity());
        }
        // Whatever remains must be internally consistent.
        for k in &keys {
            if let Some(v) = c.lookup(*k as usize, k) {
                assert_eq!(v, *k * 2);
            }
        }
        c.flush();
        assert!(c.is_empty());
    }
}

/// Stats identity: lookups == hits + misses.
#[test]
fn stats_identity() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(SplitMix64::derive(0x71b_0004, case));
        let ops: Vec<(u64, bool)> = (0..rng.range(1, 200))
            .map(|_| (rng.below(32), rng.next_bool(0.5)))
            .collect();
        let mut tlb = TlbHierarchy::new(&TlbConfig::tiny());
        let asid = Asid::new(9);
        for (page, write) in ops {
            let va = GuestVirtAddr::new(page << 12);
            let access = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            if tlb.lookup(asid, va, access).is_none() {
                tlb.fill_for(asid, va, entry(page), access);
            }
        }
        let s = tlb.stats();
        assert_eq!(s.lookups(), s.l1_hits + s.l2_hits + s.misses);
        assert!(s.miss_ratio() <= 1.0);
    }
}

const KIB4: u64 = 4 << 10;
const MIB2: u64 = 2 << 20;
const GIB1: u64 = 1 << 30;

/// Boundaries the fills and ranges cluster around: 2 MiB and 1 GiB edges.
const ANCHORS: [u64; 4] = [37 * MIB2, GIB1, 2 * GIB1, 2 * GIB1 + 300 * MIB2];

/// Fills `n` random translations: three ASIDs, all three page sizes,
/// data and instruction side, clustered around [`ANCHORS`] so ranges hit
/// full sets.
fn fill_random(tlb: &mut TlbHierarchy, rng: &mut SplitMix64, n: u64) {
    for _ in 0..n {
        let asid = Asid::new(rng.range(1, 4) as u32);
        let anchor = ANCHORS[rng.below(ANCHORS.len() as u64) as usize];
        let size = match rng.below(8) {
            0..=4 => PageSize::Size4K,
            5 | 6 => PageSize::Size2M,
            _ => PageSize::Size1G,
        };
        let pages = rng.range(0, 96) * size.bytes();
        let va = if rng.next_bool(0.5) {
            anchor + pages
        } else {
            anchor.saturating_sub(pages + size.bytes())
        };
        let access = if rng.next_bool(0.25) {
            AccessKind::Execute
        } else {
            AccessKind::Read
        };
        let e = TlbEntry::new(HostFrame::new(rng.below(1 << 20)), size, true);
        tlb.fill_for(asid, GuestVirtAddr::new(va), e, access);
    }
}

/// One range of each shape the shootdown path can send, by `kind`.
fn random_range(rng: &mut SplitMix64, kind: u64) -> (u64, u64) {
    let anchor = ANCHORS[rng.below(ANCHORS.len() as u64) as usize];
    let near = anchor - rng.range(0, 64) * KIB4;
    match kind {
        // Empty.
        0 => (near, 0),
        // Shorter than a page.
        1 => (near + rng.below(KIB4), rng.range(1, KIB4)),
        // Unaligned start and length.
        2 => (near + rng.range(1, KIB4), rng.range(1, 16 * KIB4)),
        // A single page.
        3 => (near, KIB4),
        // Fewer pages than the smallest partition has sets.
        4 => (near, rng.range(2, 16) * KIB4),
        // At least as many pages as the largest partition has sets.
        5 => (near, rng.range(128, 600) * KIB4),
        // Across a 2 MiB boundary.
        6 => {
            let edge = anchor + rng.range(1, 4) * MIB2;
            (edge - rng.range(1, 64) * KIB4, rng.range(65, 700) * KIB4)
        }
        // Across a 1 GiB boundary.
        7 => {
            let edge = anchor.next_multiple_of(GIB1);
            (
                edge - rng.range(1, 2048) * KIB4,
                rng.range(2049, 4096) * KIB4,
            )
        }
        // Far larger than the TLB's reach, like a merged range.
        _ => (anchor - rng.range(1, 8) * MIB2, rng.range(16, 128) << 20),
    }
}

fn state_bytes(tlb: &TlbHierarchy) -> Vec<u8> {
    let mut e = Enc::new();
    tlb.save_state(&mut e);
    e.into_bytes()
}

/// A ranged invalidation leaves byte-identical state and the same
/// invalidation count as `invalidate_page` at every 4 KiB step of the
/// range, and never touches another ASID's entries.
#[test]
fn invalidate_range_matches_page_loop() {
    let one_set = |entries| SizedTlbConfig {
        entries,
        ways: entries,
    };
    let geometries = [
        TlbConfig::default(),
        TlbConfig {
            l1d_4k: one_set(16),
            l1d_2m: one_set(8),
            l1d_1g: one_set(4),
            l1i_4k: one_set(16),
            l1i_2m: one_set(4),
            l2_4k: one_set(64),
            l2_2m: one_set(16),
        },
        TlbConfig {
            l1d_2m: SizedTlbConfig::disabled(),
            l1i_4k: SizedTlbConfig::disabled(),
            ..TlbConfig::tiny()
        },
    ];
    for (g, cfg) in geometries.iter().enumerate() {
        for case in 0..8 {
            let mut rng = SplitMix64::new(SplitMix64::derive(0x71b_0005 + g as u64, case));
            let mut ranged = TlbHierarchy::new(cfg);
            fill_random(&mut ranged, &mut rng, 400);
            let mut paged = ranged.clone();
            for step in 0..27 {
                let asid = Asid::new(rng.range(1, 4) as u32);
                let (start, len) = random_range(&mut rng, step % 9);
                let others = |t: &TlbHierarchy| {
                    let mut v: Vec<_> = t
                        .entries()
                        .into_iter()
                        .filter(|&(a, _, _)| a != asid)
                        .map(|(a, va, e)| (a, va, e.frame, e.size))
                        .collect();
                    v.sort_unstable();
                    v
                };
                let before = others(&ranged);
                ranged.invalidate_range(asid, start, len);
                let mut va = start;
                while va < start + len {
                    paged.invalidate_page(asid, GuestVirtAddr::new(va));
                    va += KIB4;
                }
                let what = format!("geometry {g} case {case} step {step}: {start:#x}+{len:#x}");
                assert_eq!(state_bytes(&ranged), state_bytes(&paged), "{what}");
                assert_eq!(
                    ranged.stats().invalidations,
                    paged.stats().invalidations,
                    "{what}"
                );
                assert_eq!(others(&ranged), before, "{what}: other ASIDs survive");
                let mut refill = SplitMix64::new(rng.next_u64());
                fill_random(&mut ranged, &mut refill.clone(), 40);
                fill_random(&mut paged, &mut refill, 40);
            }
            assert!(
                ranged.stats().invalidations > 0,
                "geometry {g} case {case}: ranges hit"
            );
        }
    }
}
