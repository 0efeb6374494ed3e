//! Property-based tests of the cache simulator: structural invariants that
//! must hold for every protocol over arbitrary reference streams.

use proptest::prelude::*;
use pwam_cachesim::{simulate, CacheConfig, Protocol, SimConfig};
use rapwam::{MemRef, ObjectKind};

/// A compact random reference description.
#[derive(Debug, Clone, Copy)]
struct RefSpec {
    pe: u8,
    addr: u32,
    write: bool,
    object: ObjectKind,
}

fn arb_refs(max_pes: u8) -> impl Strategy<Value = Vec<RefSpec>> {
    prop::collection::vec(
        (0..max_pes, 0u32..2048, any::<bool>(), prop::sample::select(ObjectKind::ALL.to_vec()))
            .prop_map(|(pe, addr, write, object)| RefSpec { pe, addr, write, object }),
        1..2000,
    )
}

fn to_trace(specs: &[RefSpec]) -> Vec<MemRef> {
    specs.iter().map(|s| MemRef { pe: s.pe, addr: s.addr, write: s.write, object: s.object }).collect()
}

fn config(protocol: Protocol, size: u32, write_allocate: bool, pes: usize) -> SimConfig {
    SimConfig {
        cache: CacheConfig { size_words: size, line_words: 4, write_allocate },
        protocol,
        num_pes: pes,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accounting_is_consistent_for_every_protocol(specs in arb_refs(4), size in prop::sample::select(vec![64u32, 256, 1024]), wa in any::<bool>()) {
        let trace = to_trace(&specs);
        for protocol in Protocol::ALL {
            let r = simulate(&config(protocol, size, wa, 4), &trace);
            // Reference counts add up.
            prop_assert_eq!(r.refs, trace.len() as u64);
            prop_assert_eq!(r.reads + r.writes, r.refs);
            prop_assert!(r.read_misses <= r.reads);
            prop_assert!(r.write_misses <= r.writes);
            // Bus words decompose into the counted causes.
            let line = 4u64;
            let explained = r.line_fetches * line + r.write_backs * line + r.write_through_words + r.updates;
            prop_assert!(r.bus_words <= explained,
                "bus words {} exceed explained traffic {}", r.bus_words, explained);
            // Traffic ratio is bounded: at worst every reference moves a full
            // line plus a write-back.
            prop_assert!(r.traffic_ratio() <= 2.0 * line as f64 + 1.0);
        }
    }

    #[test]
    fn bigger_caches_never_fetch_more_lines_single_pe(specs in arb_refs(1)) {
        // With a single PE (no coherency interference), LRU inclusion holds:
        // a larger fully associative LRU cache never misses more.
        let trace = to_trace(&specs);
        let mut last_fetches = u64::MAX;
        for size in [64u32, 256, 1024, 4096] {
            let r = simulate(&config(Protocol::WriteInBroadcast, size, true, 1), &trace);
            prop_assert!(r.line_fetches <= last_fetches,
                "{size}-word cache fetched {} lines, smaller cache fetched {last_fetches}", r.line_fetches);
            last_fetches = r.line_fetches;
        }
    }

    #[test]
    fn write_through_never_beats_broadcast_on_writes(specs in arb_refs(2)) {
        let trace = to_trace(&specs);
        let wt = simulate(&config(Protocol::WriteThrough, 1024, true, 2), &trace);
        let bc = simulate(&config(Protocol::WriteInBroadcast, 1024, true, 2), &trace);
        // Write-through sends every write to memory; the broadcast cache only
        // moves data words for misses, write-backs and ownership changes.
        prop_assert!(wt.write_through_words >= bc.write_through_words);
    }

    #[test]
    fn update_and_invalidate_broadcasts_have_identical_read_behaviour_single_pe(specs in arb_refs(1)) {
        let trace = to_trace(&specs);
        let upd = simulate(&config(Protocol::WriteThroughBroadcast, 512, true, 1), &trace);
        let inv = simulate(&config(Protocol::WriteInBroadcast, 512, true, 1), &trace);
        // With one PE there is nothing to invalidate or update, so the two
        // broadcast variants must behave identically.
        prop_assert_eq!(upd.read_misses, inv.read_misses);
        prop_assert_eq!(upd.bus_words, inv.bus_words);
    }
}
