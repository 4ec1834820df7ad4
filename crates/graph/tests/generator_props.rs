//! Property tests for the graph generators the sweep scenarios rely on:
//! random `d`-regular graphs and 2-D tori must honor their degree bounds,
//! stay connected, and have the exact node/edge counts their definitions
//! promise, across seeds and sizes.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rlnc_graph::generators::{circulant, prism, random_regular, torus};
use rlnc_graph::is_connected;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_regular_is_exactly_d_regular_and_connected(
        seed in 0u64..1_000_000,
        n_raw in 8u64..64,
        d in 2u64..5,
    ) {
        // Keep n*d even (a d-regular graph otherwise cannot exist).
        let n = if (n_raw * d) % 2 == 1 { n_raw + 1 } else { n_raw } as usize;
        let d = d as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_regular(n, d, &mut rng);
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), n * d / 2);
        prop_assert!(g.nodes().all(|v| g.degree(v) == d));
        prop_assert!(is_connected(&g));
        prop_assert!(g.validate().is_ok(), "invalid CSR: {:?}", g.validate());
    }

    #[test]
    fn random_regular_is_reproducible_per_seed(seed in 0u64..1_000_000, n in 6u64..40) {
        let n = (n as usize) & !1; // even so n*3 is even
        let a = random_regular(n.max(6), 3, &mut SmallRng::seed_from_u64(seed));
        let b = random_regular(n.max(6), 3, &mut SmallRng::seed_from_u64(seed));
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        prop_assert_eq!(ea, eb);
    }

    #[test]
    fn torus_is_4_regular_with_exact_counts(rows in 3u64..16, cols in 3u64..16) {
        let (rows, cols) = (rows as usize, cols as usize);
        let g = torus(rows, cols);
        prop_assert_eq!(g.node_count(), rows * cols);
        // Every node contributes exactly 2 wrap-around-inclusive edges.
        prop_assert_eq!(g.edge_count(), 2 * rows * cols);
        prop_assert!(g.nodes().all(|v| g.degree(v) == 4));
        prop_assert!(is_connected(&g));
        prop_assert!(g.validate().is_ok(), "invalid CSR: {:?}", g.validate());
    }

    #[test]
    fn circulant_squared_cycle_counts(n in 5u64..200) {
        let n = n as usize;
        let g = circulant(n, &[1, 2]);
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), 2 * n);
        prop_assert!(g.nodes().all(|v| g.degree(v) == 4));
        prop_assert!(is_connected(&g));
    }

    #[test]
    fn prism_counts(n in 3u64..100) {
        let n = n as usize;
        let g = prism(n);
        prop_assert_eq!(g.node_count(), 2 * n);
        prop_assert_eq!(g.edge_count(), 3 * n);
        prop_assert!(g.nodes().all(|v| g.degree(v) == 3));
        prop_assert!(is_connected(&g));
    }
}

/// 64-bit FNV-1a over a byte stream, folded into a running digest.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Golden pin for the configuration model behind the two random regular
/// families. One FNV-1a digest covers the edge list of every
/// `Family::Cubic` and `Family::RandomRegular4` member for
/// n ∈ {6, 10, 64, 65, 144} × 50 seeds of `SeedSequence::new(0).child(i)`,
/// plus the next `u64` the RNG yields after each graph. The second part
/// pins how many values the generator draws: sweep workloads draw the
/// graph and then the identities from one RNG, so a generator that drew
/// fewer values would change every identity assignment after it.
#[test]
fn random_regular_families_match_the_golden_digest() {
    use rand::RngCore;
    use rlnc_graph::generators::Family;
    use rlnc_par::SeedSequence;

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for family in [Family::Cubic, Family::RandomRegular4] {
        for n in [6usize, 10, 64, 65, 144] {
            for i in 0..50u64 {
                let mut rng = SeedSequence::new(0).child(i).rng();
                let g = family.generate(n, &mut rng);
                digest = fnv1a(digest, &(g.node_count() as u64).to_le_bytes());
                for (u, v) in g.edges() {
                    digest = fnv1a(digest, &u.0.to_le_bytes());
                    digest = fnv1a(digest, &v.0.to_le_bytes());
                }
                digest = fnv1a(digest, &rng.next_u64().to_le_bytes());
            }
        }
    }
    assert_eq!(
        digest, 0x41ed_9f2e_7103_c284,
        "configuration-model digest moved: {digest:#x}"
    );
}
