//! Byte pins for the Eden-growth random start, `shapes::random_connected`.
//!
//! The fingerprints were recorded from the implementation that kept its
//! occupied and frontier sets in two `TriSet`s. Any change to the frontier
//! order, the RNG draws or the placement order changes them, and with them
//! every `random`-shape start of the engine and the CLI.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sops_engine::testkit::fnv;
use sops_system::shapes;

/// `(n, seed, fnv)`: FNV-1a over `x,y;` for every placed point, in
/// placement order, of `random_connected(n, StdRng::seed_from_u64(seed))`.
const GOLDEN_EDEN: [(usize, u64, u64); 6] = [
    (60, 1, 0xf4aa533d414bdb18),
    (60, 2, 0x35ff77e59f289398),
    (2_000, 1, 0x7f8210365981d40b),
    (2_000, 2, 0xc6bac95a6b20b837),
    (100_000, 1, 0x3953296c1c17c3e4),
    (100_000, 2, 0xe9bd9a08aa78eb28),
];

fn eden_fnv(n: usize, seed: u64) -> u64 {
    let points = shapes::random_connected(n, &mut StdRng::seed_from_u64(seed));
    assert_eq!(points.len(), n);
    let text: String = points.iter().map(|p| format!("{},{};", p.x, p.y)).collect();
    fnv(text.as_bytes())
}

#[test]
fn random_connected_matches_recorded_points() {
    for (n, seed, expected) in GOLDEN_EDEN {
        let got = eden_fnv(n, seed);
        assert_eq!(
            got, expected,
            "random_connected({n}, seed {seed}) changed: {got:#018x}"
        );
    }
}
