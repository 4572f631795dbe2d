//! Snapshot compatibility corpus for the two samplers of chain `M`.
//!
//! Each entry in `tests/data/snapshots/` was written by an earlier release
//! of the samplers. Restoring it today must re-encode to the same bytes,
//! and continuing it 10⁴ steps must reach the snapshot whose FNV-1a
//! fingerprint was recorded alongside the entry. A deliberate format change
//! adds a new entry and keeps the old ones.

use rand::rngs::StdRng;
use sops::core::chain::Metropolis;
use sops::core::kmc::RejectionFree;
use sops::core::snapshot::SnapshotError;
use sops::core::{Alignment, CompressionChain, EdgeCount, Hamiltonian, Kernel, KmcChain, Sampler};

const CHAIN_EDGES_CRASHED: &str = include_str!("data/snapshots/chain-edges-crashed.snap");
const CHAIN_ALIGNMENT3: &str = include_str!("data/snapshots/chain-alignment3.snap");
const KMC_EDGES_CRASHED_PENDING: &str =
    include_str!("data/snapshots/kmc-edges-crashed-pending.snap");
const KMC_ALIGNMENT2: &str = include_str!("data/snapshots/kmc-alignment2.snap");

/// Steps each entry is continued for before its snapshot is fingerprinted.
const CONTINUE: u64 = 10_000;

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Restores `entry` as a `Sampler<K, StdRng, H>` and checks both promises.
fn check<K: Kernel, H: Hamiltonian>(entry: &str, after: u64) {
    let mut sampler = Sampler::<K, StdRng, H>::restore(entry).unwrap();
    assert_eq!(sampler.snapshot(), entry, "re-encoding changed the bytes");
    sampler.run(CONTINUE);
    let continued = fnv(sampler.snapshot().as_bytes());
    assert_eq!(continued, after, "continuation drifted");
}

#[test]
fn chain_under_edges_with_crashes_resumes() {
    assert!(CHAIN_EDGES_CRASHED.contains("crashed=3,11\n"));
    check::<Metropolis, EdgeCount>(CHAIN_EDGES_CRASHED, 0x7e6f_9ca1_68b5_4582);
}

#[test]
fn chain_under_alignment_3_resumes() {
    assert!(CHAIN_ALIGNMENT3.contains("hamiltonian=alignment:3\n"));
    check::<Metropolis, Alignment>(CHAIN_ALIGNMENT3, 0x18aa_f16b_53cc_67a7);
}

#[test]
fn kmc_under_edges_with_crashes_and_a_pending_dwell_resumes() {
    assert!(KMC_EDGES_CRASHED_PENDING.contains("crashed=4,17\n"));
    assert!(KMC_EDGES_CRASHED_PENDING.contains("pending=7516,30\n"));
    check::<RejectionFree, EdgeCount>(KMC_EDGES_CRASHED_PENDING, 0x04ec_026d_b205_c9be);
}

#[test]
fn kmc_under_alignment_2_resumes() {
    assert!(KMC_ALIGNMENT2.contains("hamiltonian=alignment:2\n"));
    check::<RejectionFree, Alignment>(KMC_ALIGNMENT2, 0x05c4_6fb0_fde4_034e);
}

#[test]
fn each_sampler_rejects_the_other_samplers_snapshot() {
    for entry in [CHAIN_EDGES_CRASHED, CHAIN_ALIGNMENT3] {
        assert!(matches!(
            KmcChain::<StdRng, EdgeCount>::restore(entry).unwrap_err(),
            SnapshotError::WrongHeader { .. }
        ));
        assert!(matches!(
            KmcChain::<StdRng, Alignment>::restore(entry).unwrap_err(),
            SnapshotError::WrongHeader { .. }
        ));
    }
    for entry in [KMC_EDGES_CRASHED_PENDING, KMC_ALIGNMENT2] {
        assert!(matches!(
            CompressionChain::<StdRng, EdgeCount>::restore(entry).unwrap_err(),
            SnapshotError::WrongHeader { .. }
        ));
        assert!(matches!(
            CompressionChain::<StdRng, Alignment>::restore(entry).unwrap_err(),
            SnapshotError::WrongHeader { .. }
        ));
    }
}
