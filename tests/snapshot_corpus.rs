//! Snapshot compatibility corpus for the two samplers of chain `M` and the
//! two runners of the local algorithm `A`.
//!
//! Each entry in `tests/data/snapshots/` was written by an earlier release
//! of the simulators. Restoring it today must re-encode to the same bytes,
//! and continuing it 10⁴ steps (rounds, for `A`) must reach the snapshot
//! whose FNV-1a fingerprint was recorded alongside the entry. A deliberate
//! format change adds a new entry and keeps the old ones. (The ablation
//! chain's entry is replayed by `crates/engine/tests/engine.rs`.)

use rand::rngs::StdRng;
use sops::core::chain::Metropolis;
use sops::core::kmc::RejectionFree;
use sops::core::sharded::SerialExecutor;
use sops::core::snapshot::SnapshotError;
use sops::core::{
    Alignment, CompressionChain, EdgeCount, Hamiltonian, Kernel, KmcChain, LocalRunner, Sampler,
    ShardedLocalRunner,
};

const CHAIN_EDGES_CRASHED: &str = include_str!("data/snapshots/chain-edges-crashed.snap");
const CHAIN_ALIGNMENT3: &str = include_str!("data/snapshots/chain-alignment3.snap");
const KMC_EDGES_CRASHED_PENDING: &str =
    include_str!("data/snapshots/kmc-edges-crashed-pending.snap");
const KMC_ALIGNMENT2: &str = include_str!("data/snapshots/kmc-alignment2.snap");
const LOCAL_CRASHED_MIDROUND: &str = include_str!("data/snapshots/local-crashed-midround.snap");
const LOCAL_SHARDED_CRASHED: &str = include_str!("data/snapshots/local-sharded-crashed.snap");

/// Steps (rounds, for `A`) each entry is continued for before its snapshot
/// is fingerprinted.
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
fn local_with_crashes_mid_round_resumes() {
    assert!(LOCAL_CRASHED_MIDROUND.contains("remaining=13\n"));
    let mut runner = LocalRunner::restore(LOCAL_CRASHED_MIDROUND).unwrap();
    assert_eq!(runner.snapshot(), LOCAL_CRASHED_MIDROUND);
    runner.run_rounds(CONTINUE);
    assert_eq!(fnv(runner.snapshot().as_bytes()), 0xb516_3c08_671f_669c);
}

/// Both implementations of the sharded schedule — the flat reference and
/// the sharded executor — continue the entry to the same recorded state.
#[test]
fn local_sharded_with_crashes_resumes_on_both_paths() {
    assert!(LOCAL_SHARDED_CRASHED.contains("crashed=0001"));
    let restore = || ShardedLocalRunner::restore(LOCAL_SHARDED_CRASHED).unwrap();
    assert_eq!(restore().snapshot(), LOCAL_SHARDED_CRASHED);
    let mut flat = restore();
    flat.run_rounds(CONTINUE);
    let mut sharded = restore();
    sharded.run_rounds_with(CONTINUE, &SerialExecutor);
    for runner in [&flat, &sharded] {
        assert_eq!(fnv(runner.snapshot().as_bytes()), 0x2a40_5164_0aaf_cfe7);
    }
}

/// Every chain step records exactly one outcome, so `counts=` must sum to
/// `steps=`.
#[test]
fn chain_rejects_counts_that_do_not_sum_to_steps() {
    let edited =
        CHAIN_EDGES_CRASHED.replace("counts=395,1850,270,0,2131,354\n", "counts=1,2,3,4,5,6\n");
    assert_ne!(edited, CHAIN_EDGES_CRASHED);
    assert!(matches!(
        CompressionChain::<StdRng, EdgeCount>::restore(&edited).unwrap_err(),
        SnapshotError::Invalid(_)
    ));
}

/// A dwell drawn at step `s` has `at = s + skipped + 1`, so its draw step
/// `at − skipped − 1` must lie in `[0, steps]`.
#[test]
fn kmc_rejects_a_pending_dwell_no_run_could_draw() {
    for pending in [
        "pending=7516,1000000\n",
        "pending=7516,7516\n",
        "pending=7516,0\n",
    ] {
        let edited = KMC_EDGES_CRASHED_PENDING.replace("pending=7516,30\n", pending);
        assert_ne!(edited, KMC_EDGES_CRASHED_PENDING);
        assert!(
            matches!(
                KmcChain::<StdRng, EdgeCount>::restore(&edited).unwrap_err(),
                SnapshotError::Invalid(_)
            ),
            "{pending}"
        );
    }
    // Drawn exactly at the snapshot's step (7500): a state a run can reach.
    let edited = KMC_EDGES_CRASHED_PENDING.replace("pending=7516,30\n", "pending=7516,15\n");
    assert!(KmcChain::<StdRng, EdgeCount>::restore(&edited).is_ok());
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
    // The two runners of `A` are one type over two schedules; their
    // formats stay apart.
    assert!(matches!(
        LocalRunner::restore(LOCAL_SHARDED_CRASHED).unwrap_err(),
        SnapshotError::WrongHeader { .. }
    ));
    assert!(matches!(
        ShardedLocalRunner::restore(LOCAL_CRASHED_MIDROUND).unwrap_err(),
        SnapshotError::WrongHeader { .. }
    ));
}
