//! Regenerated `slack-topologies` trials run their per-node simulation on
//! the calling thread. Trial-level parallelism belongs to the sweep
//! executor, so a trial run outside any pool region (the sequential
//! executor, a replay, a test) must not fan out over the pool on its own.
//!
//! `rlnc_par::pool::stats()` is process-global, so this check lives in its
//! own test binary with a single test: no other test can submit a region
//! inside its window.

use rlnc_sweep::{Family, IdScheme, Registry};

#[test]
fn regenerated_slack_trials_submit_no_pool_tasks() {
    let registry = Registry::builtin();
    let spec = registry
        .get("slack-topologies")
        .expect("slack-topologies scenario");
    let point = spec
        .grid(rlnc_par::Scale::Standard)
        .into_iter()
        .find(|p| {
            p.family == Family::RandomRegular4
                && p.n == 144
                && p.id_scheme == IdScheme::RandomPermutation
        })
        .expect("a standard-scale random 4-regular point with random identities");
    let point_seq = rlnc_par::SeedSequence::new(3).child(point.index);
    let prepared = spec.workload.prepare(&point, point_seq);
    let mut scratch = prepared.scratch();

    let before = rlnc_par::pool::stats().tasks;
    for trial in 0..4 {
        let outcome = prepared.run_trial_with(&mut scratch, point_seq.child(1).child(trial));
        assert!((0.0..=1.0).contains(&outcome.value));
    }
    assert_eq!(
        rlnc_par::pool::stats().tasks,
        before,
        "a regenerated slack trial on the caller thread dispatched pool tasks"
    );
}
