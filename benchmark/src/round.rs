//! A round: one session per rung, set up together and advanced chunk by
//! chunk in turn, so the rungs being compared see the same host.
//!
//! Measured on the 2-core host this benchmark was sized on, the speed
//! of identical work wanders by ±25 % over phases lasting from tens of
//! milliseconds to tens of seconds. Two sessions run one after the
//! other therefore differ by more than the profiler costs, and medians
//! of whole-session wall times spread 15–20 % between runs. Two things
//! make the numbers steady:
//!
//! * sessions of a round interleave at chunk granularity (≈ 10 ms of
//!   bare work), each rung taking every slot of the rotation equally
//!   often, so a slow phase hits all rungs alike;
//! * the interference only ever adds time, so a session's wall time is
//!   estimated as the sum, over chunk positions, of the fastest time
//!   any round ran that position in ([`best_wall_ns`]). Position `k` is
//!   the same simulated work in every round (the workloads are
//!   deterministic), and keeping positions apart keeps costs that grow
//!   along a run — association maps, timeline rings — in the sum.
//!   Between runs this estimate spreads 2–3 %.

use std::path::Path;

use crate::schedule::{preview_chunks, Rng};
use crate::session::{Outcome, Session};
use crate::spans::Recorder;
use crate::workloads::{Rung, WorkloadSpec, PREVIEW_CADENCE, PREVIEW_JITTER};

/// The timed-iteration chunks every session of a run uses: equal chunks
/// of `spec.chunk`, or — where live reads sit between chunks — the
/// seed's jittered read schedule.
pub fn chunks_for(spec: &WorkloadSpec, rng: &mut Rng) -> Vec<u32> {
    if spec.live_reads(Rung::Untraced) {
        preview_chunks(rng, spec.iterations, PREVIEW_CADENCE, PREVIEW_JITTER)
    } else {
        vec![spec.chunk; (spec.iterations / spec.chunk) as usize]
    }
}

/// What every round of a run shares.
pub struct Plan<'a> {
    pub spec: &'a WorkloadSpec,
    /// Timed iterations per chunk; a live read (on rungs that take
    /// them) follows every chunk but the last.
    pub chunks: &'a [u32],
    pub store_dir: &'a Path,
    /// Recorder for every rung but `rU`, which always runs untraced.
    pub recorder: &'a Recorder,
    /// Whether the full rung's loaded profile is handed back.
    pub keep_full_profile: bool,
}

/// Runs one round over `order` (the set-up order; chunk `k` then runs
/// the sessions rotated by `k`) and returns the outcomes in that order.
pub fn run_round(plan: &Plan<'_>, order: &[Rung]) -> Vec<Outcome> {
    let untraced = Recorder::disabled();
    let rec = |rung: Rung| {
        if rung == Rung::Untraced {
            &untraced
        } else {
            plan.recorder
        }
    };
    let mut sessions: Vec<Session<'_>> = order
        .iter()
        .map(|&rung| Session::setup(plan.spec, rung, rec(rung)))
        .collect();
    let n = sessions.len();
    for (k, &iterations) in plan.chunks.iter().enumerate() {
        let live_read = k + 1 < plan.chunks.len();
        for slot in 0..n {
            let session = &mut sessions[(slot + k) % n];
            let rung = session.rung();
            session.run_chunk(iterations, live_read, rec(rung));
        }
    }
    let full = plan.spec.full_rung();
    sessions
        .into_iter()
        .map(|session| {
            let rung = session.rung();
            session.finish(
                rec(rung),
                plan.store_dir,
                rung == full || rung == Rung::Untraced,
                rung == full && plan.keep_full_profile,
            )
        })
        .collect()
}

/// The session wall time with host interference removed: for each
/// chunk position the fastest time among `sessions` (each one session's
/// per-chunk times), summed over positions.
///
/// # Panics
///
/// Panics when `sessions` is empty or ran different numbers of chunks.
pub fn best_wall_ns<'a>(sessions: impl IntoIterator<Item = &'a [u64]>) -> f64 {
    let mut best: Vec<u64> = Vec::new();
    for chunk_ns in sessions {
        if best.is_empty() {
            best.extend_from_slice(chunk_ns);
        } else {
            assert_eq!(best.len(), chunk_ns.len(), "sessions share chunks");
            for (b, &t) in best.iter_mut().zip(chunk_ns) {
                *b = (*b).min(t);
            }
        }
    }
    assert!(!best.is_empty(), "no sessions to estimate from");
    best.iter().sum::<u64>() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_wall_takes_each_position_from_its_fastest_session() {
        let sessions: [&[u64]; 3] = [&[10, 50, 30], &[12, 20, 90], &[11, 25, 28]];
        assert_eq!(best_wall_ns(sessions), (10 + 20 + 28) as f64);
        // A cost that grows along the run stays in the sum.
        let growing: [&[u64]; 2] = [&[10, 20, 30], &[11, 21, 31]];
        assert_eq!(best_wall_ns(growing), 60.0);
        assert_eq!(best_wall_ns([[7u64, 8].as_slice()]), 15.0);
    }

    #[test]
    #[should_panic(expected = "sessions share chunks")]
    fn sessions_with_different_chunking_cannot_be_combined() {
        let sessions: [&[u64]; 2] = [&[1, 2], &[1, 2, 3]];
        best_wall_ns(sessions);
    }
}
