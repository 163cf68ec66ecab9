//! The manual-verification oracle: three synthetic "security experts" who
//! label candidates and cross-check each other (Section III-B's human-in-
//! the-loop step). Ground truth plus independent per-expert noise,
//! resolved by majority vote.

use patch_core::CommitId;
use patchdb_rt::rng::Xoshiro256pp;

use crate::forge::Commit;

/// Simulates the paper's three-expert manual verification.
#[derive(Debug, Clone)]
pub struct VerificationOracle {
    /// Per-expert probability of an individual labeling error.
    expert_error: f64,
    seed: u64,
    /// Running count of verified candidates (the "human effort" meter).
    verified: std::cell::Cell<usize>,
}

impl VerificationOracle {
    /// Creates an oracle with the given per-expert error rate.
    ///
    /// With a 5 % individual error rate, the majority-vote error is
    /// ≈0.7 %, matching the high-confidence labels cross-checking buys.
    pub fn new(expert_error: f64, seed: u64) -> Self {
        VerificationOracle { expert_error, seed, verified: std::cell::Cell::new(0) }
    }

    /// A perfect oracle (no labeling noise).
    pub fn perfect(seed: u64) -> Self {
        Self::new(0.0, seed)
    }

    /// Verifies one candidate commit: is it a security patch?
    ///
    /// Deterministic per (oracle seed, commit id): re-asking about the same
    /// commit returns the same answer, like re-reading a settled label.
    pub fn verify(&self, commit: &Commit) -> bool {
        self.verified.set(self.verified.get() + 1);
        let truth = commit.truth.is_security;
        if self.expert_error <= 0.0 {
            return truth;
        }
        let mut rng = self.rng_for(commit.id);
        let mut votes = 0;
        for _ in 0..3 {
            let expert_says = if rng.gen_bool(self.expert_error) { !truth } else { truth };
            if expert_says {
                votes += 1;
            }
        }
        votes >= 2
    }

    /// How many candidates this oracle has been asked to verify — the
    /// human-effort metric Table II/III trade on.
    pub fn effort(&self) -> usize {
        self.verified.get()
    }

    fn rng_for(&self, id: CommitId) -> Xoshiro256pp {
        let mut k = self.seed;
        for chunk in id.as_bytes().chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            k = k.rotate_left(17) ^ u64::from_le_bytes(b);
        }
        Xoshiro256pp::seed_from_u64(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CorpusConfig;
    use crate::forge::GitHubForge;

    #[test]
    fn perfect_oracle_is_truth() {
        let forge = GitHubForge::generate(&CorpusConfig::tiny(2));
        let oracle = VerificationOracle::perfect(1);
        for (_, c) in forge.all_commits() {
            assert_eq!(oracle.verify(c), c.truth.is_security);
        }
        assert_eq!(oracle.effort(), forge.total_commits());
    }

    #[test]
    fn noisy_oracle_is_consistent_per_commit() {
        let forge = GitHubForge::generate(&CorpusConfig::tiny(2));
        let oracle = VerificationOracle::new(0.2, 9);
        for (_, c) in forge.all_commits().take(30) {
            assert_eq!(oracle.verify(c), oracle.verify(c));
        }
    }

    #[test]
    fn majority_vote_suppresses_noise() {
        let forge = GitHubForge::generate(&CorpusConfig::with_total_commits(4000, 7));
        let oracle = VerificationOracle::new(0.05, 3);
        let mut errors = 0;
        let mut total = 0;
        for (_, c) in forge.all_commits() {
            total += 1;
            if oracle.verify(c) != c.truth.is_security {
                errors += 1;
            }
        }
        let rate = errors as f64 / total as f64;
        // 3-way majority with p=0.05 → 3p²(1−p)+p³ ≈ 0.0073.
        assert!(rate < 0.02, "majority error rate {rate}");
    }

    #[test]
    fn effort_counter_tracks_every_verification() {
        let forge = GitHubForge::generate(&CorpusConfig::tiny(2));
        let oracle = VerificationOracle::perfect(1);
        let (_, c) = forge.all_commits().next().unwrap();
        oracle.verify(c);
        oracle.verify(c);
        assert_eq!(oracle.effort(), 2);
    }
}
