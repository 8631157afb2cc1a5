//! The reconstruction algorithms of the paper's Section 8.
//!
//! The four algorithms differ in how much non-reconstruction work they
//! send to the replacement disk; both the simulator (`decluster-array`)
//! and the analytic model (`decluster-analytic`) are parameterized by this
//! type.

/// Which reconstruction algorithm drives recovery (paper, Section 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReconAlgorithm {
    /// No extra work to the replacement: user writes to lost units are
    /// folded into parity; all reads of lost units reconstruct on the fly.
    Baseline,
    /// User writes aimed at the replacement disk go directly to it.
    UserWrites,
    /// `UserWrites` plus redirection of reads: reads of already-rebuilt
    /// units are served by the replacement.
    Redirect,
    /// `Redirect` plus piggybacking: on-the-fly reconstructions also write
    /// their result to the replacement.
    RedirectPiggyback,
}

impl ReconAlgorithm {
    /// All four algorithms, in the paper's order.
    pub const ALL: [ReconAlgorithm; 4] = [
        ReconAlgorithm::Baseline,
        ReconAlgorithm::UserWrites,
        ReconAlgorithm::Redirect,
        ReconAlgorithm::RedirectPiggyback,
    ];

    /// Whether user writes to unreconstructed lost units go straight to
    /// the replacement disk.
    pub fn writes_to_replacement(self) -> bool {
        !matches!(self, ReconAlgorithm::Baseline)
    }

    /// Whether reads of reconstructed units are redirected to the
    /// replacement disk.
    pub fn redirects_reads(self) -> bool {
        matches!(
            self,
            ReconAlgorithm::Redirect | ReconAlgorithm::RedirectPiggyback
        )
    }

    /// Whether on-the-fly reconstructions are piggybacked onto the
    /// replacement disk.
    pub fn piggybacks_writes(self) -> bool {
        matches!(self, ReconAlgorithm::RedirectPiggyback)
    }

    /// The paper's name for the algorithm.
    pub fn name(self) -> &'static str {
        match self {
            ReconAlgorithm::Baseline => "baseline",
            ReconAlgorithm::UserWrites => "user-writes",
            ReconAlgorithm::Redirect => "redirect",
            ReconAlgorithm::RedirectPiggyback => "redirect+piggyback",
        }
    }
}

impl std::fmt::Display for ReconAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::ReconAlgorithm::{self, *};

    #[test]
    fn flags_form_the_paper_ladder() {
        // Each algorithm adds exactly one capability over the previous.
        assert!(!Baseline.writes_to_replacement());
        assert!(!Baseline.redirects_reads());
        assert!(!Baseline.piggybacks_writes());
        assert!(UserWrites.writes_to_replacement());
        assert!(!UserWrites.redirects_reads());
        assert!(Redirect.writes_to_replacement());
        assert!(Redirect.redirects_reads());
        assert!(!Redirect.piggybacks_writes());
        assert!(RedirectPiggyback.redirects_reads());
        assert!(RedirectPiggyback.piggybacks_writes());
    }

    #[test]
    fn all_is_ordered_and_complete() {
        assert_eq!(
            ReconAlgorithm::ALL,
            [Baseline, UserWrites, Redirect, RedirectPiggyback]
        );
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Baseline.to_string(), "baseline");
        assert_eq!(UserWrites.to_string(), "user-writes");
        assert_eq!(Redirect.to_string(), "redirect");
        assert_eq!(RedirectPiggyback.to_string(), "redirect+piggyback");
    }
}
