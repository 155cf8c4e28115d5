//! The farm's typed failure vocabulary.

use std::fmt;

use atd::wire::FrameError;

/// Why a farm operation failed.
///
/// A head that gives no answer (socket loss, a shed submission) is not
/// surfaced individually: it is marked down and the affected sub-specs
/// re-route. Only exhaustion of the whole fleet or of the retry budget
/// becomes a `FarmError` for it. A job failure a head answers is the
/// caller's error and comes back as [`FarmError::Job`].
#[derive(Debug)]
#[non_exhaustive]
pub enum FarmError {
    /// A farm cannot be built over zero heads.
    NoHeads,
    /// Every head is marked down; nothing can route.
    AllHeadsDown {
        /// The spec kind that could not be routed.
        kind: &'static str,
    },
    /// Sub-specs still failed after the configured retry rounds.
    RetriesExhausted {
        /// The spec kind that gave up.
        kind: &'static str,
        /// Submission rounds attempted (initial + retries).
        attempts: u32,
        /// The last head error observed, rendered.
        last: String,
    },
    /// The spec failed validation or could not be sliced.
    Spec(FrameError),
    /// A head ran a sub-spec and answered that it failed. The head
    /// stays up: the failure is the job's, not the head's.
    Job {
        /// The spec kind whose sub-spec failed.
        kind: &'static str,
        /// The error the head reported.
        error: atd::AtdError,
    },
    /// Sub-results could not be reassembled into the parent result.
    Merge {
        /// What the merge layer was checking.
        context: &'static str,
    },
    /// The coordinator's worker pool failed.
    Exec(exec::ExecError),
    /// Booting or restarting a head's service failed — e.g. its
    /// persistent store directory could not be opened. Distinct from
    /// in-flight head errors, which mark the head down and re-route.
    Head(atd::AtdError),
}

impl fmt::Display for FarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FarmError::NoHeads => write!(f, "farm has no heads"),
            FarmError::AllHeadsDown { kind } => {
                write!(f, "every head is down; cannot route {kind} sub-specs")
            }
            FarmError::RetriesExhausted { kind, attempts, last } => {
                write!(f, "{kind} sub-specs failed after {attempts} rounds (last error: {last})")
            }
            FarmError::Spec(e) => write!(f, "spec error: {e}"),
            FarmError::Job { kind, error } => write!(f, "{kind} job failed on a head: {error}"),
            FarmError::Merge { context } => write!(f, "merge failure: {context}"),
            FarmError::Exec(e) => write!(f, "coordinator pool error: {e}"),
            FarmError::Head(e) => write!(f, "head boot failure: {e}"),
        }
    }
}

impl std::error::Error for FarmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FarmError::Spec(e) => Some(e),
            FarmError::Job { error, .. } => Some(error),
            FarmError::Exec(e) => Some(e),
            FarmError::Head(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for FarmError {
    fn from(e: FrameError) -> Self {
        FarmError::Spec(e)
    }
}

impl From<exec::ExecError> for FarmError {
    fn from(e: exec::ExecError) -> Self {
        FarmError::Exec(e)
    }
}

impl From<atd::AtdError> for FarmError {
    fn from(e: atd::AtdError) -> Self {
        FarmError::Head(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renderings_name_the_failure() {
        let text = FarmError::AllHeadsDown { kind: "wafer" }.to_string();
        assert!(text.contains("wafer"), "{text}");
        let text = FarmError::RetriesExhausted {
            kind: "shmoo",
            attempts: 3,
            last: "remote failure: boom".to_string(),
        }
        .to_string();
        assert!(text.contains("3 rounds") && text.contains("boom"), "{text}");
        let text = FarmError::Merge { context: "shards disagree" }.to_string();
        assert!(text.contains("shards disagree"), "{text}");
        let text =
            FarmError::from(atd::AtdError::Remote { message: "disk gone".to_string() }).to_string();
        assert!(text.contains("head boot") && text.contains("disk gone"), "{text}");
    }
}
