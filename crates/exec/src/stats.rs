//! Per-run execution statistics.

use core::fmt;

/// Observability record for one pool run: how much work there was and how
/// it was distributed. Stats describe *scheduling*, which may vary from run
/// to run — results never do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecStats {
    /// Total jobs in the set.
    pub jobs: usize,
    /// Workers actually used (never more than the job count).
    pub workers: usize,
    /// Number of times an idle worker stole a chunk from a busy one.
    pub steals: usize,
    /// Jobs completed by each worker, indexed by worker id.
    pub per_worker: Vec<usize>,
}

impl ExecStats {
    /// Stats for an empty job set handled by a pool of nominal width
    /// `workers`.
    pub fn empty(workers: usize) -> Self {
        ExecStats { jobs: 0, workers, steals: 0, per_worker: Vec::new() }
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs / {} workers, {} steals, per-worker {:?}",
            self.jobs, self.workers, self.steals, self.per_worker
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = ExecStats::empty(4);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.workers, 4);
        assert!(s.to_string().contains("0 jobs"));
    }
}
