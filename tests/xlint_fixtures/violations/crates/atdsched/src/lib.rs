//! Fixture: an atd-style scheduler crate — a drain loop whose pool job
//! mutates a shared result cache (`exec-job-racy`) and a frame decoder
//! that indexes raw wire bytes (`panic-reachable`). The wholesale
//! `From<ExecError>` wrap keeps the bridge rule satisfied, so this crate
//! seeds exactly the two service-layer findings.

#![forbid(unsafe_code)]

use exec::{ExecError, ExecPool};

/// The crate's error enum; wrapped wholesale so `error-bridge-exhaustive`
/// stays silent here.
pub enum SchedError {
    /// The worker pool failed.
    Pool(ExecError),
}

impl From<ExecError> for SchedError {
    fn from(e: ExecError) -> Self {
        SchedError::Pool(e)
    }
}

/// exec-job-racy: the drain job inserts into a shared `Mutex` cache from
/// inside the pool closure, so which worker populates an entry — and
/// therefore the eviction order — depends on thread interleaving.
pub fn drain_into_cache(pool: &ExecPool, specs: &[u64]) -> u64 {
    let cache = Mutex::new(Vec::new());
    let _ = pool.run(specs.len(), |i| {
        if let Ok(mut entries) = cache.lock() {
            entries.extend(specs.get(i));
        }
    });
    0
}

/// panic-reachable: reads the frame's type byte through `header_byte`,
/// which indexes the raw buffer without a bounds check.
pub fn frame_type(frame: &[u8]) -> u8 {
    header_byte(frame, 5)
}

fn header_byte(frame: &[u8], at: usize) -> u8 {
    frame[at]
}
