//! The `unreached-pub` fixture's definitions.

/// Named by no other file: fires.
pub fn orphan() -> u32 {
    1
}

/// Named only by this crate's `pub use` line: still fires.
pub fn reexported_only() -> u32 {
    2
}

/// Named only by another crate's integration test: silent.
pub fn test_only() -> u32 {
    3
}

/// Named only by an example: silent.
pub fn example_only() -> u32 {
    4
}

/// Named only by a headbench-shaped user outside the linted tree: silent.
pub fn bench_only() -> u32 {
    5
}

/// Named by no other file, but held with a reasoned allow: suppressed.
// xlint::allow(unreached-pub, UNREACHED_KEPT the next protocol revision calls it from the farm)
pub fn held() -> u32 {
    6
}

/// Crate-visible only: rustc's `dead_code` judges it, not this rule.
pub(crate) fn crate_only() -> u32 {
    7
}

/// A counter whose method is reached only through `.reading()`.
pub struct Meter(pub u32);

impl Meter {
    /// Named only by a method call in `caller.rs`: silent.
    pub fn reading(&self) -> u32 {
        self.0 + crate_only()
    }
}
