//! A binary: its `pub fn`s are entry points of nothing and never flagged.

#![forbid(unsafe_code)]

/// Never flagged: binaries are out of the rule's scope.
pub fn only_in_a_binary() -> u32 {
    8
}

fn main() {
    let _ = only_in_a_binary();
}
