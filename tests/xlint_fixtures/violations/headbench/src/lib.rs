//! A headbench-shaped user: a workspace of its own that builds against
//! the fixture crates by path. xlint reads it for the names it uses and
//! lints nothing in it, so the wall-clock read below must not fire.

pub fn timed() -> u32 {
    let _t = std::time::Instant::now();
    unreached::bench_only()
}
