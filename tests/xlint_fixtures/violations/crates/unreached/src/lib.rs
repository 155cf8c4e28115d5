//! Fixture: `unreached-pub`. `api.rs` defines the bare-`pub` fns; this
//! crate root re-exports all of them, which by itself is not a use.

#![forbid(unsafe_code)]

mod api;
mod caller;

pub use api::{bench_only, example_only, held, orphan, reexported_only, test_only, Meter};
