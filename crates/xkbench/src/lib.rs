//! `xkbench` — the repository's benchmark (see `README.md` in this crate).
//!
//! This library and the `xkbench` bin measure the program strictly from
//! outside: child processes and HTTP. Nothing here links a layer crate;
//! the `xkbench-trace` bin does, through its own `surface.rs`.

pub mod corpus;
pub mod e2e;
pub mod http;
pub mod json;
pub mod proc;
pub mod recorder;
pub mod reference;
pub mod report;
pub mod rng;
