//! End-to-end benchmark of the pTest stack.
//!
//! The `ptest-benchsuite` binary measures bug-finding throughput and time to a
//! minimal reproducer on three workloads, checks the outputs against
//! stored fingerprints, and with `--trace 1` splits host time across the
//! repository's layers. See `README.md` beside this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expected;
pub mod shrink;
pub mod stats;
pub mod traced;
pub mod workloads;
