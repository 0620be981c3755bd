//! Umbrella crate for the parallel-batched interpolation search tree
//! reproduction.  It only re-exports the workspace crates so that the
//! examples and integration tests in this package have a single import
//! surface; all functionality lives in the `crates/` members.

pub use baselines;
pub use batchapi;
pub use combine;
pub use durable;
pub use forkjoin;
pub use obs;
pub use parprim;
pub use pbist;
pub use service;
pub use workloads;
