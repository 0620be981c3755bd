//! Umbrella package for the parallel-batched interpolation search tree
//! reproduction.  It holds no code: its integration tests (`tests/`)
//! import the workspace crates under `crates/` directly, and all
//! functionality lives there.
