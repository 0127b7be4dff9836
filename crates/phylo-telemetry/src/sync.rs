//! The crate's designated atomic module (lint rule **L004**): the
//! recorder's relaxed counters are the only atomics in the workspace, and
//! they are imported from here rather than from `std::sync::atomic`.

pub use std::sync::atomic::{AtomicU64, Ordering};
