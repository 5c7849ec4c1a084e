//! The JSON reader lives in [`pvs_core::json`]; this path is kept for
//! callers outside the workspace.
pub use pvs_core::json::*;
