//! The schema registry: every on-disk format version string in one
//! place.
//!
//! Writer/reader drift between format versions is invisible until a
//! reader rejects (or worse, misparses) a document some writer produced.
//! This module is the single point of truth for every schema identifier
//! the workspace writes or reads; source rule PVS015 in the root
//! `tests/source_rules.rs` fails when any other file spells one of these
//! identifiers as a string literal, so
//! a version bump is one edit here plus the compiler finding every
//! consumer.
//!
//! Identifiers are `<producer>/<format>-v<N>`. A version bump appends a
//! new const and never mutates an existing one; an identifier stays
//! registered only while some command still writes it
//! (`every_schema_id_has_a_writer` in `pvs-bench`'s `cli_hardening`
//! runs each writer and looks for its identifier).

/// `BENCH_*.json` profile documents, current writer schema
/// (pretty-printed, stable key order).
pub const PROFILE_V2: &str = "pvs-bench/profile-v2";

/// Live telemetry snapshot served by `pvs-serve` (`stats`/`health`
/// responses): counters, gauges, and histogram summaries.
pub const SNAPSHOT_V1: &str = "pvs-obs/snapshot-v1";

/// On-disk spill cell written by `pvs-serve`'s cache: a one-line header
/// `<schema> <body-bytes> <fnv1a-16hex>` followed by the raw body, so a
/// warm-starting server can verify every entry before serving a byte.
pub const SPILL_CELL_V1: &str = "pvs-serve/spill-cell-v1";

/// Every registered schema identifier, for registry-wide checks
/// (PVS015 in `tests/source_rules.rs` walks this list).
pub const ALL: [&str; 3] = [PROFILE_V2, SNAPSHOT_V1, SPILL_CELL_V1];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifiers_are_unique_and_well_formed() {
        for (i, id) in ALL.iter().enumerate() {
            let (producer, format) = id.split_once('/').expect("producer/format");
            assert!(producer.starts_with("pvs"), "{id}");
            let (_, version) = format.rsplit_once("-v").expect("versioned");
            assert!(version.parse::<u32>().is_ok(), "{id}");
            assert!(!ALL[..i].contains(id), "duplicate {id}");
        }
    }
}
