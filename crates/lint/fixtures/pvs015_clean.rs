//! PVS015 clean fixture: canonical ids referenced through the const
//! registry; test regions may spell literals to pin the on-disk bytes.

fn current_schema() -> &'static str {
    pvs_core::schema::PROFILE_V2
}

fn is_known(schema: &str) -> bool {
    schema == pvs_core::schema::SNAPSHOT_V1 || schema == current_schema()
}

fn spill_header(body: &str) -> String {
    format!("{} {}\n", pvs_core::schema::SPILL_CELL_V1, body.len())
}

#[cfg(test)]
mod tests {
    #[test]
    fn pins_the_exact_wire_bytes() {
        // Tests are exempt: pinning the literal here is the point.
        assert_eq!(super::current_schema(), "pvs-bench/profile-v2");
    }
}
