//! PVS015 violation fixture: canonical schema ids spelled as literals
//! outside the `pvs_core::schema` registry.

const LOCAL_COPY: &str = "pvs-bench/profile-v2";

fn is_known(schema: &str) -> bool {
    schema == "pvs-obs/snapshot-v1" || schema == LOCAL_COPY
}

fn spill_header(body: &str) -> String {
    format!("{} {}\n", "pvs-serve/spill-cell-v1", body.len())
}
