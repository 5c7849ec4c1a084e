//! PVS015 violation fixture: canonical schema ids spelled as literals
//! outside the `pvs_core::schema` registry.

const LOCAL_COPY: &str = "pvs-bench/profile-v2";

fn is_known(schema: &str) -> bool {
    schema == "pvs-obs/snapshot-v1" || schema == LOCAL_COPY
}

fn checkpoint_header() -> String {
    format!("{}\ntotal 3\n", "pvs-core/sweep-checkpoint-v1")
}
