use std::collections::{BTreeMap, BTreeSet};

pub fn dedup_count(xs: &[u32]) -> usize {
    let seen: BTreeSet<u32> = xs.iter().copied().collect();
    seen.len()
}

pub fn render(map: &BTreeMap<u32, f64>) -> Vec<String> {
    map.iter().map(|(k, v)| format!("{k}: {v}")).collect()
}
