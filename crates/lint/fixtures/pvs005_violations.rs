use std::collections::HashMap;

pub fn render(table: &[(u32, f64)]) -> Vec<String> {
    let mut index = HashMap::new();
    for (k, v) in table {
        index.insert(*k, *v);
    }
    let mut rows = Vec::new();
    for (k, v) in index.iter() {
        rows.push(format!("{k}: {v}"));
    }
    for k in index.keys() {
        rows.push(format!("{k}"));
    }
    rows
}

pub struct Ledger {
    m: std::collections::HashMap<u32, f64>,
}

impl Ledger {
    pub fn total(&self) -> f64 {
        let mut t = 0.0;
        for (_, v) in self.m.iter() {
            t += v;
        }
        t
    }
}

pub fn sum_param(m: &HashMap<u32, f64>) -> f64 {
    m.values().sum()
}
