//! Seeded input generation. Everything the program under test receives
//! is built here from `--seed`; the program never sees the seed itself.

use pvs_core::rng::Pcg32;
use pvs_report::paper::{self, PaperRow};
use pvs_serve::workload::{Request, APP_CONFIGS, MAX_PROCS};

use crate::spec::LADDER;

/// The five study machines a served cell may name.
pub const MACHINES: [&str; 5] = ["Power3", "Power4", "Altix", "ES", "X1"];

/// Size of `serve_hot`'s resident set.
pub const HOT_CELLS: usize = 64;

/// One independent random stream per purpose, so adding a draw to one
/// list never shifts another.
fn stream(seed: u64, purpose: u64) -> Pcg32 {
    Pcg32::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Fisher-Yates shuffle.
fn shuffle<T>(rng: &mut Pcg32, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u32 + 1) as usize);
    }
}

/// The 40 `(app, config, machine)` triples in canonical order.
pub fn triples() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut out = Vec::new();
    for (app, configs) in APP_CONFIGS {
        for config in configs {
            for machine in MACHINES {
                out.push((app, config, machine));
            }
        }
    }
    out
}

/// `serve_hot`'s resident set: 64 distinct cells, P a multiple of 4 up to
/// 256, walking a seeded permutation of the triples so every app, config
/// and machine is present.
pub fn hot_set(seed: u64) -> Vec<Request> {
    let mut rng = stream(seed, 1);
    let mut order = triples();
    shuffle(&mut rng, &mut order);
    let mut cells: Vec<Request> = Vec::with_capacity(HOT_CELLS);
    while cells.len() < HOT_CELLS {
        let (app, config, machine) = order[cells.len() % order.len()];
        let cell = Request::cell(app, config, machine, 4 * (1 + rng.next_below(64) as usize));
        if !cells.contains(&cell) {
            cells.push(cell);
        }
    }
    cells
}

/// The stream one `serve_hot` connection draws its cell indices from.
pub fn hot_picks(seed: u64, connection: usize) -> Pcg32 {
    stream(seed, 100 + connection as u64)
}

/// `serve_cold`'s request list: a seeded permutation of every triple at
/// every P in {4, 8, ..., 4096}. Connections draw from it without
/// replacement, so no request is ever seen twice.
pub fn cold_cells(seed: u64) -> Vec<Request> {
    let mut cells: Vec<Request> = Vec::new();
    for (app, config, machine) in triples() {
        for procs in (4..=MAX_PROCS).step_by(4) {
            cells.push(Request::cell(app, config, machine, procs));
        }
    }
    shuffle(&mut stream(seed, 2), &mut cells);
    cells
}

/// Whether `serve_cold` keeps request `index`'s reply for the
/// byte-identity check (a seeded 1-in-16 sample).
pub fn cold_sampled(seed: u64, index: usize) -> bool {
    stream(seed, 3 + ((index as u64) << 8)).next_below(16) == 0
}

/// One published cell and the paper's Gflop/s per processor for it.
pub struct PaperCell {
    pub request: Request,
    pub paper_gflops_per_p: f64,
}

/// Every published cell of Tables 3-6 that `Request::resolve` accepts,
/// in table order, and the count of published cells it does not.
pub fn paper_cells() -> (Vec<PaperCell>, usize) {
    let tables: [(&str, Vec<PaperRow>); 4] = [
        ("LBMHD", paper::table3()),
        ("PARATEC", paper::table4()),
        ("CACTUS", paper::table5()),
        ("GTC", paper::table6()),
    ];
    let mut cells = Vec::new();
    let mut skipped = 0;
    for (app, rows) in tables {
        for row in rows {
            for (machine, entry) in paper::MACHINES.iter().zip(row.entries) {
                let Some((gflops, _pct_peak)) = entry else {
                    continue;
                };
                let request = Request::cell(app, row.config, machine, row.procs);
                if MACHINES.contains(machine) && request.resolve().is_ok() {
                    cells.push(PaperCell {
                        request,
                        paper_gflops_per_p: gflops,
                    });
                } else {
                    skipped += 1;
                }
            }
        }
    }
    (cells, skipped)
}

/// The ROADMAP's 20-cell sweep: every app's larger configuration on every
/// machine at P = 64.
pub fn p64_cells() -> Vec<Request> {
    let mut cells = Vec::new();
    for (app, configs) in APP_CONFIGS {
        for machine in MACHINES {
            cells.push(Request::cell(app, configs[1], machine, 64));
        }
    }
    cells
}

/// The stream a sweep draws its submission orders from, one per pass.
pub fn sweep_orders(seed: u64) -> Pcg32 {
    stream(seed, 4)
}

/// The order the next pass submits its `n` jobs in.
pub fn next_order(orders: &mut Pcg32, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(orders, &mut order);
    order
}

/// The wire form of a cell request (no trailing newline).
pub fn request_line(request: &Request) -> String {
    // App, config and machine come from the closed vocabulary above: no
    // character in them needs escaping.
    format!(
        "{{\"op\":\"cell\",\"app\":\"{}\",\"config\":\"{}\",\"machine\":\"{}\",\"procs\":{}}}",
        request.app, request.config, request.machine, request.procs
    )
}

/// How many picks per connection `--print-workload serve_hot` lists.
const LISTED_PICKS: usize = 256;
/// How many passes' submission orders `--print-workload sweep_*` lists.
const LISTED_PASSES: usize = 4;

/// The generated inputs of one workload as text, one item per line, or
/// `None` for an unknown name.
pub fn listing(workload: &str, seed: u64) -> Option<String> {
    let lines = |cells: &[Request]| cells.iter().map(request_line).collect::<Vec<_>>();
    let ordered = |cells: Vec<Request>| {
        let mut out = lines(&cells);
        let mut orders = sweep_orders(seed);
        for pass in 0..LISTED_PASSES {
            let order: Vec<String> = next_order(&mut orders, cells.len())
                .iter()
                .map(usize::to_string)
                .collect();
            out.push(format!("pass {pass} order {}", order.join(" ")));
        }
        out
    };
    let out = match workload {
        "serve_hot" => {
            let mut out = lines(&hot_set(seed));
            for connection in 0..crate::spec::threads() {
                let mut rng = hot_picks(seed, connection);
                let picks: Vec<String> = (0..LISTED_PICKS)
                    .map(|_| rng.next_below(HOT_CELLS as u32).to_string())
                    .collect();
                out.push(format!("connection {connection} picks {}", picks.join(" ")));
            }
            out
        }
        "serve_cold" => lines(&cold_cells(seed)),
        "sweep_paper" => ordered(paper_cells().0.into_iter().map(|c| c.request).collect()),
        "sweep_p64" => ordered(p64_cells()),
        "ranks_ladder" => LADDER
            .iter()
            .map(|r| format!("{} {}", r.app, r.procs))
            .collect(),
        _ => return None,
    };
    Some(out.join("\n") + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn the_same_seed_gives_identical_bytes() {
        for name in WORKLOADS {
            assert_eq!(listing(name, 7), listing(name, 7), "{name}");
        }
        assert_eq!(listing("nope", 7), None);
    }

    #[test]
    fn another_seed_gives_another_list() {
        for name in ["serve_hot", "serve_cold", "sweep_paper", "sweep_p64"] {
            assert_ne!(listing(name, 7), listing(name, 8), "{name}");
        }
        // The ladder is fixed work: the seed has nothing to vary.
        assert_eq!(listing("ranks_ladder", 7), listing("ranks_ladder", 8));
    }

    #[test]
    fn the_hot_set_is_distinct_resolvable_and_covers_every_triple() {
        let cells = hot_set(3);
        assert_eq!(cells.len(), HOT_CELLS);
        for (i, c) in cells.iter().enumerate() {
            assert!(c.resolve().is_ok(), "{c:?}");
            assert!(c.procs <= 256 && c.procs % 4 == 0);
            assert!(!cells[..i].contains(c));
        }
        for (app, config, machine) in triples() {
            assert!(cells
                .iter()
                .any(|c| c.app == app && c.config == config && c.machine == machine));
        }
    }

    #[test]
    fn the_cold_list_is_a_permutation_without_repeats() {
        let cells = cold_cells(5);
        assert_eq!(cells.len(), 40 * 1024);
        let mut keys: Vec<String> = cells.iter().map(Request::canonical_key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len());
        let sampled = (0..16_000).filter(|&i| cold_sampled(5, i)).count();
        assert!(
            (800..1200).contains(&sampled),
            "1-in-16 sample, got {sampled}"
        );
    }

    #[test]
    fn the_paper_sweep_is_every_resolvable_published_cell() {
        let (cells, skipped) = paper_cells();
        assert_eq!(cells.len(), 102);
        assert!(skipped >= 1, "the hybrid GTC row does not resolve");
        assert!(cells.iter().all(|c| c.paper_gflops_per_p > 0.0));
        assert_eq!(p64_cells().len(), 20);
    }

    #[test]
    fn every_pass_draws_a_fresh_permutation() {
        let mut orders = sweep_orders(9);
        let first = next_order(&mut orders, 102);
        let mut second = next_order(&mut orders, 102);
        assert_ne!(first, second);
        assert_eq!(first, next_order(&mut sweep_orders(9), 102));
        second.sort_unstable();
        assert_eq!(second, (0..102).collect::<Vec<_>>());
    }

    #[test]
    fn request_lines_parse_back_to_the_request() {
        for cell in hot_set(1) {
            match pvs_serve::proto::parse_line(&request_line(&cell)) {
                Ok(pvs_serve::proto::Op::Cell {
                    request,
                    deadline_ms: None,
                }) => {
                    assert_eq!(request, cell)
                }
                other => panic!("{other:?}"),
            }
        }
    }
}
