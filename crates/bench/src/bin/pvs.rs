//! `pvs <command> [flags]` — the one entry point to every table, figure,
//! sweep, harness and server of the reproduction.
//!
//! ```text
//! cargo run --release -p pvs-bench --bin pvs -- table3          # LBMHD, model vs paper
//! cargo run --release -p pvs-bench --bin pvs -- fig9 --json     # sustained %peak bars
//! cargo run --release -p pvs-bench --bin pvs -- --help          # list the commands
//! ```
//!
//! Each command is a flag spec plus a library function in
//! [`pvs_bench::commands`] returning the exit code (0 ok, 1 failure,
//! 2 usage, 3 unreadable input, 4 not JSON, 5 unknown schema,
//! 6 unwritable output); `pvs <command> --help` prints its flags.

#![forbid(unsafe_code)]

use pvs_bench::commands::{self as c, figure, model, plain};
use pvs_bench::figures;

type Command = fn(&[String]) -> i32;

// One line per command: the table is meant to be scanned.
#[rustfmt::skip]
const COMMANDS: &[(&str, Command)] = &[
    ("table1", |a| plain("table1", a, || print!("{}", pvs_bench::table1_text()))),
    ("table2", |a| plain("table2", a, || print!("{}", pvs_bench::table2_text()))),
    ("table3", |a| model("table3", a, pvs_bench::table3_model)),
    ("table4", |a| model("table4", a, pvs_bench::table4_model)),
    ("table5", |a| model("table5", a, pvs_bench::table5_model)),
    ("table6", |a| model("table6", a, pvs_bench::table6_model)),
    ("table7", |a| model("table7", a, pvs_bench::table7_model)),
    ("fig1", |a| figure("fig1", a, |pgm| figures::fig1(64, &[0, 100, 300], pgm))),
    ("fig2", |a| plain("fig2", a, || print!("{}", figures::fig2()))),
    ("fig3", |a| figure("fig3", a, figures::fig3)),
    ("fig4", |a| plain("fig4", a, || print!("{}", figures::fig4()))),
    ("fig5", |a| figure("fig5", a, figures::fig5)),
    ("fig6", |a| plain("fig6", a, || print!("{}", figures::fig6()))),
    ("fig7", |a| figure("fig7", a, figures::fig7)),
    ("fig8", |a| plain("fig8", a, || print!("{}", figures::fig8()))),
    ("fig9", |a| model("fig9", a, pvs_bench::fig9_model)),
    ("experiments", |a| c::experiments::SPEC.run(a, c::experiments::run)),
    ("scaling", |a| plain("scaling", a, c::scaling::run)),
    ("roofline", |a| plain("roofline", a, c::roofline::run)),
    ("whatif", |a| c::whatif::SPEC.run(a, c::whatif::run)),
    ("future_machines", |a| plain("future_machines", a, c::future_machines::run)),
    ("amr_sweep", |a| plain("amr_sweep", a, c::amr_sweep::run)),
    ("profile", |a| c::profile::SPEC.run(a, c::profile::run)),
    ("compare", |a| c::compare::SPEC.run(a, c::compare::run)),
    ("chaos", |a| c::chaos::SPEC.run(a, c::chaos::run)),
    ("rankscale", |a| c::rankscale::SPEC.run(a, c::rankscale::run)),
    ("serve", |a| c::serve::SPEC.run(a, c::serve::run)),
    ("serve_load", |a| c::serve_load::SPEC.run(a, c::serve_load::run)),
];

fn listing() -> String {
    let mut out = String::from(
        "usage: pvs <command> [flags]   (pvs <command> --help for its flags)\n\ncommands:\n",
    );
    for (name, _) in COMMANDS {
        out.push_str(&format!("  {name}\n"));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("--help" | "-h") => {
            print!("{}", listing());
            0
        }
        Some(name) => match COMMANDS.iter().find(|(n, _)| *n == name) {
            Some((_, command)) => command(&args[1..]),
            None => {
                eprintln!("error: unknown command {name:?}");
                eprint!("{}", listing());
                2
            }
        },
        None => {
            eprint!("{}", listing());
            2
        }
    };
    std::process::exit(code);
}
