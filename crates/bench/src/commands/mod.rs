//! The `pvs` commands. A command is a [`crate::cli::Spec`] declaring its
//! flags plus a function from the parsed arguments to the process exit
//! code (the [`crate::cli::exit`] convention); the table in
//! `src/bin/pvs.rs` joins the two with [`crate::cli::Spec::run`], so
//! `--help` and unknown-argument handling are uniform and happen before
//! any command code runs.

pub mod amr_sweep;
pub mod chaos;
pub mod compare;
pub mod experiments;
pub mod future_machines;
pub mod profile;
pub mod rankscale;
pub mod roofline;
pub mod scaling;
pub mod serve;
pub mod serve_load;
pub mod whatif;

use crate::cli::{exit, Kind, Spec};
use crate::TableOutput;

/// A command that takes no flags and only prints (`table1`, `fig2`,
/// `scaling`, ...).
pub fn plain(command: &'static str, args: &[String], print: fn()) -> i32 {
    let spec = Spec {
        command,
        synopsis: "",
        flags: &[],
        positionals: 0,
    };
    spec.run(args, |_| {
        print();
        exit::OK
    })
}

/// A figure command whose field can also be saved as a PGM image in the
/// working directory (`--pgm`).
pub fn figure(command: &'static str, args: &[String], render: fn(bool) -> String) -> i32 {
    let spec = Spec {
        command,
        synopsis: "[--pgm]",
        flags: &[("--pgm", Kind::Flag)],
        positionals: 0,
    };
    spec.run(args, |args| {
        print!("{}", render(args.flag("--pgm")));
        exit::OK
    })
}

/// A model-vs-paper table command (`table3`..`table7`, `fig9`): text by
/// default, `--json` for tooling; exit 1 when a shape check fails.
pub fn model(command: &'static str, args: &[String], generate: fn(usize) -> TableOutput) -> i32 {
    let spec = Spec {
        command,
        synopsis: "[--json]",
        flags: &[("--json", Kind::Flag)],
        positionals: 0,
    };
    spec.run(args, |args| {
        let out = generate(pvs_core::pool::default_threads());
        if args.flag("--json") {
            println!("{}", out.render_json());
        } else {
            print!("{}", out.render());
        }
        if out.all_checks_pass() {
            exit::OK
        } else {
            exit::FAILURE
        }
    })
}
