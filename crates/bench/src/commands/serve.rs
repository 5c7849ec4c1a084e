//! The sweep server CLI: bind, print the address, serve until told to
//! stop.
//!
//! ```text
//! cargo run --release -p pvs-bench --bin pvs -- serve                     # 127.0.0.1:7411
//! cargo run --release -p pvs-bench --bin pvs -- serve --addr 127.0.0.1:0 --idle-timeout-ms 5000
//! ```
//!
//! Flags: `--addr A` (bind address, port 0 for ephemeral), `--threads N`
//! (simulation pool), `--max-pending N` (admission cap on distinct
//! in-flight simulations), `--spill-dir PATH` (on-disk cache),
//! `--max-connections N` (cap on live connection threads),
//! `--idle-timeout-ms N` (exit after N ms without traffic; default runs
//! until a client sends `{"op":"shutdown"}`).
//!
//! Exit codes (the shared `pvs_bench::cli` convention): 0 clean
//! shutdown, 2 malformed usage, 6 the bind failed.

use std::time::Duration;

use crate::cli::{exit, Args, Kind, Spec};
use pvs_serve::{Server, ServerOptions};

pub const SPEC: Spec = Spec {
    command: "serve",
    synopsis: "[--addr A] [--threads N] [--max-pending N] \
               [--spill-dir PATH] [--max-connections N] [--idle-timeout-ms N]",
    flags: &[
        ("--addr", Kind::Text),
        ("--threads", Kind::Index),
        ("--max-pending", Kind::Index),
        ("--spill-dir", Kind::Text),
        ("--max-connections", Kind::Index),
        ("--idle-timeout-ms", Kind::Index),
    ],
    positionals: 0,
};

/// `pvs serve`.
pub fn run(args: &Args) -> i32 {
    let mut options = ServerOptions {
        addr: args.text("--addr").unwrap_or("127.0.0.1:7411").to_string(),
        ..Default::default()
    };
    for (flag, field) in [
        ("--threads", &mut options.store.threads),
        ("--max-connections", &mut options.max_connections),
    ] {
        if let Some(n) = args.count(flag) {
            *field = n.max(1);
        }
    }
    if let Some(n) = args.count("--max-pending") {
        options.store.max_pending = n;
    }
    options.store.spill_dir = args.text("--spill-dir").map(Into::into);
    options.idle_timeout = args
        .count("--idle-timeout-ms")
        .map(|ms| Duration::from_millis(ms as u64));
    let store = options.store.clone();
    let mut server = match Server::start(options) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return exit::WRITE;
        }
    };
    println!("serving on {}", server.addr());
    println!(
        "  threads={} shards={} max_pending={} spill={}",
        store.threads,
        pvs_serve::cache::DEFAULT_SHARDS,
        store.max_pending,
        store
            .spill_dir
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "off".to_string())
    );
    server.wait();
    let snap = server.store().registry().snapshot();
    println!(
        "served {} lines ({} hits, {} misses, {} batched); exiting",
        snap.counter("serve.net.lines").unwrap_or(0),
        snap.counter("serve.cache.hits").unwrap_or(0),
        snap.counter("serve.cache.misses").unwrap_or(0),
        snap.counter("serve.cache.batched_misses").unwrap_or(0),
    );
    exit::OK
}
