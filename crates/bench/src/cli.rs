//! Shared CLI plumbing for the `pvs` commands: one declarative argument
//! parser, one exit-code convention, hardened document loading, and
//! atomic output writes.
//!
//! Every command follows the same contract so scripts can tell failure
//! modes apart:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | 1    | a regression / resilience invariant failed (the run itself worked) |
//! | 2    | malformed usage: unknown flag, missing or non-numeric value |
//! | 3    | an input file could not be read (missing, permission, I/O) |
//! | 4    | an input file is not valid JSON (truncated, garbage) |
//! | 5    | an input file is valid JSON but not a known profile schema |
//! | 6    | an output file or directory could not be written |
//!
//! Outputs are written atomically — content goes to a sibling `*.tmp.<pid>`
//! file first and is renamed into place, so a failed run never leaves a
//! truncated document where a good one was expected.

use pvs_analyze::sentinel::check_profile_doc;
use pvs_core::json::Value;
use std::path::{Path, PathBuf};

/// Process exit codes shared by the `pvs` commands.
pub mod exit {
    /// Success.
    pub const OK: i32 = 0;
    /// A regression or resilience invariant failed; inputs were fine.
    pub const FAILURE: i32 = 1;
    /// Malformed usage (unknown flag, bad value).
    pub const USAGE: i32 = 2;
    /// An input file could not be read at all.
    pub const UNREADABLE: i32 = 3;
    /// An input file is not valid JSON.
    pub const MALFORMED: i32 = 4;
    /// An input file parses as JSON but is not a known profile schema.
    pub const SCHEMA: i32 = 5;
    /// An output file or directory could not be written.
    pub const WRITE: i32 = 6;
}

/// How one flag's argument is checked — at parse time, before any
/// model work, so a typo can never cost a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Boolean flag; takes no value.
    Flag,
    /// Any string (a path, an address, a keyword the command checks).
    Text,
    /// Unsigned integer, at least 1.
    Count,
    /// Unsigned integer, zero allowed.
    Index,
    /// A finite floating-point number greater than zero: every real
    /// flag is a rate, a bandwidth, a latency or an efficiency.
    Real,
    /// A [`Kind::Count`] that may be left out (`--overhead [N]`).
    OptionalCount,
}

/// The whole command-line surface of one `pvs` command, declared as
/// data: `pvs <command> <synopsis>`, its flags, and how many positional
/// arguments it takes.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Command name as typed after `pvs`.
    pub command: &'static str,
    /// The rest of the usage line (flags and positionals, for humans).
    pub synopsis: &'static str,
    /// Every flag the command accepts.
    pub flags: &'static [(&'static str, Kind)],
    /// Exact number of positional arguments.
    pub positionals: usize,
}

/// Arguments that passed [`Spec::parse`]: every value already has the
/// shape its [`Kind`] promises, so the typed getters cannot fail.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positionals: Vec<String>,
    seen: Vec<(&'static str, Option<String>)>,
}

impl Spec {
    fn usage(&self) -> String {
        format!("usage: pvs {} {}", self.command, self.synopsis)
            .trim_end()
            .to_string()
    }

    /// Print `message` and the usage line to stderr; the caller returns
    /// the result ([`exit::USAGE`]). For the cross-flag rules a
    /// declarative spec cannot express.
    pub fn usage_error(&self, message: &str) -> i32 {
        eprintln!("error: {message}");
        eprintln!("{}", self.usage());
        exit::USAGE
    }

    /// Check `args` against the spec. `--help`/`-h` prints the usage
    /// line to stdout and yields `Err(exit::OK)`; an unknown flag, a
    /// missing or ill-typed value, or the wrong number of positionals
    /// prints one `error:` line plus the usage line to stderr and yields
    /// `Err(exit::USAGE)` — never a panic, never a silent success.
    pub fn parse(&self, args: &[String]) -> Result<Args, i32> {
        let mut parsed = Args::default();
        let mut rest = args.iter().peekable();
        while let Some(arg) = rest.next() {
            if arg == "--help" || arg == "-h" {
                println!("{}", self.usage());
                return Err(exit::OK);
            }
            let Some(&(name, kind)) = self.flags.iter().find(|(name, _)| name == arg) else {
                if arg.starts_with("--") || parsed.positionals.len() == self.positionals {
                    return Err(self.usage_error(&format!("unrecognized argument {arg:?}")));
                }
                parsed.positionals.push(arg.clone());
                continue;
            };
            let is_count = |v: &str| v.parse::<usize>().is_ok_and(|n| n >= 1);
            let value = match kind {
                Kind::Flag => None,
                Kind::OptionalCount => rest.next_if(|v| is_count(v)).cloned(),
                _ => {
                    let Some(value) = rest.next() else {
                        return Err(self.usage_error(&format!("{name} needs a value")));
                    };
                    let (ok, want) = match kind {
                        Kind::Count => (is_count(value), "a positive integer"),
                        Kind::Index => (value.parse::<usize>().is_ok(), "a non-negative integer"),
                        Kind::Real => (
                            value.parse::<f64>().is_ok_and(|v| v.is_finite() && v > 0.0),
                            "a positive finite number",
                        ),
                        _ => (true, ""),
                    };
                    if !ok {
                        return Err(
                            self.usage_error(&format!("{name} needs {want}, got {value:?}"))
                        );
                    }
                    Some(value.clone())
                }
            };
            parsed.seen.push((name, value));
        }
        if parsed.positionals.len() != self.positionals {
            return Err(self.usage_error(&format!(
                "expected {} positional argument(s), got {}",
                self.positionals,
                parsed.positionals.len()
            )));
        }
        Ok(parsed)
    }

    /// Parse `args` and hand them to `body`; `--help` or a usage error
    /// returns its exit code without running anything.
    pub fn run(&self, args: &[String], body: impl FnOnce(&Args) -> i32) -> i32 {
        match self.parse(args) {
            Ok(args) => body(&args),
            Err(code) => code,
        }
    }
}

impl Args {
    /// Whether `name` was given at all.
    pub fn flag(&self, name: &str) -> bool {
        self.seen.iter().any(|(n, _)| *n == name)
    }

    /// The value of a [`Kind::Text`] flag (last occurrence wins).
    pub fn text(&self, name: &str) -> Option<&str> {
        self.seen
            .iter()
            .rev()
            .find(|(n, _)| *n == name)?
            .1
            .as_deref()
    }

    /// The value of a [`Kind::Count`], [`Kind::Index`] or
    /// [`Kind::OptionalCount`] flag.
    pub fn count(&self, name: &str) -> Option<usize> {
        self.text(name)
            .map(|v| v.parse().expect("checked by Spec::parse"))
    }

    /// The value of a [`Kind::Real`] flag.
    pub fn real(&self, name: &str) -> Option<f64> {
        self.text(name)
            .map(|v| v.parse().expect("checked by Spec::parse"))
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> &str {
        &self.positionals[i]
    }
}

/// Where a bench document goes: `--out` if given, else
/// `target/BENCH_<stem>.json` — the fresh side of
/// `pvs compare BENCH_<stem>.json target/BENCH_<stem>.json`. A committed
/// baseline is rewritten only by naming it (`--out BENCH_<stem>.json`).
pub fn bench_out_path(args: &Args, stem: &str) -> String {
    match args.text("--out") {
        Some(path) => path.to_string(),
        None => format!("target/BENCH_{stem}.json"),
    }
}

/// Probe `path`, run `produce`, write its document atomically. An
/// unwritable destination fails fast with [`exit::WRITE`] — before the
/// run, not after it — and a failed run (`Err(code)`) writes nothing.
/// Prints `wrote <path>` and returns [`exit::OK`] on success.
pub fn write_probed(path: &str, produce: impl FnOnce() -> Result<String, i32>) -> i32 {
    let unwritable = |e: std::io::Error| {
        eprintln!("error: cannot write {path}: {e}");
        exit::WRITE
    };
    if let Err(e) = probe_writable(path) {
        return unwritable(e);
    }
    let contents = match produce() {
        Ok(contents) => contents,
        Err(code) => return code,
    };
    match write_atomic(path, &contents) {
        Ok(()) => {
            println!("wrote {path}");
            exit::OK
        }
        Err(e) => unwritable(e),
    }
}

/// Load a profile document for `compare`: the parsed JSON, once it has
/// passed [`check_profile_doc`]. Every failure mode is classified
/// into the shared exit-code convention. Returns
/// `(exit_code, one_line_message)` on failure; callers print the message
/// to stderr and exit.
pub fn load_profile_doc(path: &str) -> Result<Value, (i32, String)> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| (exit::UNREADABLE, format!("cannot read {path}: {e}")))?;
    let doc = pvs_core::json::parse(&text)
        .map_err(|e| (exit::MALFORMED, format!("{path}: {e}")))?;
    check_profile_doc(&doc)
        .map_err(|e| (exit::SCHEMA, format!("{path}: not a profile document: {e}")))?;
    Ok(doc)
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

/// Write `contents` to `path` atomically ([`pvs_serve::cache::write_atomic`]):
/// parents are created, content lands in a sibling temp file, and a
/// rename moves it into place — a pre-existing `path` is either fully
/// replaced or left untouched, never truncated.
pub fn write_atomic(path: &str, contents: &str) -> std::io::Result<()> {
    pvs_serve::cache::write_atomic(Path::new(path), contents)
}

/// Probe that `path` will be writable *before* doing expensive work, so
/// a long run cannot end in a write failure. Creates parent directories,
/// opens (and removes) the same temp sibling `write_atomic` would use.
pub fn probe_writable(path: &str) -> std::io::Result<()> {
    let path = Path::new(path);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = tmp_sibling(path);
    std::fs::write(&tmp, b"")?;
    std::fs::remove_file(&tmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pvs_cli_{}_{name}", std::process::id()))
    }

    #[test]
    fn atomic_write_replaces_or_preserves_never_truncates() {
        let p = scratch("atomic.json");
        let path = p.to_str().unwrap();
        write_atomic(path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "first");
        write_atomic(path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "second");
        // Failure path: the target's parent is a *file*, so the rename
        // cannot land — the original content must survive untouched.
        let under = format!("{path}/child.json");
        assert!(write_atomic(&under, "x").is_err());
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "second");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn probe_detects_unwritable_targets_up_front() {
        let p = scratch("probe.json");
        let path = p.to_str().unwrap();
        assert!(probe_writable(path).is_ok());
        assert!(!p.exists(), "probe must clean up after itself");
        std::fs::write(&p, "occupied").unwrap();
        let under = format!("{path}/child.json");
        assert!(probe_writable(&under).is_err());
        std::fs::remove_file(&p).unwrap();
    }
}
