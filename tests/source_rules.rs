//! The workspace's source rules, held as tests over its own text.
//!
//! Every other test assumes these properties of the tree: it builds
//! offline, model output is a pure function of its inputs, the build is
//! warning-clean without blanket escape hatches, simulator library code
//! does not abort on a modelled fault, locks nest in one order, and the
//! counter namespace and the schema registry stay closed.
//!
//! Each rule is a `pvsNNN_…` function returning its findings as
//! `path:line: message` strings. Each has two tests: it finds nothing on
//! the tree, and it fires on inline sources seeded with its defect while
//! staying quiet on their clean twins. The rules read text only, through
//! one scanner that blanks comments and literal contents, so prose never
//! fires one. Numbers are never reused. Retired: PVS004 (rustc holds it,
//! `#![forbid(unsafe_code)]` at every crate root), PVS006 (float sums over
//! channel receives; `tests/parallel_sweep.rs` and `pvs chaos` hold sweep
//! output identical at every thread count), PVS008–PVS010
//! (`tests/simulators.rs` holds static ≡ dynamic vectorisation) and
//! PVS011 (a clause of PVS014).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

// ---------------------------------------------------------------- walk

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The `.rs` files under `dir`, recursively, in sorted order.
fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The workspace members under `crates/`, sorted.
fn members() -> Vec<PathBuf> {
    let entries = fs::read_dir(root().join("crates")).expect("crates/ is readable");
    let mut out: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    out.sort();
    out
}

/// Every `.rs` file under `crates/*/<subdir>` and the root `<subdir>/`.
fn rust_files_in(subdir: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for member in members() {
        rust_files_under(&member.join(subdir), &mut out);
    }
    rust_files_under(&root().join(subdir), &mut out);
    out
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn relative(path: &Path) -> String {
    path.strip_prefix(root())
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Everything the rules read, loaded and scanned once per test binary.
struct Tree {
    /// `crates/*/src` and `src/` (`test_tree == false`), then
    /// `crates/*/tests` and `tests/`, whose counter names PVS014 joins.
    files: Vec<Source>,
    /// The root manifest, every member's, and `benchmark/`'s.
    manifests: Vec<(String, String)>,
    /// `Cargo.lock` and `benchmark/Cargo.lock`.
    lockfiles: Vec<(String, String)>,
    /// README.md, whose counter table is PVS014's registry.
    readme: String,
}

impl Tree {
    fn sources(&self) -> impl Iterator<Item = &Source> {
        self.files.iter().filter(|f| !f.test_tree)
    }
}

fn tree() -> &'static Tree {
    static TREE: OnceLock<Tree> = OnceLock::new();
    TREE.get_or_init(|| {
        let mut files = Vec::new();
        for (subdir, test_tree) in [("src", false), ("tests", true)] {
            for path in rust_files_in(subdir) {
                files.push(Source::new(&relative(&path), &read(&path), test_tree));
            }
        }
        let mut manifests = vec![root().join("Cargo.toml")];
        manifests.extend(
            members()
                .iter()
                .map(|m| m.join("Cargo.toml"))
                .filter(|p| p.is_file()),
        );
        manifests.push(root().join("benchmark/Cargo.toml"));
        let load = |paths: Vec<PathBuf>| paths.iter().map(|p| (relative(p), read(p))).collect();
        Tree {
            files,
            manifests: load(manifests),
            lockfiles: load(vec![
                root().join("Cargo.lock"),
                root().join("benchmark/Cargo.lock"),
            ]),
            readme: read(&root().join("README.md")),
        }
    })
}

// ------------------------------------------------------------- scanner

/// One physical line: the code with comments removed and string/char
/// literal contents blanked to spaces (quotes and columns kept), and the
/// comment text.
#[derive(Default)]
struct Line {
    code: String,
    comment: String,
}

/// Split Rust text into per-line code and comment channels. It tracks
/// line comments, nested block comments, strings with escapes, raw
/// strings with `#` fences, byte strings, and char literals versus
/// lifetimes. It never tokenizes identifiers or parses syntax.
fn scan(text: &str) -> Vec<Line> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Code,
        LineComment,
        Block(u32),
        Str,
        Raw(usize),
        Char,
    }
    let chars: Vec<char> = text.chars().collect();
    let at = |i: usize| chars.get(i).copied();
    let mut lines = Vec::new();
    let mut cur = Line::default();
    let mut state = State::Code;
    let mut i = 0;
    while i < chars.len() {
        let (c, next) = (chars[i], at(i + 1));
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        let mut step = 1;
        match state {
            State::Code if c == '/' && matches!(next, Some('/' | '*')) => {
                state = if next == Some('/') {
                    State::LineComment
                } else {
                    State::Block(1)
                };
                cur.code.push_str("  ");
                step = 2;
            }
            State::Code if c == '"' => {
                state = State::Str;
                cur.code.push('"');
            }
            State::Code => {
                if let Some((fence, open)) = raw_string_open(&chars, i) {
                    cur.code.extend(std::iter::repeat_n('"', open));
                    state = State::Raw(fence);
                    step = open;
                } else {
                    // `'x'` and `'\n'` open a char literal; `'a` is a lifetime.
                    if c == '\''
                        && (next == Some('\\') || next.is_some() && at(i + 2) == Some('\''))
                    {
                        state = State::Char;
                    }
                    cur.code.push(c);
                }
            }
            State::LineComment => cur.comment.push(c),
            State::Block(depth) => {
                if c == '/' && next == Some('*') {
                    state = State::Block(depth + 1);
                    step = 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth > 1 {
                        State::Block(depth - 1)
                    } else {
                        State::Code
                    };
                    step = 2;
                } else {
                    cur.comment.push(c);
                }
            }
            State::Str | State::Char => {
                let close = if state == State::Str { '"' } else { '\'' };
                if c == '\\' {
                    cur.code.push(' ');
                    if next.is_some_and(|e| e != '\n') {
                        cur.code.push(' ');
                        step = 2;
                    }
                } else if c == close {
                    cur.code.push(c);
                    state = State::Code;
                } else {
                    cur.code.push(' ');
                }
            }
            State::Raw(fence) => {
                if c == '"' && (1..=fence).all(|k| at(i + k) == Some('#')) {
                    cur.code.extend(std::iter::repeat_n('"', fence + 1));
                    state = State::Code;
                    step = fence + 1;
                } else {
                    cur.code.push(' ');
                }
            }
        }
        i += step;
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() || state != State::Code {
        lines.push(cur);
    }
    lines
}

/// A raw-string opener (`r"`, `r#"`, `br##"`, …) at `chars[i]`: its fence
/// length and its length through the quote.
fn raw_string_open(chars: &[char], i: usize) -> Option<(usize, usize)> {
    if i > 0 && is_ident_char(chars[i - 1]) {
        return None; // the `r` of `var`
    }
    let mut j = i + usize::from(chars[i] == 'b');
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let fence = chars[j..].iter().take_while(|&&c| c == '#').count();
    (chars.get(j + fence) == Some(&'"')).then_some((fence, j + fence + 1 - i))
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does `code` contain `word` with no identifier character on either side?
fn has_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let ident = |i: usize| {
        bytes
            .get(i)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
    };
    code.match_indices(word)
        .any(|(at, _)| (at == 0 || !ident(at - 1)) && !ident(at + word.len()))
}

/// The identifier `s` starts with (possibly empty).
fn leading_ident(s: &str) -> &str {
    &s[..s.find(|c| !is_ident_char(c)).unwrap_or(s.len())]
}

/// The identifier `s` ends with (possibly empty).
fn trailing_ident(s: &str) -> &str {
    let start = s
        .char_indices()
        .rev()
        .take_while(|&(_, c)| is_ident_char(c))
        .last();
    &s[start.map_or(s.len(), |(i, _)| i)..]
}

fn braces(code: &str) -> i64 {
    code.matches('{').count() as i64 - code.matches('}').count() as i64
}

/// One scanned Rust file.
struct Source {
    /// Workspace-relative path.
    path: String,
    /// `core` for `crates/core/…`; `pvs` for the facade's `src/`.
    crate_name: String,
    lines: Vec<Line>,
    /// The lines as written, for reading literals back out.
    raw: Vec<String>,
    /// A file of `crates/*/tests` or `tests/`.
    test_tree: bool,
    /// First line of the `#[cfg(test)]` tail (0 in a test tree): the
    /// workspace keeps unit tests last.
    test_from: usize,
}

impl Source {
    fn new(path: &str, text: &str, test_tree: bool) -> Source {
        let lines = scan(text);
        let test_from = if test_tree {
            0
        } else {
            lines
                .iter()
                .position(|l| l.code.contains("#[cfg(test)]"))
                .unwrap_or(lines.len())
        };
        let mut parts = path.split('/');
        let crate_name = match (parts.next(), parts.next()) {
            (Some("crates"), Some(name)) => name,
            _ => "pvs",
        };
        Source {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            raw: text.lines().map(str::to_string).collect(),
            lines,
            test_tree,
            test_from,
        }
    }

    /// `path:line` of the 0-based line `idx`.
    fn loc(&self, idx: usize) -> String {
        format!("{}:{}", self.path, idx + 1)
    }

    /// A finding at the 0-based line `idx`.
    fn at(&self, idx: usize, message: impl std::fmt::Display) -> String {
        format!("{}: {message}", self.loc(idx))
    }

    fn raw(&self, idx: usize) -> &str {
        self.raw.get(idx).map_or("", String::as_str)
    }
}

// ------------------------------------------------------- offline build

/// A dependency section header: `Some(None)` for a list such as
/// `[dev-dependencies]`, `Some(Some(name))` for the table form
/// `[dependencies.name]`, `None` for any other section.
fn dependency_header(header: &str) -> Option<Option<&str>> {
    let inner = header.strip_prefix('[')?.strip_suffix(']')?;
    let (kind, rest) = inner.split_once("dependencies")?;
    let kind_ok = ["", "dev-", "build-", "workspace."].contains(&kind)
        || kind.starts_with("target.")
            && [".", ".dev-", ".build-"].iter().any(|k| kind.ends_with(k));
    if !kind_ok {
        return None;
    }
    match rest {
        "" => Some(None),
        _ => rest
            .strip_prefix('.')
            .map(|name| Some(name.trim_matches(['"', '\'']))),
    }
}

/// PVS001: every dependency a manifest declares (normal, dev, build,
/// target-specific or workspace-wide, list or table form) is an in-tree
/// `pvs*` crate found by path. Cargo resolves declared dependencies into
/// the lockfile even when nothing compiles them, so one registry crate
/// anywhere breaks the offline build.
fn pvs001_path_only_dependencies(path: &str, text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut section = None;
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        let at = |message: String| format!("{path}:{}: {message}", idx + 1);
        let external = |name: &str| {
            at(format!("external dependency `{name}` declared; the workspace stays std-only to build offline"))
        };
        if line.starts_with('[') {
            section = dependency_header(line);
            match section {
                Some(Some(name)) if !name.starts_with("pvs") => out.push(external(name)),
                _ => {}
            }
            continue;
        }
        let Some(table) = section else { continue };
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let key = line
            .split(['=', '.'])
            .next()
            .unwrap_or("")
            .trim()
            .trim_matches('"');
        let name = table.unwrap_or(key);
        let pinned = if table.is_some() {
            key == "version"
        } else {
            line.contains("version")
        };
        if !name.starts_with("pvs") {
            if table.is_none() {
                out.push(external(name));
            }
        } else if pinned {
            out.push(at(format!(
                "`{name}` pinned by version; a path needs no registry lookup"
            )));
        }
    }
    out
}

/// PVS002: the lockfile holds workspace packages only, and none has a
/// `source`: a registry or git source is fetched at build time.
fn pvs002_path_only_lockfile(path: &str, text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut package = "";
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if let Some(name) = line.strip_prefix("name = ") {
            package = name.trim_matches('"');
            if package != "pvs" && !package.starts_with("pvs-") {
                out.push(format!(
                    "{path}:{}: non-workspace package `{package}` in the lockfile",
                    idx + 1
                ));
            }
        } else if line.starts_with("source = ") {
            out.push(format!(
                "{path}:{}: package `{package}` resolves from an external source ({line})",
                idx + 1
            ));
        }
    }
    out
}

/// A manifest's package name and the `pvs*` crates it depends on, from
/// every dependency section but `[workspace.dependencies]`, which
/// declares paths rather than edges. `None` without a `[package]`.
fn manifest_edges(text: &str) -> Option<(String, BTreeSet<String>)> {
    let (mut name, mut edges) = (None, BTreeSet::new());
    let (mut in_package, mut section) = (false, None);
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            in_package = line == "[package]";
            section = dependency_header(line).filter(|_| !line.starts_with("[workspace."));
            if let Some(Some(dep)) = section {
                edges.insert(dep.to_string());
            }
        } else if in_package {
            if let Some(n) = line.strip_prefix("name = ") {
                name = Some(n.trim_matches('"').to_string());
            }
        } else if section == Some(None) && !line.starts_with('#') {
            let key = line.split(['=', '.']).next().unwrap_or("");
            edges.insert(key.trim().trim_matches('"').to_string());
        }
    }
    Some((name?, edges.into_iter().filter(|d| d.starts_with("pvs")).collect()))
}

/// PVS002, second half: every `pvs*` package's `dependencies` in a
/// lockfile equal the `pvs*` dependencies its manifest declares
/// (`manifests`: package name → edges). Cargo rewrites a stale lockfile
/// on the next build, `--offline` included, so an edge changed in a
/// manifest alone would surface as a silent rewrite wherever that
/// lockfile is next built.
fn pvs002_lockfile_edges(
    path: &str,
    lock: &str,
    manifests: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<String> {
    let mut packages: Vec<(String, usize, BTreeSet<String>)> = Vec::new();
    let mut in_deps = false;
    for (idx, line) in lock.lines().enumerate() {
        let line = line.trim();
        if let Some(name) = line.strip_prefix("name = ") {
            packages.push((name.trim_matches('"').to_string(), idx, BTreeSet::new()));
        } else if line == "dependencies = [" {
            in_deps = true;
        } else if line == "]" {
            in_deps = false;
        } else if let (true, Some(package)) = (in_deps, packages.last_mut()) {
            let dep = line.trim_matches([',', '"']).split(' ').next().unwrap_or("");
            package.2.insert(dep.to_string());
        }
    }
    let mut out = Vec::new();
    for (name, idx, locked) in packages.iter().filter(|p| p.0.starts_with("pvs")) {
        let at = |message: String| format!("{path}:{}: package `{name}` {message}", idx + 1);
        let Some(declared) = manifests.get(name) else {
            out.push(at("has no manifest in the tree".to_string()));
            continue;
        };
        let list = |a: &BTreeSet<String>, b: &BTreeSet<String>| {
            a.difference(b).map(|d| format!("`{d}`")).collect::<Vec<_>>().join(", ")
        };
        let (stale, missing) = (list(locked, declared), list(declared, locked));
        if !stale.is_empty() {
            out.push(at(format!("locks {stale}, which its manifest no longer declares")));
        }
        if !missing.is_empty() {
            out.push(at(format!("does not lock {missing}, which its manifest declares")));
        }
    }
    out
}

// --------------------------------------------------------- determinism

/// PVS003: no host clock outside `pvs-bench`, which times the host, and
/// `crates/serve/src/server.rs`, the serving edge's timeouts and service
/// times. Everything else models machines and must be a pure function
/// of its inputs. Every clock read names one of the three tokens below;
/// `Duration`, a plain value, is fine anywhere.
fn pvs003_no_wall_clock(src: &Source) -> Vec<String> {
    if src.crate_name == "bench" || src.path == "crates/serve/src/server.rs" {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        for token in ["Instant", "SystemTime", "UNIX_EPOCH"] {
            if has_word(&line.code, token) {
                out.push(src.at(idx, format!("`{token}` outside pvs-bench and the serve edge; model code must be wall-clock free for byte-identical output")));
            }
        }
    }
    out
}

/// PVS005: model and library source names no `HashMap`/`HashSet`. Hash
/// iteration order differs per process, and whether a container is ever
/// walked into a table, a figure or a float sum (a field, a parameter, a
/// `.values().sum()` three calls away) cannot be read off one line; the
/// type name can.
fn pvs005_no_hash_containers(src: &Source) -> Vec<String> {
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        for token in ["HashMap", "HashSet"] {
            if has_word(&line.code, token) {
                out.push(src.at(idx, format!("`{token}` iterates in per-process order; use a BTree container or a sorted Vec")));
            }
        }
    }
    out
}

/// Lint categories too broad to `allow` or `expect`: suppressing one
/// hides a defect class, not one named false positive.
const BLANKET_LINTS: [&str; 10] = [
    "warnings",
    "unused",
    "dead_code",
    "unused_variables",
    "unused_imports",
    "unused_mut",
    "unreachable_code",
    "clippy::all",
    "clippy::correctness",
    "clippy::suspicious",
];

/// PVS007: no attribute, `cfg_attr` forms included, `allow`s or
/// `expect`s a whole lint category. The build is warning-clean and stays
/// so honestly; narrow, named allows are fine.
fn pvs007_no_blanket_allow(src: &Source) -> Vec<String> {
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        let Some(attr) = ["#[", "#!["].iter().filter_map(|m| line.code.find(m)).min() else {
            continue;
        };
        let code = &line.code[attr..];
        for marker in ["allow(", "expect("] {
            for (pos, _) in code.match_indices(marker) {
                // `.expect(` is a method call and `disallow(` another word.
                let prev = code.as_bytes()[pos - 1];
                if prev == b'.' || prev == b'_' || prev.is_ascii_alphanumeric() {
                    continue;
                }
                let inner = code[pos + marker.len()..]
                    .split(')')
                    .next()
                    .unwrap_or_default();
                for item in inner
                    .split(',')
                    .map(str::trim)
                    .filter(|i| BLANKET_LINTS.contains(i))
                {
                    out.push(src.at(
                        idx,
                        format!("blanket suppression `{item}`; allow a named lint instead"),
                    ));
                }
            }
        }
    }
    out
}

/// Calls whose `Result` an `unwrap`/`expect` chain may end in. Option
/// accessors (`first()`, `get()`, …) are not here, so they never fire.
const RESULT_CALLS: [&str; 13] = [
    ".lock()",
    ".read()",
    ".write()",
    ".join()",
    ".wait(",
    ".recv()",
    ".try_recv()",
    ".recv_timeout(",
    ".send(",
    ".spawn(",
    ".parse()",
    ".parse::<",
    "from_utf8(",
];

/// PVS012: simulator library code does not `unwrap`/`expect` a `Result`.
/// The fault layer drives the simulators into degraded states on
/// purpose, so their errors are inputs, and a panic turns a modelled
/// fault into an abort. An `// INFALLIBLE:` comment on the line or the
/// three above justifies a path that cannot fail. A line opening with
/// `.` continues the chain of the lines above it, up to eight.
fn pvs012_no_result_unwrap(src: &Source) -> Vec<String> {
    let simulators = [
        "core",
        "memsim",
        "netsim",
        "vectorsim",
        "mpisim",
        "obs",
        "fault",
    ];
    if !simulators.contains(&src.crate_name.as_str()) {
        return Vec::new();
    }
    let lines = &src.lines;
    let mut out = Vec::new();
    for idx in 0..src.test_from {
        let code = &lines[idx].code;
        if !code.contains(".unwrap()") && !code.contains(".expect(") {
            continue;
        }
        let mut start = idx;
        if code.trim_start().starts_with('.') {
            while start > 0 && idx - start < 8 {
                start -= 1;
                let prev = lines[start].code.trim();
                if prev.ends_with(';') || prev.ends_with('}') {
                    break;
                }
            }
        }
        let Some(call) = lines[start..=idx]
            .iter()
            .find_map(|l| RESULT_CALLS.iter().find(|m| l.code.contains(**m)))
        else {
            continue;
        };
        if !lines[idx.saturating_sub(3)..=idx]
            .iter()
            .any(|l| l.comment.contains("INFALLIBLE:"))
        {
            let call = call.trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_');
            out.push(src.at(idx, format!("`unwrap`/`expect` on the Result of `{call}` in simulator library code; handle it or justify with `// INFALLIBLE:`")));
        }
    }
    out
}

/// PVS015: the schema identifiers of `pvs_core::schema` are spelled as
/// literals only there. Anywhere else a writer and its readers could
/// drift apart one version bump at a time. Test tails may pin the bytes.
fn pvs015_schema_ids_from_the_registry(src: &Source) -> Vec<String> {
    if src.path == "crates/core/src/schema.rs" {
        return Vec::new();
    }
    let mut out = Vec::new();
    for idx in 0..src.test_from {
        let code = &src.lines[idx].code;
        for id in pvs::core::schema::ALL {
            // The code channel keeps a literal's quotes: a `"` there at the
            // match proves it opens a real string, not prose.
            for (col, _) in src.raw(idx).match_indices(&format!("\"{id}\"")) {
                if code.as_bytes().get(col) == Some(&b'"') {
                    out.push(src.at(idx, format!("schema id `{id}` spelled as a literal; use the `pvs_core::schema` const")));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------- lock order

/// The `fn` declared on a line, if any (a declaration, not a call).
fn fn_decl_name(code: &str) -> Option<String> {
    let bytes = code.as_bytes();
    let (at, _) = code.match_indices("fn ").find(|&(at, _)| {
        at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_')
    })?;
    let name = leading_ident(code[at + 3..].trim_start());
    (!name.is_empty()).then(|| name.to_string())
}

/// Per line before the test tail: the innermost `fn` whose body holds it.
fn enclosing_fns(src: &Source) -> Vec<Option<String>> {
    let mut out = vec![None; src.lines.len()];
    let mut depth = 0i64;
    let mut open: Vec<(String, i64)> = Vec::new();
    let mut pending: Option<String> = None;
    for (slot, line) in out.iter_mut().zip(&src.lines).take(src.test_from) {
        let code = &line.code;
        let entry = depth;
        depth += braces(code);
        if let Some(name) = fn_decl_name(code) {
            pending = Some(name);
        }
        open.retain(|(_, d)| depth >= *d);
        *slot = open.last().map(|(f, _)| f.clone());
        if let Some(f) = pending.take() {
            if depth > entry {
                *slot = Some(f.clone());
                open.push((f, depth));
            } else if !code.trim_end().ends_with(';') {
                pending = Some(f); // the body opens on a later line
            }
        }
    }
    out
}

/// A declared `Mutex`.
struct LockDecl {
    /// `<crate>.<field or binding>`.
    id: String,
    name: String,
    /// `path:line` of the declaration.
    loc: String,
    /// Its `// LOCK ORDER: <tier>`.
    tier: Option<u32>,
}

/// `name: Mutex<..>`, `name: Arc<Mutex<..>>`, `name: Vec<Mutex<..>>` (a
/// reference is not a declaration).
fn mutex_field_name(code: &str) -> Option<String> {
    let pos = code.find("Mutex<")?;
    if code[..pos].contains('&') {
        return None;
    }
    let colon = code[..pos].rfind(':')?;
    let name = trailing_ident(code[..colon].trim_end());
    (!name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit())).then(|| name.to_string())
}

/// `let name = ..Mutex::new(..)..` or `let name: Mutex<..> = ..`.
fn mutex_let_name(code: &str) -> Option<String> {
    let owned_type = code
        .find("Mutex<")
        .is_some_and(|p| !code[..p].contains('&'));
    if !has_word(code, "let") || !code.contains("Mutex::new(") && !owned_type {
        return None;
    }
    let rest = code[code.find("let ")? + 4..].trim_start();
    let name = leading_ident(rest.strip_prefix("mut ").unwrap_or(rest));
    (!name.is_empty()).then(|| name.to_string())
}

/// The `// LOCK ORDER: <tier>` on a declaration's line or the comment
/// lines just above it, up to three; a code line ends the walk, so two
/// adjacent declarations cannot share one annotation.
fn lock_tier(src: &Source, idx: usize) -> Option<u32> {
    for j in (idx.saturating_sub(3)..=idx).rev() {
        let line = &src.lines[j];
        if let Some(rest) = line.comment.split("LOCK ORDER:").nth(1) {
            let digits: String = rest
                .trim_start()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            return digits.parse().ok();
        }
        if j < idx && !line.code.trim().is_empty() {
            return None;
        }
    }
    None
}

fn lock_decls(src: &Source) -> Vec<LockDecl> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    // The depths at which open struct bodies hold their fields.
    let mut structs: Vec<i64> = Vec::new();
    for idx in 0..src.test_from {
        let code = &src.lines[idx].code;
        let entry = depth;
        depth += braces(code);
        structs.retain(|&d| depth >= d);
        let field = structs.last() == Some(&entry) || has_word(code, "struct");
        if has_word(code, "struct") && depth > entry {
            structs.push(depth);
        }
        let name = if field {
            mutex_field_name(code)
        } else {
            mutex_let_name(code)
        };
        if let Some(name) = name {
            out.push(LockDecl {
                id: format!("{}.{name}", src.crate_name),
                name,
                loc: src.loc(idx),
                tier: lock_tier(src, idx),
            });
        }
    }
    out
}

/// Index of the `)` matching the `(` at `open`, on the same line.
fn matching_paren(code: &str, open: usize) -> Option<usize> {
    let mut depth = 0;
    for (i, c) in code.char_indices().skip_while(|&(i, _)| i < open) {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// A `let` binds the guard itself only when the acquisition follows `=`
/// directly: `let v = *s.a.lock()…` binds a copy, not the guard.
fn binds_receiver(code: &str, dot: usize) -> bool {
    let start = code[..dot]
        .trim_end_matches(|c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        .len();
    code[..start].trim_end().ends_with('=')
}

/// After the call returning a guard (its `)` at `close`), skip chained
/// `.expect(..)`/`.unwrap()`: the statement ends there for a guard
/// binding, and keeps projecting for a temporary.
fn guard_chain_ends(code: &str, close: usize) -> bool {
    let mut i = close + 1;
    loop {
        let rest = code[i.min(code.len())..].trim_start();
        if rest.is_empty() || rest.starts_with(';') {
            return true;
        }
        let Some(tail) = rest
            .strip_prefix(".expect(")
            .or_else(|| rest.strip_prefix(".unwrap("))
        else {
            return false;
        };
        match matching_paren(code, code.len() - tail.len() - 1) {
            Some(c) => i = c + 1,
            None => return true, // the chain spills onto the next line
        }
    }
}

/// The `.lock()` and `.lock_<name>(..)` acquisitions on a line, resolved
/// against the file's locks: `(lock id, held by a let guard, binding)`.
fn acquisitions(
    code: &str,
    resolve: &dyn Fn(&str) -> Option<String>,
) -> Vec<(String, bool, Option<String>)> {
    let is_let = code.trim_start().starts_with("let ");
    let binding = is_let.then(|| {
        let rest = code.trim_start()[4..].trim_start();
        leading_ident(rest.strip_prefix("mut ").unwrap_or(rest)).to_string()
    });
    let mut out = Vec::new();
    for (at, _) in code.match_indices(".lock()") {
        if let Some(lock) = resolve(trailing_ident(&code[..at])) {
            let held = is_let && binds_receiver(code, at) && guard_chain_ends(code, at + 6);
            out.push((lock, held, binding.clone()));
        }
    }
    for (at, _) in code.match_indices(".lock_") {
        let name = leading_ident(&code[at + 6..]);
        let open = at + 6 + name.len();
        if name.is_empty() || code.as_bytes().get(open) != Some(&b'(') {
            continue;
        }
        let (Some(lock), Some(close)) = (resolve(name), matching_paren(code, open)) else {
            continue;
        };
        let held = is_let && binds_receiver(code, at) && guard_chain_ends(code, close);
        out.push((lock, held, binding.clone()));
    }
    out
}

/// The identifiers called on a line (`ident(`), keywords and the name of
/// a `fn` declaration excluded.
fn call_idents(code: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for (i, _) in code.match_indices('(') {
        let ident = trailing_ident(&code[..i]);
        let keyword = matches!(
            ident,
            "if" | "while" | "for" | "match" | "loop" | "return" | "fn"
        );
        if ident.is_empty()
            || ident.starts_with(|c: char| c.is_ascii_digit())
            || keyword
            || code[..i - ident.len()].trim_end().ends_with("fn")
            || out.iter().any(|o| o == ident)
        {
            continue;
        }
        out.push(ident.to_string());
    }
    out
}

/// Blocking operations a held guard must not cross. Condvar waits are
/// absent: waiting releases the guard.
const HAZARDS: [(&str, &str); 18] = [
    (".spawn(", "pool/thread dispatch"),
    ("thread::spawn(", "thread spawn"),
    ("catch_unwind", "catch_unwind"),
    (".send(", "channel send"),
    (".recv()", "channel receive"),
    (".try_recv()", "channel receive"),
    (".recv_timeout(", "channel receive"),
    (".write_all(", "stream I/O"),
    (".read_line(", "stream I/O"),
    (".fill_buf(", "stream I/O"),
    (".read_to_string(", "stream I/O"),
    (".read_to_end(", "stream I/O"),
    (".flush()", "stream I/O"),
    ("std::fs::", "filesystem I/O"),
    ("File::open(", "filesystem I/O"),
    ("File::create(", "filesystem I/O"),
    ("TcpStream::connect(", "TCP connect"),
    ("write_atomic(", "filesystem I/O"),
];

/// Function names call resolution skips: std container and sync methods
/// whose workspace homonyms would fabricate edges (`map.insert(..)` under
/// a guard is not `ShardedCache::insert`).
const CALL_STOPLIST: [&str; 36] = [
    "insert",
    "get",
    "get_mut",
    "remove",
    "len",
    "is_empty",
    "push",
    "push_back",
    "pop",
    "pop_front",
    "clone",
    "iter",
    "into_iter",
    "next",
    "wait",
    "send",
    "recv",
    "join",
    "lock",
    "drop",
    "take",
    "clear",
    "extend",
    "entry",
    "retain",
    "contains",
    "contains_key",
    "map",
    "filter",
    "collect",
    "new",
    "default",
    "from",
    "min",
    "max",
    "fmt",
];

/// One library file's lock use, per line before its test tail.
struct LockUse<'a> {
    src: &'a Source,
    /// The locks of the `let` guards live entering the line.
    held: Vec<Vec<String>>,
    /// The locks acquired on the line.
    acquired: Vec<Vec<String>>,
    calls: Vec<Vec<String>>,
    fns: Vec<Option<String>>,
}

/// Guard liveness through one file: a `let` guard lives to the end of
/// its brace scope or an explicit `drop(binding)`.
fn lock_use<'a>(src: &'a Source, decls: &[LockDecl]) -> LockUse<'a> {
    let n = src.test_from;
    let resolve = |ident: &str| {
        decls
            .iter()
            .find(|d| d.name == ident || d.name == format!("{ident}s"))
            .map(|d| d.id.clone())
    };
    let mut u = LockUse {
        src,
        held: vec![Vec::new(); n],
        acquired: vec![Vec::new(); n],
        calls: vec![Vec::new(); n],
        fns: enclosing_fns(src),
    };
    let mut depth = 0i64;
    // (lock, binding, the depth its scope opened at)
    let mut guards: Vec<(String, Option<String>, i64)> = Vec::new();
    for idx in 0..n {
        let code = &src.lines[idx].code;
        let entry = depth;
        depth += braces(code);
        let mut held: Vec<String> = guards.iter().map(|g| g.0.clone()).collect();
        held.dedup();
        u.held[idx] = held;
        for (lock, bound, binding) in acquisitions(code, &resolve) {
            if bound {
                guards.push((lock.clone(), binding, entry));
            }
            u.acquired[idx].push(lock);
        }
        for (at, _) in code.match_indices("drop(") {
            let arg = leading_ident(&code[at + 5..]);
            guards.retain(|g| g.1.as_deref() != Some(arg));
        }
        u.calls[idx] = call_idents(code);
        guards.retain(|g| depth >= g.2);
    }
    u
}

/// The workspace's locks joined across files.
struct LockGraph {
    decls: Vec<LockDecl>,
    /// `(held, acquired)` → `path:line` of its first site.
    edges: BTreeMap<(String, String), String>,
    /// Findings: a guard held across a blocking operation.
    hazards: Vec<String>,
}

fn lock_graph(files: &[Source]) -> LockGraph {
    let mut decls = Vec::new();
    let mut uses = Vec::new();
    for src in files.iter().filter(|f| !f.test_tree) {
        let file_decls = lock_decls(src);
        uses.push(lock_use(src, &file_decls));
        decls.extend(file_decls);
    }

    // fn name → the locks it may acquire, closed over the calls it makes.
    let mut may: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for u in &uses {
        for (idx, f) in u.fns.iter().enumerate().take(u.held.len()) {
            let Some(f) = f.as_ref().filter(|f| !CALL_STOPLIST.contains(&f.as_str())) else {
                continue;
            };
            may.entry(f.clone())
                .or_default()
                .extend(u.acquired[idx].iter().cloned());
            let callees = u.calls[idx]
                .iter()
                .filter(|c| *c != f && !CALL_STOPLIST.contains(&c.as_str()));
            calls.entry(f.clone()).or_default().extend(callees.cloned());
        }
    }
    loop {
        let mut changed = false;
        for (caller, callees) in &calls {
            let gained: Vec<String> = callees
                .iter()
                .filter_map(|c| may.get(c))
                .flatten()
                .cloned()
                .collect();
            let entry = may.entry(caller.clone()).or_default();
            let before = entry.len();
            entry.extend(gained);
            changed |= entry.len() > before;
        }
        if !changed {
            break;
        }
    }

    let mut edges = BTreeMap::new();
    let mut hazards = Vec::new();
    for u in &uses {
        for idx in 0..u.held.len() {
            let held = &u.held[idx];
            let mut reached: Vec<&String> = u.acquired[idx].iter().collect();
            if !held.is_empty() {
                reached.extend(u.calls[idx].iter().filter_map(|c| may.get(c)).flatten());
            }
            for h in held {
                for &lock in &reached {
                    edges
                        .entry((h.clone(), lock.clone()))
                        .or_insert_with(|| u.src.loc(idx));
                }
            }
            let mut holders = held.clone();
            for lock in &u.acquired[idx] {
                if !holders.contains(lock) {
                    holders.push(lock.clone());
                }
            }
            if holders.is_empty() {
                continue;
            }
            let code = &u.src.lines[idx].code;
            for (marker, what) in HAZARDS {
                let word = marker
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_');
                if if word {
                    has_word(code, marker)
                } else {
                    code.contains(marker)
                } {
                    let message = format!(
                        "guard on `{}` held across {what}; release the lock first",
                        holders.join("`, `")
                    );
                    hazards.push(u.src.at(idx, message));
                }
            }
        }
    }
    LockGraph {
        decls,
        edges,
        hazards,
    }
}

/// Elementary cycles of the edge set, each rotated to start at its
/// smallest lock so it is reported once.
fn cycles(edges: &BTreeMap<(String, String), String>) -> BTreeSet<Vec<String>> {
    fn walk<'a>(
        adj: &BTreeMap<&'a str, Vec<&'a str>>,
        path: &mut Vec<&'a str>,
        out: &mut BTreeSet<Vec<String>>,
    ) {
        let Some(nexts) = adj.get(path[path.len() - 1]) else {
            return;
        };
        for &next in nexts {
            if let Some(pos) = path.iter().position(|&n| n == next) {
                let cycle = &path[pos..];
                let min = (0..cycle.len()).min_by_key(|&i| cycle[i]).unwrap_or(0);
                out.insert(
                    (0..cycle.len())
                        .map(|i| cycle[(min + i) % cycle.len()].to_string())
                        .collect(),
                );
            } else if path.len() < 16 {
                path.push(next);
                walk(adj, path, out);
                path.pop();
            }
        }
    }
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (held, acquired) in edges.keys().filter(|(h, a)| h != a) {
        adj.entry(held).or_default().push(acquired);
    }
    let mut out = BTreeSet::new();
    for &start in adj.keys() {
        walk(&adj, &mut vec![start], &mut out);
    }
    out
}

/// PVS013: one lock order. Every `Mutex` field or binding declares its
/// tier in a `// LOCK ORDER: <tier>` comment. While a guard is held only
/// strictly higher tiers are acquired, directly or through any function
/// called under it (resolved by name, transitively, common std method
/// names excluded). The acquisition graph has no cycle, no lock is
/// re-acquired while held, and no guard is held across a blocking
/// operation.
fn pvs013_one_lock_order(files: &[Source]) -> Vec<String> {
    let graph = lock_graph(files);
    let mut out: Vec<String> = graph
        .decls
        .iter()
        .filter(|d| d.tier.is_none())
        .map(|d| {
            format!(
                "{}: Mutex `{}` has no `// LOCK ORDER: <tier>`",
                d.loc, d.name
            )
        })
        .collect();
    let tiers: BTreeMap<&str, u32> = graph
        .decls
        .iter()
        .filter_map(|d| Some((d.id.as_str(), d.tier?)))
        .collect();
    for ((held, acquired), loc) in &graph.edges {
        if held == acquired {
            out.push(format!(
                "{loc}: `{held}` re-acquired while held; std::sync::Mutex is not reentrant"
            ));
        } else if let (Some(h), Some(a)) = (tiers.get(held.as_str()), tiers.get(acquired.as_str()))
        {
            if a <= h {
                out.push(format!("{loc}: lock order inversion: `{acquired}` (tier {a}) acquired while holding `{held}` (tier {h})"));
            }
        }
    }
    for cycle in cycles(&graph.edges) {
        let loc = &graph.edges[&(cycle[0].clone(), cycle[1].clone())];
        out.push(format!(
            "{loc}: acquisition-order cycle: {} -> {}",
            cycle.join(" -> "),
            cycle[0]
        ));
    }
    out.extend(graph.hazards);
    out
}

// ------------------------------------------------------- counter names

/// Dotted counter-name grammar: two or more `[a-z0-9_]+` segments, or a
/// lone `*` where `wildcard`.
fn is_counter_name(name: &str, wildcard: bool) -> bool {
    let segment = |s: &str| {
        wildcard && s == "*"
            || !s.is_empty()
                && s.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    };
    name.split('.').count() >= 2 && name.split('.').all(segment)
}

/// Segment-wise glob: `*` matches one or more segments; a name without
/// wildcards matches only itself.
fn glob_match(pattern: &str, name: &str) -> bool {
    fn rec(pat: &[&str], name: &[&str]) -> bool {
        match (pat.first(), name.first()) {
            (None, None) => true,
            (Some(&"*"), Some(_)) => rec(pat, &name[1..]) || rec(&pat[1..], &name[1..]),
            (Some(p), Some(n)) if p == n => rec(&pat[1..], &name[1..]),
            _ => false,
        }
    }
    let pat: Vec<&str> = pattern.split('.').collect();
    let segs: Vec<&str> = name.split('.').collect();
    rec(&pat, &segs)
}

/// The registry a documentation text declares: every backticked dotted
/// name, `<placeholder>` segments read as `*`.
fn documented_names(doc: &str) -> BTreeSet<String> {
    doc.split('`')
        .skip(1)
        .step_by(2)
        .map(|chunk| {
            let segs = chunk.split('.').map(|s| {
                if s.len() > 2 && s.starts_with('<') && s.ends_with('>') {
                    "*"
                } else {
                    s
                }
            });
            segs.collect::<Vec<_>>().join(".")
        })
        .filter(|n| is_counter_name(n, true))
        .collect()
}

/// The literal opening at the `"` at `col` of a raw line.
fn read_literal(raw: &str, col: usize) -> Option<String> {
    let rest = raw.get(col + 1..)?;
    Some(rest[..rest.find('"')?].to_string())
}

/// The string literals opening right after each `marker` (spaces
/// allowed), read back from the raw line.
fn literals_after(code: &str, raw: &str, marker: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (pos, _) in code.match_indices(marker) {
        let col = code.len() - code[pos + marker.len()..].trim_start().len();
        if code[col..].starts_with('"') {
            out.extend(read_literal(raw, col));
        }
    }
    out
}

/// A `format!` template as a name pattern: every `{..}` hole a `*`.
fn template_to_pattern(template: &str) -> Option<String> {
    let mut out = String::new();
    let mut rest = template;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        out.push('*');
        rest = &rest[open + rest[open..].find('}')? + 1..];
    }
    out.push_str(rest);
    is_counter_name(&out, true).then_some(out)
}

/// The counter names a file writes to a Recorder and reads back, each
/// with its 0-based line.
#[derive(Default)]
struct Names {
    /// `(name, line, in test code)`; `format!` names carry `*` segments.
    written: Vec<(String, usize, bool)>,
    read: Vec<(String, usize)>,
    /// Literals at a write site that are not dotted names.
    malformed: Vec<(String, usize)>,
}

/// Write sites: single-name calls, their `format!` templates, and the
/// tuple batches (`add_many(&[(..)])`, `record_many`, `entries.push((..))`
/// with its multi-line form, and `record_to`'s tuple arrays). Read sites:
/// `.counter(`, `.gauge(`, `.hist(`.
fn counter_names(src: &Source) -> Names {
    let fns = enclosing_fns(src);
    let mut names = Names::default();
    let mut in_batch = false;
    for (idx, line) in src.lines.iter().enumerate() {
        let (code, raw) = (&line.code, src.raw(idx));
        let test = idx >= src.test_from;
        for marker in [".counter(", ".gauge(", ".hist("] {
            let read = literals_after(code, raw, marker)
                .into_iter()
                .filter(|n| is_counter_name(n, false));
            names.read.extend(read.map(|n| (n, idx)));
        }
        for marker in [
            ".add(",
            ".gauge_set(",
            ".gauge_max(",
            ".record(",
            ".record_n(",
        ] {
            for name in literals_after(code, raw, marker) {
                if is_counter_name(&name, false) {
                    names.written.push((name, idx, test));
                } else {
                    names.malformed.push((name, idx));
                }
            }
            let templates = literals_after(code, raw, &format!("{marker}&format!("));
            names.written.extend(
                templates
                    .iter()
                    .filter_map(|t| template_to_pattern(t))
                    .map(|p| (p, idx, test)),
            );
        }
        // Every literal-headed tuple on a batch line names a counter; the
        // looser contexts only contribute literals that already are names.
        let batch_line = ["add_many(&[(", "record_many(&[(", "entries.push(("]
            .iter()
            .any(|m| code.contains(m));
        let continues = idx > 0 && src.lines[idx - 1].code.trim_end().ends_with("push((");
        if code.contains("add_many(&[") || code.contains("record_many(&[") {
            in_batch = !code.contains("])");
        }
        let tuples = batch_line
            || code.contains(".push((\"")
            || continues
            || fns[idx].as_deref() == Some("record_to")
            || in_batch;
        if in_batch && code.contains("])") {
            in_batch = false;
        }
        if tuples {
            let mut found = literals_after(code, raw, "(");
            if code.trim_start().starts_with('"') {
                found.extend(code.find('"').and_then(|col| read_literal(raw, col)));
            }
            for name in found {
                if is_counter_name(&name, false) {
                    names.written.push((name, idx, test));
                } else if batch_line {
                    names.malformed.push((name, idx));
                }
            }
        }
    }
    names
}

/// PVS014: the counter namespace is closed. Every name read back has a
/// writer somewhere in the workspace, or its reader sees a silent zero.
/// Every name library code writes has a row in the `readme` counter
/// table. Its PVS011 clause: a literal at a write site in library code is
/// two or more lowercase `[a-z0-9_]` segments joined by dots, since a
/// stray `QueueDepth` forks the namespace silently. `format!` names match
/// as `*` wildcards; `test.` names are scratch space.
fn pvs014_closed_counter_names(files: &[Source], readme: &str) -> Vec<String> {
    let names: Vec<(&Source, Names)> = files.iter().map(|f| (f, counter_names(f))).collect();
    let written: Vec<&str> = names
        .iter()
        .flat_map(|(_, n)| n.written.iter().map(|w| w.0.as_str()))
        .collect();
    let documented = documented_names(readme);
    let mut out = Vec::new();
    for (src, n) in &names {
        if !src.test_tree {
            out.extend(n.malformed.iter().map(|(name, idx)| {
                src.at(
                    *idx,
                    format!("counter name {name:?} is not lowercase `snake.dotted` (PVS011)"),
                )
            }));
        }
        for (name, idx) in &n.read {
            if !name.starts_with("test.") && !written.iter().any(|w| glob_match(w, name)) {
                out.push(src.at(*idx, format!("counter `{name}` is read but nothing writes it; its reader sees a silent zero")));
            }
        }
    }
    let mut reported = BTreeSet::new();
    for (src, n) in &names {
        for (name, idx, test) in &n.written {
            if *test || name.starts_with("test.") || documented.iter().any(|d| glob_match(d, name))
            {
                continue;
            }
            if reported.insert(name) {
                out.push(src.at(
                    *idx,
                    format!("counter `{name}` is written but has no row in README's counter table"),
                ));
            }
        }
    }
    out
}

// --------------------------------------------------------------- tests

fn assert_clean(rule: &str, findings: Vec<String>) {
    assert!(
        findings.is_empty(),
        "{rule} findings:\n{}",
        findings.join("\n")
    );
}

/// A library source at `path` (its crate read off the path).
fn lib(path: &str, text: &str) -> Source {
    Source::new(path, text, false)
}

/// The 1-based line numbers of `path:line: message` findings, sorted.
fn lines(findings: &[String]) -> Vec<usize> {
    let mut out: Vec<usize> = findings
        .iter()
        .map(|f| {
            f.split(':')
                .nth(1)
                .and_then(|n| n.parse().ok())
                .expect("path:line: message")
        })
        .collect();
    out.sort();
    out
}

#[test]
fn the_walk_covers_the_workspace() {
    let tree = tree();
    let sources: Vec<&str> = tree.sources().map(|s| s.path.as_str()).collect();
    assert!(
        sources.len() >= 100,
        "walker regressed: {} source files",
        sources.len()
    );
    for needle in [
        "crates/core/src/lib.rs",
        "crates/vectorsim/src/stripmine.rs",
        "src/lib.rs",
    ] {
        assert!(sources.contains(&needle), "walker missed {needle}");
    }
    assert!(tree
        .files
        .iter()
        .any(|f| f.test_tree && f.path == "tests/source_rules.rs"));
    assert!(
        tree.manifests.len() >= 15,
        "manifest walker regressed: {}",
        tree.manifests.len()
    );
    assert!(tree
        .manifests
        .iter()
        .any(|(p, _)| p == "benchmark/Cargo.toml"));
    assert_eq!(tree.lockfiles.len(), 2);
    let crate_of = |p| lib(p, "").crate_name;
    assert_eq!(crate_of("crates/bench/src/harness.rs"), "bench");
    assert_eq!(crate_of("src/lib.rs"), "pvs");
}

#[test]
fn the_scanner_blanks_comments_and_literals() {
    let code = |src: &str| scan(src).into_iter().map(|l| l.code).collect::<Vec<_>>();
    let lines = scan("let x = 1; // Instant::now()\nlet y = 2;\n");
    assert_eq!(
        (lines[0].code.trim_end(), lines[0].comment.as_str()),
        ("let x = 1;", " Instant::now()")
    );
    assert_eq!(lines[1].code, "let y = 2;");
    // Literal contents blank; quotes and columns stay.
    assert_eq!(
        code("let s = \"a\\\"Instant\"; f();")[0],
        "let s = \"          \"; f();"
    );
    assert_eq!(
        code("r#\"unsafe \"# ; b\"x\"; g(r\"y\");")[0],
        "\"\"\"       \"\" ; b\" \"; g(\"\" \");"
    );
    let src = "a(); /* one /* two\nstill /* three */ two */ one */ b();\n//! c();\n/*! d */ e();\n/* f // g\n*/ h();";
    let code = code(src);
    assert_eq!(code[0].trim_end(), "a();");
    assert_eq!(code[1].trim(), "b();");
    assert_eq!(code[2].trim(), "");
    assert_eq!(code[3].trim(), "e();");
    assert_eq!((code[4].trim(), code[5].trim()), ("", "h();"));
    // Lifetimes are code; char literals, escapes included, are blanked.
    let lines = scan("fn f<'a>(x: &'a str) {}\nlet c = 'x'; let e = '\\n'; g();");
    assert_eq!(lines[0].code, "fn f<'a>(x: &'a str) {}");
    assert_eq!(lines[1].code, "let c = ' '; let e = '  '; g();");
    assert!(has_word("x = Instant::now()", "Instant") && has_word("unsafe {", "unsafe"));
    assert!(!has_word("MyInstantThing", "Instant") && !has_word("Instantaneous", "Instant"));
}

#[test]
fn pvs001_finds_nothing_on_the_tree() {
    assert_clean(
        "PVS001",
        tree()
            .manifests
            .iter()
            .flat_map(|(p, t)| pvs001_path_only_dependencies(p, t))
            .collect(),
    );
}

#[test]
fn pvs001_inline_pairs() {
    let list = "[package]\nname = \"pvs-evil\"\n\n[dependencies]\nserde = \"1.0\"\n\
                pvs-core = { version = \"0.1\" }\n\n[dev-dependencies]\n\
                rand = { version = \"0.8\", features = [\"std\"] }\n\n\
                [target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n\
                [target.'cfg(unix)'.build-dependencies]\ncc = \"1\"\n\
                [workspace.dependencies]\nregex = \"1\"\n";
    let found = pvs001_path_only_dependencies("Cargo.toml", list);
    assert_eq!(lines(&found), [5, 6, 9, 12, 14, 16]);
    assert!(
        found[0].starts_with("Cargo.toml:5: external dependency `serde`"),
        "{found:?}"
    );
    assert!(
        found[1].contains("`pvs-core` pinned by version"),
        "{found:?}"
    );
    // The table form names its crate in the header.
    let tables = "[dependencies.serde]\nversion = \"1\"\n[dev-dependencies.rand]\nversion = \"0.8\"\n\
                  [build-dependencies.cc]\nversion = \"1\"\n[target.'cfg(unix)'.dependencies.libc]\n\
                  version = \"0.2\"\n[workspace.dependencies.\"regex\"]\nversion = \"1\"\n\
                  [dependencies.pvs-core]\nversion = \"0.1\"\n";
    let found = pvs001_path_only_dependencies("Cargo.toml", tables);
    assert_eq!(lines(&found), [1, 3, 5, 7, 9, 12]);
    for name in ["serde", "rand", "cc", "libc", "regex", "pvs-core"] {
        assert!(
            found.iter().any(|f| f.contains(&format!("`{name}`"))),
            "{name}: {found:?}"
        );
    }
    let clean = "[package]\nname = \"pvs-good\"\nversion = \"0.1.0\"\n[workspace]\nmembers = [\"crates/*\"]\n\
                 [dependencies]\npvs-core.workspace = true\npvs-report = { path = \"../report\" }\n\
                 # rand = \"0.8\"\n[dependencies.pvs-fft]\npath = \"../fft\"\n\
                 [features]\nextra = []\n[[bin]]\nname = \"x\"\n";
    assert_clean(
        "PVS001 on a clean manifest",
        pvs001_path_only_dependencies("Cargo.toml", clean),
    );
}

#[test]
fn pvs002_finds_nothing_on_the_tree() {
    let manifests: BTreeMap<String, BTreeSet<String>> =
        tree().manifests.iter().filter_map(|(_, t)| manifest_edges(t)).collect();
    assert!(manifests["pvs-serve"].contains("pvs-core"), "{manifests:?}");
    assert_clean(
        "PVS002",
        tree()
            .lockfiles
            .iter()
            .flat_map(|(p, t)| {
                let mut found = pvs002_path_only_lockfile(p, t);
                found.extend(pvs002_lockfile_edges(p, t, &manifests));
                found
            })
            .collect(),
    );
}

#[test]
fn pvs002_inline_pairs() {
    let lock =
        "version = 3\n\n[[package]]\nname = \"pvs-core\"\nversion = \"0.1.0\"\n\n[[package]]\n\
                name = \"rand\"\nversion = \"0.8.5\"\n\
                source = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
    let found = pvs002_path_only_lockfile("Cargo.lock", lock);
    assert_eq!(lines(&found), [8, 10]);
    assert!(
        found[0].contains("non-workspace package `rand`")
            && found[1].contains("`rand` resolves from an external source")
    );
    let clean = "version = 3\n\n[[package]]\nname = \"pvs\"\nversion = \"0.1.0\"\n\n[[package]]\nname = \"pvs-core\"\n";
    assert_clean(
        "PVS002 on a clean lockfile",
        pvs002_path_only_lockfile("Cargo.lock", clean),
    );

    // Locked edges follow the manifests: every dependency kind counts,
    // `[workspace.dependencies]` declares no edge.
    let manifests: BTreeMap<String, BTreeSet<String>> = [
        "[workspace.dependencies]\npvs-fault = { path = \"crates/fault\" }\n\
         [package]\nname = \"pvs-serve\"\n[dependencies]\npvs-core.workspace = true\n\
         [dev-dependencies.pvs-obs]\npath = \"../obs\"\n",
        "[package]\nname = \"pvs-core\"\n",
    ]
    .into_iter()
    .filter_map(manifest_edges)
    .collect();
    let serve = |deps: &str| {
        format!("version = 4\n\n[[package]]\nname = \"pvs-core\"\nversion = \"0.1.0\"\n\n\
                 [[package]]\nname = \"pvs-serve\"\nversion = \"0.1.0\"\ndependencies = [\n{deps}]\n")
    };
    let found =
        pvs002_lockfile_edges("benchmark/Cargo.lock", &serve(" \"pvs-core\",\n \"pvs-fault\",\n"), &manifests);
    assert_eq!(lines(&found), [8, 8]);
    assert!(
        found[0].starts_with("benchmark/Cargo.lock:8: package `pvs-serve` locks `pvs-fault`")
            && found[1].contains("does not lock `pvs-obs`"),
        "{found:?}"
    );
    assert_clean(
        "PVS002 on a lockfile that follows its manifests",
        pvs002_lockfile_edges("Cargo.lock", &serve(" \"pvs-core\",\n \"pvs-obs\",\n"), &manifests),
    );
}

#[test]
fn pvs003_finds_nothing_on_the_tree() {
    assert_clean(
        "PVS003",
        tree().sources().flat_map(pvs003_no_wall_clock).collect(),
    );
}

#[test]
fn pvs003_inline_pairs() {
    let clocks = "use std::time::Instant;\nlet t = Instant::now();\n\
                  pub fn stamp() -> std::time::SystemTime { std::time::SystemTime::now() }\n\
                  use std::time::*;\nlet since = UNIX_EPOCH.elapsed();\n\
                  let also = std::time::UNIX_EPOCH.elapsed();\n";
    for path in [
        "crates/core/src/lib.rs",
        "crates/obs/src/registry.rs",
        "crates/serve/src/cache.rs",
        "src/lib.rs",
    ] {
        let found = pvs003_no_wall_clock(&lib(path, clocks));
        assert_eq!(lines(&found), [1, 2, 3, 5, 6], "{path}");
        assert!(
            found[0].starts_with(&format!("{path}:1: `Instant`")),
            "{found:?}"
        );
    }
    for exempt in ["crates/bench/src/harness.rs", "crates/serve/src/server.rs"] {
        assert_clean(exempt, pvs003_no_wall_clock(&lib(exempt, clocks)));
    }
    // Prose, literals and `Duration` are not clock reads; a glob import
    // reads nothing until a line names a clock.
    let clean = "// Instant::now() would be wrong here\nlet s = \"SystemTime\";\nlet r = r#\"UNIX_EPOCH\"#;\n\
                 /* Instant\n SystemTime */\nstd::thread::sleep(std::time::Duration::from_millis(2));\n\
                 use std::time::*;\nstruct MyInstant;\n";
    assert_clean(
        "PVS003 on clean core",
        pvs003_no_wall_clock(&lib("crates/core/src/lib.rs", clean)),
    );
}

#[test]
fn pvs005_finds_nothing_on_the_tree() {
    assert_clean(
        "PVS005",
        tree()
            .sources()
            .flat_map(pvs005_no_hash_containers)
            .collect(),
    );
}

#[test]
fn pvs005_inline_pairs() {
    let hashed =
        "use std::collections::HashMap;\nstruct S { m: std::collections::HashMap<u32, f64> }\n\
                  fn total(m: &HashMap<u32, f64>) -> f64 { m.values().sum() }\n\
                  let set: std::collections::HashSet<_> = xs.iter().collect();\n";
    let found = pvs005_no_hash_containers(&lib("crates/report/src/a.rs", hashed));
    assert_eq!(lines(&found), [1, 2, 3, 4]);
    assert!(found[3].contains("`HashSet`"), "{found:?}");
    let clean = "let m = std::collections::BTreeMap::new();\nfor (k, v) in m.iter() {}\n\
                 // a HashMap would be wrong here\nlet s = \"HashSet\";\nstruct MyHashMap;\n";
    assert_clean(
        "PVS005 on clean source",
        pvs005_no_hash_containers(&lib("crates/report/src/a.rs", clean)),
    );
}

#[test]
fn pvs007_finds_nothing_on_the_tree() {
    assert_clean(
        "PVS007",
        tree().sources().flat_map(pvs007_no_blanket_allow).collect(),
    );
}

#[test]
fn pvs007_inline_pairs() {
    let blanket =
        "#![allow(dead_code)]\n#![allow(unused, clippy::all)]\n\n#[expect(unused_variables)]\n\
                   pub fn f(x: u32) {}\n\n#![cfg_attr(test, allow(warnings))]\n\n\
                   #[cfg_attr(feature = \"x\", allow(dead_code, unused))]\npub fn g() {}\n";
    let found = pvs007_no_blanket_allow(&lib("crates/gtc/src/a.rs", blanket));
    assert_eq!(lines(&found), [1, 2, 2, 4, 7, 9, 9]);
    assert!(
        found[1].contains("`unused`") && found[2].contains("`clippy::all`"),
        "{found:?}"
    );
    let clean = "#![allow(clippy::needless_range_loop)]\n#[allow(clippy::too_many_arguments)]\n\
                 pub fn g(opt: Option<u32>) -> u32 { opt.expect(\"present\") }\n\
                 #[test] fn t() { r.expect(warnings); disallow(unused); }\n// #[allow(warnings)]\n";
    assert_clean(
        "PVS007 on clean source",
        pvs007_no_blanket_allow(&lib("crates/gtc/src/a.rs", clean)),
    );
}

#[test]
fn pvs012_finds_nothing_on_the_tree() {
    assert_clean(
        "PVS012",
        tree().sources().flat_map(pvs012_no_result_unwrap).collect(),
    );
}

#[test]
fn pvs012_inline_pairs() {
    let unwraps = "let q = shared.lock().unwrap();\ntx.send(1.0).expect(\"receiver alive\");\n\
                   self.senders[dst]\n    .send(pkt)\n    .expect(\"receiver alive\");\n\
                   handle.join().unwrap()\nlet n: u32 = s.parse().unwrap();\n\
                   #[cfg(test)]\nmod tests { fn t() { tx.send(1).unwrap(); } }\n";
    for path in [
        "crates/core/src/pool.rs",
        "crates/mpisim/src/a.rs",
        "crates/obs/src/a.rs",
    ] {
        let found = pvs012_no_result_unwrap(&lib(path, unwraps));
        assert_eq!(lines(&found), [1, 2, 5, 6, 7], "{path}");
        assert!(
            found[0].contains("Result of `lock`") && found[2].contains("Result of `send`"),
            "{found:?}"
        );
    }
    for out_of_scope in [
        "crates/bench/src/a.rs",
        "crates/lbmhd/src/a.rs",
        "src/lib.rs",
    ] {
        assert_clean(
            out_of_scope,
            pvs012_no_result_unwrap(&lib(out_of_scope, unwraps)),
        );
    }
    let clean = "// INFALLIBLE: poisoning needs a panicked holder,\n// and holders never panic.\n\
                 let q = shared.lock().expect(\"pool lock\");\n\
                 let x = v.first().expect(\"nonempty\");\nlet y = m.get(&k).unwrap();\n\
                 let (xd, yd) = self.torus_dims.expect(\"torus dims\");\n\
                 match shared.lock() { Ok(q) => q.len(), Err(p) => p.into_inner().len() }\n\
                 tx.send(1.0).map_err(|e| e.to_string())?;\n";
    assert_clean(
        "PVS012 on clean core",
        pvs012_no_result_unwrap(&lib("crates/core/src/a.rs", clean)),
    );
}

#[test]
fn pvs013_finds_nothing_on_the_tree() {
    assert_clean("PVS013", pvs013_one_lock_order(&tree().files));
    // Serve's request path is the one place a lock nests under another:
    // `CellStore::get` reads the cache shards and the obs registry while
    // holding the flight map. A new edge is a reviewed change.
    let graph = lock_graph(&tree().files);
    let edges: Vec<(&str, &str)> = graph
        .edges
        .keys()
        .map(|(h, a)| (h.as_str(), a.as_str()))
        .collect();
    assert_eq!(
        edges,
        [
            ("serve.flights", "obs.inner"),
            ("serve.flights", "serve.shards")
        ]
    );
    assert!(graph.decls.len() >= 8 && graph.decls.iter().all(|d| d.tier.is_some()));
}

#[test]
fn pvs013_inline_pairs() {
    let breaches = "struct State {\n    // LOCK ORDER: 10\n    first: Mutex<u32>,\n    // LOCK ORDER: 20\n\
                    \x20   second: Mutex<u32>,\n    undeclared: Vec<Mutex<u32>>,\n}\n\
                    fn forward(s: &State) {\n    let first = s.first.lock().expect(\"first\");\n\
                    \x20   let second = s.second.lock().expect(\"second\");\n}\n\
                    fn backward(s: &State) {\n    let second = s.second.lock().expect(\"second\");\n\
                    \x20   let first = s.first.lock().expect(\"first\");\n}\n\
                    fn reentrant(s: &State) {\n    let once = s.first.lock().expect(\"first\");\n\
                    \x20   let twice = s.first.lock().expect(\"again\");\n}\n\
                    fn held_across_send(s: &State, tx: &Sender<u32>) {\n\
                    \x20   let first = s.first.lock().expect(\"first\");\n    tx.send(1).ok();\n}\n";
    let found = pvs013_one_lock_order(&[lib("crates/core/src/state.rs", breaches)]);
    assert_eq!(lines(&found), [6, 10, 14, 18, 22], "{found:#?}");
    for want in [
        "crates/core/src/state.rs:6: Mutex `undeclared` has no `// LOCK ORDER: <tier>`",
        "crates/core/src/state.rs:10: acquisition-order cycle: core.first -> core.second -> core.first",
        "crates/core/src/state.rs:14: lock order inversion: `core.first` (tier 10) acquired while holding `core.second` (tier 20)",
        "crates/core/src/state.rs:18: `core.first` re-acquired while held",
        "crates/core/src/state.rs:22: guard on `core.first` held across channel send",
    ] {
        assert!(found.iter().any(|f| f.starts_with(want)), "missing {want}: {found:#?}");
    }
    // An inversion through a call chain, across two files.
    let decl = "struct S {\n    // LOCK ORDER: 20\n    a: Mutex<u32>,\n    // LOCK ORDER: 10\n    b: Mutex<u32>,\n}\n\
                fn leaf(s: &S) {\n    let b = s.b.lock().unwrap();\n}\n\
                fn top(s: &S) {\n    let a = s.a.lock().unwrap();\n    mid(s);\n}\n";
    let caller = "fn mid(s: &S) {\n    leaf(s);\n}\n";
    let found = pvs013_one_lock_order(&[
        lib("crates/serve/src/a.rs", decl),
        lib("crates/serve/src/b.rs", caller),
    ]);
    assert_eq!(found.len(), 1, "{found:#?}");
    assert!(
        found[0].starts_with("crates/serve/src/a.rs:12: lock order inversion: `serve.b`"),
        "{found:#?}"
    );

    let clean = "struct State {\n    // LOCK ORDER: 10 — outermost\n    first: Mutex<u32>,\n\
                 \x20   // LOCK ORDER: 20\n    second: Mutex<u32>,\n}\n\
                 fn nested(s: &State) {\n    let first = s.first.lock().expect(\"first\");\n\
                 \x20   let second = s.second.lock().expect(\"second\");\n}\n\
                 fn released(s: &State) {\n    let second = s.second.lock().expect(\"second\");\n\
                 \x20   drop(second);\n    let first = s.first.lock().expect(\"first\");\n}\n\
                 fn scoped(s: &State) {\n    {\n        let second = s.second.lock().expect(\"second\");\n    }\n\
                 \x20   let first = s.first.lock().expect(\"first\");\n}\n\
                 fn temporary(s: &State) -> u32 {\n    let v = *s.second.lock().expect(\"second\");\n\
                 \x20   let w = s.first.lock().expect(\"first\");\n    *s.second.lock().expect(\"second\") + v\n}\n\
                 fn insert(s: &State) {\n    let first = s.first.lock().expect(\"first\");\n}\n\
                 fn caller(s: &State, map: &mut BTreeMap<u32, u32>) {\n\
                 \x20   let first = s.first.lock().expect(\"first\");\n    map.insert(1, 2);\n}\n\
                 fn notify(tx: &Sender<u32>) {\n    tx.send(1).ok();\n}\n\
                 fn local() {\n    let c = Mutex::new(0); // LOCK ORDER: 30\n}\n\
                 fn by_ref(m: &Mutex<u32>, shard: &'a Mutex<Vec<u8>>) -> MutexGuard<'static, u32> { todo!() }\n";
    let src = lib("crates/core/src/state.rs", clean);
    assert_clean(
        "PVS013 on clean source",
        pvs013_one_lock_order(std::slice::from_ref(&src)),
    );
    let graph = lock_graph(std::slice::from_ref(&src));
    let tiers: Vec<(&str, Option<u32>)> = graph
        .decls
        .iter()
        .map(|d| (d.id.as_str(), d.tier))
        .collect();
    assert_eq!(
        tiers,
        [
            ("core.first", Some(10)),
            ("core.second", Some(20)),
            ("core.c", Some(30))
        ]
    );
    assert_eq!(
        graph.edges.keys().collect::<Vec<_>>(),
        [&("core.first".to_string(), "core.second".to_string())]
    );
}

#[test]
fn pvs014_finds_nothing_on_the_tree() {
    assert_clean(
        "PVS014",
        pvs014_closed_counter_names(&tree().files, &tree().readme),
    );
}

#[test]
fn pvs014_inline_pairs() {
    let writes = "fn emit(r: &Registry, i: usize, entries: &mut Vec<(&str, u64)>, name: &str) {\n\
                  \x20   r.add(\"serve.cache.hits\", 1);\n    r.gauge_set(\"serve.queue.depth\", 2);\n\
                  \x20   entries.push((\"engine.loop.flops\", 3));\n    entries.push((\n\
                  \x20       \"engine.loop.cycles\",\n        4,\n    ));\n\
                  \x20   r.add_many(&[(\"netsim.messages\", 5), (\"netsim.hops\", 6)]);\n\
                  \x20   r.add(&format!(\"pool.worker.{i}.tasks\"), 7);\n\
                  \x20   r.record(\"serve.hist.busy_us\", 8);\n    r.record_n(\"netsim.hist.msg_bytes\", 64, 2);\n\
                  \x20   r.record_many(&[(\"memsim.hist.bank_queue_depth\", 3, 1)]);\n\
                  \x20   r.add(name, 1);\n    labels.push((\"Label\", 1));\n}\n\
                  fn record_to(r: &dyn Recorder) {\n\
                  \x20   for (name, value) in [(\"mpisim.fault.drops\", 1u64)] {\n        r.add(name, value);\n    }\n}\n\
                  fn read(snap: &Snapshot) {\n    snap.counter(\"serve.cache.hits\");\n\
                  \x20   snap.gauge(\"serve.queue.depth\");\n    snap.counter(\"pool.worker.0.tasks\");\n\
                  \x20   snap.hist(\"serve.hist.busy_us\");\n    snap.counter(\"mpisim.fault.drops\");\n\
                  \x20   snap.counter(\"engine.loop.cycles\");\n    snap.counter(\"test.scratch.value\");\n\
                  \x20   // snap.counter(\"never.written\") in prose\n}\n\
                  #[cfg(test)]\nmod tests {\n    fn t(r: &Registry) { r.add(\"only.in.tests\", 1); }\n}\n";
    let readme = "| `engine.phases` | phases |\n| `serve.cache.hits` | `serve.queue.depth` `engine.loop.flops` \
                  `engine.loop.cycles` `netsim.messages` `netsim.hops` `pool.worker.<i>.tasks` `serve.hist.busy_us` \
                  `netsim.hist.msg_bytes` `memsim.hist.bank_queue_depth` `mpisim.fault.drops` |\n";
    // A test tree may read what tests write; its literals answer to no grammar.
    let test_tree = Source::new(
        "tests/t.rs",
        "r.add(\"Odd\", 1);\nr.add(\"only.in.tree\", 1);\nsnap.counter(\"only.in.tree\");\n",
        true,
    );
    let files = [lib("crates/serve/src/a.rs", writes), test_tree];
    assert_clean(
        "PVS014 on clean sources",
        pvs014_closed_counter_names(&files, readme),
    );

    let breaches = "fn flush(r: &dyn Recorder) {\n    r.add(\"flops\", 1);\n    r.add(\"Engine.Phases\", 2);\n\
                    \x20   r.gauge_set(\"queueDepth\", 3);\n    r.gauge_max(\"netsim.link.Peak\", 4);\n\
                    \x20   entries.push((\"engine..cycles\", 5));\n    r.add_many(&[(\"ok.name\", 1), (\"bad name\", 2)]);\n\
                    \x20   r.record(\"histBusy\", 7);\n    r.record_n(\"serve.hist.Busy\", 7, 2);\n\
                    \x20   r.record_many(&[(\"bench.hist.ok_us\", 1, 1), (\"benchHist\", 2, 1)]);\n\
                    \x20   r.add(\"serve.undocumented\", 1);\n    r.add(\"serve.undocumented\", 2);\n\
                    \x20   r.gauge_set(\"serve.orphan.depth\", 2);\n    r.record(\"serve.hist.undocumented_us\", 3);\n}\n\
                    fn read(snap: &Snapshot) {\n    snap.counter(\"serve.queue.peak\");\n\
                    \x20   snap.gauge(\"serve.gauge.missing\");\n    snap.hist(\"serve.hist.never_recorded\");\n}\n";
    let test_read = Source::new("tests/t.rs", "snap.counter(\"serve.gone\");\n", true);
    let files = [lib("crates/serve/src/a.rs", breaches), test_read];
    let found = pvs014_closed_counter_names(&files, "`ok.name` `bench.hist.ok_us`");
    let in_lib: Vec<String> = found
        .iter()
        .filter(|f| f.starts_with("crates/"))
        .cloned()
        .collect();
    assert_eq!(
        lines(&in_lib),
        [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 17, 18, 19],
        "{found:#?}"
    );
    for want in [
        "crates/serve/src/a.rs:2: counter name \"flops\" is not lowercase",
        "crates/serve/src/a.rs:7: counter name \"bad name\"",
        "crates/serve/src/a.rs:10: counter name \"benchHist\"",
        "crates/serve/src/a.rs:11: counter `serve.undocumented` is written but has no row",
        "crates/serve/src/a.rs:17: counter `serve.queue.peak` is read but nothing writes it",
        "tests/t.rs:1: counter `serve.gone` is read but nothing writes it",
    ] {
        assert!(
            found.iter().any(|f| f.starts_with(want)),
            "missing {want}: {found:#?}"
        );
    }

    assert!(glob_match("pool.worker.*.tasks", "pool.worker.3.tasks"));
    assert!(glob_match(
        "chaos.*.mpisim.*",
        "chaos.drop_heavy.mpisim.drops"
    ));
    assert!(!glob_match("a.b", "a.b.c") && !glob_match("a.*.c", "a.c"));
    let docs = documented_names("| `pool.worker.<i>.tasks` |\n`chaos.<scenario>.mpisim.<counter>` not `a` or `Capitalized.Name`");
    assert_eq!(
        docs.into_iter().collect::<Vec<_>>(),
        ["chaos.*.mpisim.*", "pool.worker.*.tasks"]
    );
    assert_eq!(
        template_to_pattern("chaos.{}.mpisim.{name}").as_deref(),
        Some("chaos.*.mpisim.*")
    );
    assert_eq!(template_to_pattern("not dotted {x}"), None);
}

#[test]
fn pvs015_finds_nothing_on_the_tree() {
    assert_clean(
        "PVS015",
        tree()
            .sources()
            .flat_map(pvs015_schema_ids_from_the_registry)
            .collect(),
    );
}

#[test]
fn pvs015_inline_pairs() {
    let spelled = "const LOCAL_COPY: &str = \"pvs-bench/profile-v2\";\n\
                   fn is_known(s: &str) -> bool { s == \"pvs-obs/snapshot-v1\" || s == LOCAL_COPY }\n\
                   fn spill(body: &str) -> String { format!(\"{} {}\\n\", \"pvs-serve/spill-cell-v1\", body.len()) }\n";
    let found = pvs015_schema_ids_from_the_registry(&lib("crates/report/src/a.rs", spelled));
    assert_eq!(lines(&found), [1, 2, 3]);
    assert!(found[2].contains("`pvs-serve/spill-cell-v1`"), "{found:?}");
    assert_clean(
        "the registry itself",
        pvs015_schema_ids_from_the_registry(&lib("crates/core/src/schema.rs", spelled)),
    );
    let clean = "fn current() -> &'static str { pvs_core::schema::PROFILE_V2 }\n\
                 let a = \"pvs-bench/profile-v2 with suffix\";\nlet b = \"pvs-bench/profile-v99\";\n\
                 // a comment quoting \"pvs-bench/profile-v2\"\n\
                 #[cfg(test)]\nmod tests { fn t() { assert_eq!(super::current(), \"pvs-bench/profile-v2\"); } }\n";
    assert_clean(
        "PVS015 on clean source",
        pvs015_schema_ids_from_the_registry(&lib("crates/report/src/a.rs", clean)),
    );
}
