//! Pass 1 of the cross-file lints: the workspace fact base.
//!
//! One scan per file (on top of [`crate::scan`]'s code/comment channels)
//! extracts the facts the cross-file passes join over:
//!
//! * **Lock facts** — every `Mutex` declaration (struct field or `let`
//!   binding) with its `// LOCK ORDER: <tier>` annotation; per-function
//!   acquisition sites with guard liveness (brace-scoped `let` guards,
//!   statement-temporary acquisitions); calls made while a guard is
//!   held; and blocking-hazard markers. [`WorkspaceFacts::build`]
//!   resolves calls through a name-based may-acquire map (with a
//!   stoplist of common std method names) into the cross-crate
//!   lock-order graph PVS013 checks.
//! * **Name facts** — every counter/gauge name literal written to a
//!   `Recorder` (single calls, `add_many` batches, `entries.push((..))`
//!   including multi-line continuations, `record_to` tuple arrays, and
//!   `format!` templates, which become `*`-wildcard patterns) and every
//!   name read back (`.counter("..")`, `.gauge("..")`), each tagged
//!   test/non-test. PVS014 joins the two sides; a literal at a write
//!   site that is not a dotted name at all is PVS011's finding.
//! * **Schema facts** — exact-literal occurrences of the canonical
//!   schema identifiers registered in `pvs_core::schema` (PVS015).
//!
//! Everything here is heuristic in the same spirit as the per-file
//! passes: false-positive lean, pinned by golden fixtures, with the real
//! serve/obs/pool lock graph pinned by unit tests.

use std::collections::{BTreeMap, BTreeSet};

use crate::scan::{has_word, scan_source, ScannedLine};

/// One declared `Mutex` (struct field or `let` binding).
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Stable id: `<crate>.<name>`.
    pub id: String,
    /// Field/binding name.
    pub name: String,
    /// Repo-relative file of the declaration.
    pub file: String,
    /// 1-based declaration line.
    pub line: usize,
    /// Declared `// LOCK ORDER:` tier, if any.
    pub tier: Option<u32>,
}

/// One observed acquisition-order edge: `acquired` was taken while a
/// guard on `holder` was live.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// Lock id held at the acquisition site.
    pub holder: String,
    /// Lock id acquired under it.
    pub acquired: String,
    /// First site that produced this edge.
    pub file: String,
    /// 1-based line of that site.
    pub line: usize,
}

/// A blocking operation reached while a guard was live.
#[derive(Debug, Clone)]
pub struct HazardSite {
    /// Lock ids held at the site.
    pub holders: Vec<String>,
    /// Human label of the hazard class.
    pub what: &'static str,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// A `// LOCK OK:` justification sits within the comment window.
    pub justified: bool,
}

/// One counter-name occurrence (emission or consumption). Emission
/// names built with `format!` carry `*` wildcard segments.
#[derive(Debug, Clone)]
pub struct NameFact {
    /// Dotted name (emissions may contain `*` segments).
    pub name: String,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The site is in test code (`#[cfg(test)]` region or a test tree).
    pub in_test: bool,
}

/// An exact-literal occurrence of a canonical schema identifier.
#[derive(Debug, Clone)]
pub struct SchemaLit {
    /// The identifier (one of `pvs_core::schema::ALL`).
    pub id: String,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
}

/// One acquisition on a line.
#[derive(Debug, Clone)]
struct Acquire {
    lock_id: String,
    /// `let`-bound guard (lives to end of scope) vs statement temporary.
    scoped: bool,
    binding: Option<String>,
}

/// A live `let`-bound guard during the liveness scan.
struct Guard {
    lock_id: String,
    binding: Option<String>,
    depth: i64,
}

/// Everything pass 1 extracted from one file.
#[derive(Debug)]
pub struct FileFacts {
    /// Crate the file belongs to.
    pub crate_name: String,
    /// Repo-relative path.
    pub path: String,
    /// Scanned code/comment channels (reused by the per-file passes).
    pub lines: Vec<ScannedLine>,
    /// Raw source lines (for reading literal text back out).
    pub raw: Vec<String>,
    /// Lock declarations (empty for test-tree files).
    pub locks: Vec<LockDecl>,
    /// Counter names written to a Recorder.
    pub emitted: Vec<NameFact>,
    /// Counter names read back.
    pub consumed: Vec<NameFact>,
    /// Literals at unambiguous Recorder write sites that are not dotted
    /// counter names (PVS011; empty for test-tree files).
    pub malformed: Vec<NameFact>,
    /// `// DOCUMENTED: <name>` directives (fixtures document their own
    /// names; the real tree documents in the README).
    pub documented: Vec<String>,
    /// Canonical schema identifiers spelled as exact literals outside
    /// test regions.
    pub schema_lits: Vec<SchemaLit>,
    /// Per line: lock ids of `let`-bound guards live *entering* it.
    holders: Vec<Vec<String>>,
    /// Per line: acquisitions made on it.
    acquires: Vec<Vec<Acquire>>,
    /// Per line: callee identifiers (for may-acquire resolution).
    calls: Vec<Vec<String>>,
    /// Per line: blocking-hazard labels found on it.
    hazards: Vec<Vec<&'static str>>,
    /// Per line: a `// LOCK OK:` comment sits on it.
    lock_ok: Vec<bool>,
    /// Per line: index into `fn_names` of the innermost enclosing fn.
    fn_of_line: Vec<Option<usize>>,
    /// Function names in declaration order.
    fn_names: Vec<String>,
}

/// How many lines above a declaration/hazard the justifying comment may
/// sit (mirrors the `// SAFETY:` / `// INFALLIBLE:` windows).
const COMMENT_WINDOW: usize = 3;

/// Blocking operations a held guard must not cross. Condvar waits are
/// deliberately absent: waiting *releases* the guard.
const HAZARD_MARKERS: [(&str, &str); 18] = [
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

/// Function names excluded from call resolution: common std container /
/// sync method names whose workspace homonyms would fabricate edges
/// (e.g. `inner.counters.insert(..)` under the registry guard must not
/// resolve to `ShardedCache::insert`). A callee filtered here can still
/// contribute edges through the direct-acquisition scan.
const CALL_STOPLIST: [&str; 36] = [
    "insert", "get", "get_mut", "remove", "len", "is_empty", "push", "push_back", "pop",
    "pop_front", "clone", "iter", "into_iter", "next", "wait", "send", "recv", "join", "lock",
    "drop", "take", "clear", "extend", "entry", "retain", "contains", "contains_key", "map",
    "filter", "collect", "new", "default", "from", "min", "max", "fmt",
];

impl FileFacts {
    /// Scan one file into its fact record. `is_test_file` marks whole
    /// files from test trees (`crates/*/tests`, root `tests/`): their
    /// name facts are collected as test-channel and their lock facts are
    /// skipped entirely.
    pub fn parse(crate_name: &str, path: &str, text: &str, is_test_file: bool) -> FileFacts {
        let lines = scan_source(text);
        let raw: Vec<String> = text.lines().map(str::to_string).collect();
        let n = lines.len();
        let test_cutoff = if is_test_file {
            0
        } else {
            lines
                .iter()
                .position(|l| l.code.contains("#[cfg(test)]"))
                .unwrap_or(n)
        };

        let mut ff = FileFacts {
            crate_name: crate_name.to_string(),
            path: path.to_string(),
            locks: Vec::new(),
            emitted: Vec::new(),
            consumed: Vec::new(),
            malformed: Vec::new(),
            documented: Vec::new(),
            schema_lits: Vec::new(),
            holders: vec![Vec::new(); n],
            acquires: vec![Vec::new(); n],
            calls: vec![Vec::new(); n],
            hazards: vec![Vec::new(); n],
            lock_ok: vec![false; n],
            fn_of_line: vec![None; n],
            fn_names: Vec::new(),
            lines,
            raw,
        };
        if !is_test_file {
            ff.collect_locks(test_cutoff);
        }
        ff.scan_lock_usage(test_cutoff);
        ff.collect_names(test_cutoff);
        if is_test_file {
            ff.malformed.clear();
        }
        ff.collect_schema_literals(test_cutoff);
        ff
    }

    /// Pass A: `Mutex` declarations and their `LOCK ORDER` tiers.
    fn collect_locks(&mut self, cutoff: usize) {
        let mut depth: i64 = 0;
        // Open struct bodies: the depth their fields sit at.
        let mut struct_depths: Vec<i64> = Vec::new();
        for idx in 0..cutoff.min(self.lines.len()) {
            let code = self.lines[idx].code.clone();
            let entry = depth;
            depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
            struct_depths.retain(|&d| depth >= d);
            let in_struct_body = struct_depths.last().is_some_and(|&d| entry == d);
            if has_word(&code, "struct") && depth > entry {
                struct_depths.push(depth);
            }

            let decl_name = if in_struct_body || has_word(&code, "struct") {
                mutex_field_name(&code)
            } else {
                mutex_let_name(&code)
            };
            let Some(name) = decl_name else { continue };
            let tier = self.lock_order_tier(idx);
            self.locks.push(LockDecl {
                id: format!("{}.{}", self.crate_name, name),
                name,
                file: self.path.clone(),
                line: idx + 1,
                tier,
            });
        }
    }

    /// The `// LOCK ORDER: <tier>` annotation on the declaration line
    /// or on the comment-only lines directly above it (the upward walk
    /// stops at the first intervening code line, so one annotation
    /// cannot be claimed by two adjacent declarations).
    fn lock_order_tier(&self, idx: usize) -> Option<u32> {
        let start = idx.saturating_sub(COMMENT_WINDOW);
        for (off, l) in self.lines[start..=idx].iter().enumerate().rev() {
            if let Some(rest) = l.comment.split("LOCK ORDER:").nth(1) {
                let digits: String = rest
                    .trim_start()
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                return digits.parse().ok();
            }
            if start + off < idx && !l.code.trim().is_empty() {
                return None;
            }
        }
        None
    }

    /// Pass B: guard liveness, acquisitions, calls, hazards, fn spans.
    fn scan_lock_usage(&mut self, cutoff: usize) {
        let lock_names: Vec<(String, String)> = self
            .locks
            .iter()
            .map(|l| (l.name.clone(), l.id.clone()))
            .collect();
        let resolve = |ident: &str| -> Option<String> {
            lock_names
                .iter()
                .find(|(n, _)| n == ident || *n == format!("{ident}s"))
                .map(|(_, id)| id.clone())
        };

        let mut depth: i64 = 0;
        let mut guards: Vec<Guard> = Vec::new();
        // (fn index, body depth) stack + a signature seen but not yet
        // opened.
        let mut fn_stack: Vec<(usize, i64)> = Vec::new();
        let mut pending_fn: Option<usize> = None;

        for idx in 0..cutoff.min(self.lines.len()) {
            let code = self.lines[idx].code.clone();
            let entry = depth;
            depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;

            // Function attribution.
            if let Some(name) = fn_decl_name(&code) {
                self.fn_names.push(name);
                pending_fn = Some(self.fn_names.len() - 1);
            }
            fn_stack.retain(|&(_, d)| depth >= d);
            self.fn_of_line[idx] = fn_stack.last().map(|&(f, _)| f);
            if let Some(f) = pending_fn {
                if depth > entry {
                    fn_stack.push((f, depth));
                    self.fn_of_line[idx] = Some(f);
                    pending_fn = None;
                } else if code.trim_end().ends_with(';') {
                    pending_fn = None; // trait method signature, no body
                }
            }

            // Holders entering the line.
            let mut held: Vec<String> = guards.iter().map(|g| g.lock_id.clone()).collect();
            held.dedup();
            self.holders[idx] = held;

            // Acquisitions.
            for acq in find_acquisitions(&code, &resolve) {
                if acq.scoped {
                    guards.push(Guard {
                        lock_id: acq.lock_id.clone(),
                        binding: acq.binding.clone(),
                        depth: entry,
                    });
                }
                self.acquires[idx].push(acq);
            }

            // Explicit `drop(ident)` releases a named guard early.
            let mut search = 0;
            while let Some(pos) = code[search..].find("drop(") {
                let at = search + pos;
                let arg = leading_ident(&code[at + 5..]);
                guards.retain(|g| g.binding.as_deref() != Some(arg));
                search = at + 5;
            }

            // Calls and hazards.
            self.calls[idx] = call_idents(&code);
            for (marker, what) in HAZARD_MARKERS {
                let hit = if marker.chars().all(|c| c.is_alphanumeric() || c == '_') {
                    has_word(&code, marker)
                } else {
                    code.contains(marker)
                };
                if hit {
                    self.hazards[idx].push(what);
                }
            }
            self.lock_ok[idx] = self.lines[idx].comment.contains("LOCK OK:");

            // Scope exits kill guards declared at deeper (or equal) depth.
            guards.retain(|g| depth >= g.depth);
        }
    }

    /// Name facts: emissions and consumptions (all lines — test regions
    /// included, tagged), plus `DOCUMENTED:` directives.
    fn collect_names(&mut self, cutoff: usize) {
        let mut in_add_many_span = false;
        for idx in 0..self.lines.len() {
            let code = self.lines[idx].code.clone();
            let raw = self.raw.get(idx).cloned().unwrap_or_default();
            let fact = |name: String| NameFact {
                name,
                file: self.path.clone(),
                line: idx + 1,
                in_test: idx >= cutoff,
            };

            // Consumption: `.counter("..")` / `.gauge("..")` /
            // `.hist("..")` — histogram reads join the same registry
            // namespace as counter and gauge reads.
            for marker in [".counter(", ".gauge(", ".hist("] {
                for name in literals_after_marker(&code, &raw, marker) {
                    if is_counter_name(&name, false) && name != "test" {
                        self.consumed.push(fact(name));
                    }
                }
            }

            // Emission: single-name Recorder writes (histogram records
            // included — `*.hist.*` names join the same namespace), and
            // their `format!` templates, which become wildcard patterns.
            for marker in [".add(", ".gauge_set(", ".gauge_max(", ".record(", ".record_n("] {
                for name in literals_after_marker(&code, &raw, marker) {
                    if is_counter_name(&name, false) {
                        self.emitted.push(fact(name));
                    } else {
                        self.malformed.push(fact(name));
                    }
                }
                let template_marker = format!("{marker}&format!(");
                for template in literals_after_marker(&code, &raw, &template_marker) {
                    if let Some(pattern) = template_to_pattern(&template) {
                        self.emitted.push(fact(pattern));
                    }
                }
            }

            // Emission: tuple batches. Every literal-headed tuple on an
            // `add_many(&[(` / `record_many(&[(` / `entries.push((` line
            // names a counter; the looser contexts — any `.push(("..`
            // tuple (and its multi-line continuation), `add_many` spans
            // and `record_to` bodies (the tuple-array idiom) — only
            // contribute the literals that already are names.
            let batch_line = code.contains("add_many(&[(")
                || code.contains("record_many(&[(")
                || code.contains("entries.push((");
            let prev_continues = idx > 0
                && self.lines[idx - 1].code.trim_end().ends_with("push((");
            let in_record_to = self.fn_of_line[idx]
                .is_some_and(|f| self.fn_names[f] == "record_to");
            if code.contains("add_many(&[") || code.contains("record_many(&[") {
                in_add_many_span = !code.contains("])");
            }
            let tuple_ctx = batch_line
                || code.contains(".push((\"")
                || prev_continues
                || in_record_to
                || in_add_many_span;
            if in_add_many_span && code.contains("])") {
                in_add_many_span = false;
            }
            if tuple_ctx {
                let mut names = literals_after_marker(&code, &raw, "(");
                // A continuation line may *start* with the literal.
                if code.trim_start().starts_with('"') {
                    if let Some(col) = code.find('"') {
                        if let Some(name) = read_literal(&raw, col) {
                            names.push(name);
                        }
                    }
                }
                for name in names {
                    if is_counter_name(&name, false) {
                        self.emitted.push(fact(name));
                    } else if batch_line {
                        self.malformed.push(fact(name));
                    }
                }
            }

            // Documentation directives (fixtures; harmless elsewhere).
            if let Some(rest) = self.lines[idx].comment.split("DOCUMENTED:").nth(1) {
                let name = rest.trim().trim_matches('`').to_string();
                if is_counter_name(&name, true) {
                    self.documented.push(name);
                }
            }
        }
    }

    /// Exact-literal occurrences of canonical schema ids outside test
    /// regions. The code channel blanks literal contents but keeps the
    /// delimiters, so `code[col] == '"'` proves the match starts a real
    /// string, and the closing quote right after it proves exactness.
    fn collect_schema_literals(&mut self, cutoff: usize) {
        for idx in 0..cutoff.min(self.lines.len()) {
            let raw = self.raw.get(idx).cloned().unwrap_or_default();
            let code = &self.lines[idx].code;
            for id in pvs_core::schema::ALL {
                let needle = format!("\"{id}\"");
                let mut search = 0;
                while let Some(pos) = raw[search..].find(&needle) {
                    let col = search + pos;
                    if code.as_bytes().get(col) == Some(&b'"') {
                        self.schema_lits.push(SchemaLit {
                            id: id.to_string(),
                            file: self.path.clone(),
                            line: idx + 1,
                        });
                    }
                    search = col + 1;
                }
            }
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifier `s` starts with (possibly empty).
fn leading_ident(s: &str) -> &str {
    &s[..s.find(|c| !is_ident_char(c)).unwrap_or(s.len())]
}

/// The identifier `s` ends with (possibly empty).
fn trailing_ident(s: &str) -> &str {
    let start = s.char_indices().rev().take_while(|&(_, c)| is_ident_char(c)).last();
    &s[start.map_or(s.len(), |(i, _)| i)..]
}

/// `name: Mutex<..>` / `name: Arc<Mutex<..>>` / `name: Vec<Mutex<..>>`
/// struct field (references are not declarations).
fn mutex_field_name(code: &str) -> Option<String> {
    let pos = code.find("Mutex<")?;
    if code[..pos].contains('&') {
        return None;
    }
    let colon = code[..pos].rfind(':')?;
    let name = trailing_ident(code[..colon].trim_end());
    (!name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit()))
        .then(|| name.to_string())
}

/// `let name = ..Mutex::new(..)..` / `let name: Mutex<..> = ..` binding.
fn mutex_let_name(code: &str) -> Option<String> {
    if !has_word(code, "let") {
        return None;
    }
    let has_owned_type = code
        .find("Mutex<")
        .is_some_and(|p| !code[..p].contains('&'));
    if !code.contains("Mutex::new(") && !has_owned_type {
        return None;
    }
    let let_pos = code.find("let ")?;
    let rest = code[let_pos + 4..].trim_start();
    let name = leading_ident(rest.strip_prefix("mut ").unwrap_or(rest));
    (!name.is_empty()).then(|| name.to_string())
}

/// `fn name` on this line (the declaration, not a call).
fn fn_decl_name(code: &str) -> Option<String> {
    let pos = find_fn_keyword(code)?;
    let name = leading_ident(code[pos + 3..].trim_start());
    (!name.is_empty()).then(|| name.to_string())
}

/// Position of a word-boundary `fn ` keyword.
fn find_fn_keyword(code: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find("fn ") {
        let at = start + pos;
        let before_ok = at == 0 || {
            let b = bytes[at - 1];
            !b.is_ascii_alphanumeric() && b != b'_'
        };
        if before_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

/// Every `.lock()` / `.lock_<name>(..)` acquisition on the line,
/// resolved against the file's lock table.
fn find_acquisitions(code: &str, resolve: &dyn Fn(&str) -> Option<String>) -> Vec<Acquire> {
    let mut out = Vec::new();
    let is_let = code.trim_start().starts_with("let ");
    let binding = is_let.then(|| {
        let rest = code.trim_start()[4..].trim_start();
        leading_ident(rest.strip_prefix("mut ").unwrap_or(rest)).to_string()
    });

    // `.lock()` on a receiver: the lock is the receiver's last segment.
    let mut search = 0;
    while let Some(pos) = code[search..].find(".lock()") {
        let at = search + pos;
        search = at + 7;
        let Some(lock_id) = resolve(trailing_ident(&code[..at])) else { continue };
        let scoped = is_let && binds_receiver(code, at) && guard_chain_ends(code, at + 6);
        out.push(Acquire {
            lock_id,
            scoped,
            binding: binding.clone(),
        });
    }

    // `.lock_<name>(..)` helpers: the lock is named by the method.
    let mut search = 0;
    while let Some(pos) = code[search..].find(".lock_") {
        let at = search + pos;
        search = at + 6;
        let name = leading_ident(&code[at + 6..]);
        let open = at + 6 + name.len();
        if name.is_empty() || code.as_bytes().get(open) != Some(&b'(') {
            continue;
        }
        let Some(lock_id) = resolve(name) else { continue };
        let Some(close) = matching_paren(code, open) else { continue };
        let scoped = is_let && binds_receiver(code, at) && guard_chain_ends(code, close);
        out.push(Acquire {
            lock_id,
            scoped,
            binding: binding.clone(),
        });
    }
    out
}

/// The `let` binding takes the guard itself only when the acquisition
/// expression starts directly after `=` — a prefix like `*` or `&`
/// (`let v = *s.a.lock().unwrap();`) projects through the guard and
/// binds a copy, not the guard.
fn binds_receiver(code: &str, dot_at: usize) -> bool {
    let mut start = dot_at;
    let bytes = code.as_bytes();
    while start > 0 {
        let b = bytes[start - 1];
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
            start -= 1;
        } else {
            break;
        }
    }
    code[..start].trim_end().ends_with('=')
}

/// After the call that returned a guard (closing paren at `close`), skip
/// chained `.expect(..)`/`.unwrap()` and decide whether the statement
/// ends there (a guard binding) or keeps projecting (a temporary, e.g.
/// `..lock().expect("..").peak_depth`).
fn guard_chain_ends(code: &str, close: usize) -> bool {
    let mut i = close + 1;
    loop {
        let rest = code[i.min(code.len())..].trim_start();
        if rest.is_empty() || rest.starts_with(';') {
            return true;
        }
        if let Some(tail) = rest.strip_prefix(".expect(").or_else(|| rest.strip_prefix(".unwrap("))
        {
            let open = code.len() - tail.len() - 1;
            match matching_paren(code, open) {
                Some(c) => i = c + 1,
                None => return true, // spills to the next line; treat as guard
            }
        } else {
            return false;
        }
    }
}

/// Index of the `)` matching the `(` at `open` (same line only).
fn matching_paren(code: &str, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, c) in code.char_indices().skip(open) {
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

/// Identifiers called on this line (`ident(`), excluding `fn`
/// declarations and keywords.
fn call_idents(code: &str) -> Vec<String> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'(' {
            continue;
        }
        let mut start = i;
        while start > 0 {
            let p = bytes[start - 1];
            if p.is_ascii_alphanumeric() || p == b'_' {
                start -= 1;
            } else {
                break;
            }
        }
        if start == i {
            continue;
        }
        let ident = &code[start..i];
        if ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            continue;
        }
        if matches!(ident, "if" | "while" | "for" | "match" | "loop" | "return" | "fn") {
            continue;
        }
        // Skip the name in `fn name(`.
        if code[..start].trim_end().ends_with("fn") {
            continue;
        }
        if !out.iter().any(|o| o == ident) {
            out.push(ident.to_string());
        }
    }
    out
}

/// String literals opening right after an occurrence of `marker`
/// (whitespace allowed between), read back from the raw line: the code
/// channel blanks literal contents but keeps columns and delimiters.
fn literals_after_marker(code: &str, raw: &str, marker: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (pos, _) in code.match_indices(marker) {
        let after = &code[pos + marker.len()..];
        let quote_col = code.len() - after.trim_start().len();
        if code[quote_col..].starts_with('"') {
            out.extend(read_literal(raw, quote_col));
        }
    }
    out
}

/// The literal starting at the `"` at `quote_col` of the raw line.
fn read_literal(raw: &str, quote_col: usize) -> Option<String> {
    let rest = raw.get(quote_col + 1..)?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// `format!` template → wildcard pattern: every `{..}` hole becomes a
/// `*` segment. Returns `None` when the result is not a dotted name.
fn template_to_pattern(template: &str) -> Option<String> {
    let mut out = String::new();
    let mut rest = template;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        let close = rest[open..].find('}')?;
        out.push('*');
        rest = &rest[open + close + 1..];
    }
    out.push_str(rest);
    is_counter_name(&out, true).then_some(out)
}

/// Dotted counter-name grammar: >= 2 segments of `[a-z0-9_]+` (a lone
/// `*` per segment when `allow_wildcard`).
pub fn is_counter_name(name: &str, allow_wildcard: bool) -> bool {
    let mut segments = 0;
    for seg in name.split('.') {
        let wild = allow_wildcard && seg == "*";
        let plain = !seg.is_empty()
            && seg
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_');
        if !wild && !plain {
            return false;
        }
        segments += 1;
    }
    segments >= 2
}

/// The joined fact base the cross-file passes (PVS013/014/015) consume.
#[derive(Debug)]
pub struct WorkspaceFacts {
    /// Per-file facts, in walk order.
    pub files: Vec<FileFacts>,
    /// All lock declarations.
    pub locks: Vec<LockDecl>,
    /// Deduplicated acquisition-order edges (first site wins).
    pub edges: Vec<LockEdge>,
    /// Blocking hazards reached while holding a guard.
    pub hazard_sites: Vec<HazardSite>,
}

impl WorkspaceFacts {
    /// Join per-file facts: build the function may-acquire map, resolve
    /// calls made under guards, and materialize the lock-order graph.
    pub fn build(files: Vec<FileFacts>) -> WorkspaceFacts {
        let locks: Vec<LockDecl> = files.iter().flat_map(|f| f.locks.clone()).collect();

        // Function name -> locks it may acquire (direct), then the
        // transitive closure through calls. Names on the stoplist are
        // never map keys, so homonyms of std methods cannot resolve.
        let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut fn_calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for file in &files {
            for idx in 0..file.lines.len() {
                let Some(f) = file.fn_of_line[idx] else { continue };
                let name = &file.fn_names[f];
                if CALL_STOPLIST.contains(&name.as_str()) {
                    continue;
                }
                for acq in &file.acquires[idx] {
                    direct
                        .entry(name.clone())
                        .or_default()
                        .insert(acq.lock_id.clone());
                }
                for callee in &file.calls[idx] {
                    if !CALL_STOPLIST.contains(&callee.as_str()) && callee != name {
                        fn_calls
                            .entry(name.clone())
                            .or_default()
                            .insert(callee.clone());
                    }
                }
            }
        }
        let mut may_acquire = direct;
        loop {
            let mut changed = false;
            for (caller, callees) in &fn_calls {
                let mut gained: BTreeSet<String> = BTreeSet::new();
                for callee in callees {
                    if let Some(acqs) = may_acquire.get(callee) {
                        gained.extend(acqs.iter().cloned());
                    }
                }
                if gained.is_empty() {
                    continue;
                }
                let entry = may_acquire.entry(caller.clone()).or_default();
                let before = entry.len();
                entry.extend(gained);
                changed |= entry.len() > before;
            }
            if !changed {
                break;
            }
        }
        may_acquire.retain(|_, v| !v.is_empty());

        // Replay: edges and hazards under live guards.
        let mut edge_map: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
        let mut hazard_sites = Vec::new();
        for file in &files {
            for idx in 0..file.lines.len() {
                let holders = &file.holders[idx];
                if holders.is_empty() && file.acquires[idx].is_empty() {
                    continue;
                }
                for acq in &file.acquires[idx] {
                    for h in holders {
                        edge_map
                            .entry((h.clone(), acq.lock_id.clone()))
                            .or_insert_with(|| (file.path.clone(), idx + 1));
                    }
                }
                if !holders.is_empty() {
                    for callee in &file.calls[idx] {
                        let Some(acqs) = may_acquire.get(callee) else {
                            continue;
                        };
                        for l in acqs {
                            for h in holders {
                                edge_map
                                    .entry((h.clone(), l.clone()))
                                    .or_insert_with(|| (file.path.clone(), idx + 1));
                            }
                        }
                    }
                }
                let mut hazard_holders: Vec<String> = holders.clone();
                for acq in &file.acquires[idx] {
                    if !hazard_holders.contains(&acq.lock_id) {
                        hazard_holders.push(acq.lock_id.clone());
                    }
                }
                if !hazard_holders.is_empty() && !file.hazards[idx].is_empty() {
                    let window = idx.saturating_sub(COMMENT_WINDOW);
                    let justified = file.lock_ok[window..=idx].iter().any(|&j| j);
                    for what in &file.hazards[idx] {
                        hazard_sites.push(HazardSite {
                            holders: hazard_holders.clone(),
                            what,
                            file: file.path.clone(),
                            line: idx + 1,
                            justified,
                        });
                    }
                }
            }
        }
        let edges = edge_map
            .into_iter()
            .map(|((holder, acquired), (file, line))| LockEdge {
                holder,
                acquired,
                file,
                line,
            })
            .collect();

        WorkspaceFacts {
            files,
            locks,
            edges,
            hazard_sites,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileFacts {
        FileFacts::parse("fixture", "test.rs", src, false)
    }

    #[test]
    fn mutex_field_and_let_declarations_are_found_with_tiers() {
        let src = "struct S {\n\
                   // LOCK ORDER: 10 — outermost\n\
                   a: Mutex<u32>,\n\
                   b: Vec<Mutex<String>>,\n\
                   }\n\
                   fn f() {\n\
                   let c = Mutex::new(0); // LOCK ORDER: 20\n\
                   }\n";
        let ff = parse(src);
        let ids: Vec<(&str, Option<u32>)> =
            ff.locks.iter().map(|l| (l.id.as_str(), l.tier)).collect();
        assert_eq!(
            ids,
            vec![
                ("fixture.a", Some(10)),
                ("fixture.b", None),
                ("fixture.c", Some(20)),
            ]
        );
    }

    #[test]
    fn references_and_params_are_not_declarations() {
        let src = "fn f(m: &Mutex<u32>) {}\n\
                   fn g(shard: &'a Mutex<Vec<u8>>) {}\n\
                   fn h() -> std::sync::MutexGuard<'static, u32> { todo!() }\n";
        assert!(parse(src).locks.is_empty());
    }

    #[test]
    fn guard_liveness_produces_nesting_edges() {
        let src = "struct S {\n\
                   // LOCK ORDER: 10\n\
                   outer: Mutex<u32>,\n\
                   // LOCK ORDER: 20\n\
                   inner: Mutex<u32>,\n\
                   }\n\
                   fn f(s: &S) {\n\
                   let a = s.outer.lock().unwrap();\n\
                   let b = s.inner.lock().unwrap();\n\
                   }\n";
        let ws = WorkspaceFacts::build(vec![parse(src)]);
        assert_eq!(ws.edges.len(), 1);
        assert_eq!(ws.edges[0].holder, "fixture.outer");
        assert_eq!(ws.edges[0].acquired, "fixture.inner");
        assert_eq!(ws.edges[0].line, 9);
    }

    #[test]
    fn temporaries_and_closed_scopes_hold_nothing() {
        let src = "struct S {\n\
                   // LOCK ORDER: 10\n\
                   a: Mutex<u32>,\n\
                   // LOCK ORDER: 20\n\
                   b: Mutex<u32>,\n\
                   }\n\
                   fn f(s: &S) {\n\
                   let v = *s.a.lock().unwrap();\n\
                   let w = s.b.lock().unwrap();\n\
                   }\n\
                   fn g(s: &S) {\n\
                   {\n\
                   let a = s.a.lock().unwrap();\n\
                   }\n\
                   let b = s.b.lock().unwrap();\n\
                   }\n";
        // `v` is a temporary (deref projection) — no a->b edge from f;
        // g's block scope drops `a` before b is taken.
        let ws = WorkspaceFacts::build(vec![parse(src)]);
        assert!(ws.edges.is_empty(), "{:?}", ws.edges);
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let src = "struct S {\n\
                   // LOCK ORDER: 10\n\
                   a: Mutex<u32>,\n\
                   // LOCK ORDER: 20\n\
                   b: Mutex<u32>,\n\
                   }\n\
                   fn f(s: &S) {\n\
                   let a = s.a.lock().unwrap();\n\
                   drop(a);\n\
                   let b = s.b.lock().unwrap();\n\
                   }\n";
        assert!(WorkspaceFacts::build(vec![parse(src)]).edges.is_empty());
    }

    #[test]
    fn calls_resolve_to_their_acquisitions_transitively() {
        let src = "struct S {\n\
                   // LOCK ORDER: 10\n\
                   a: Mutex<u32>,\n\
                   // LOCK ORDER: 20\n\
                   b: Mutex<u32>,\n\
                   }\n\
                   fn leaf(s: &S) {\n\
                   let b = s.b.lock().unwrap();\n\
                   }\n\
                   fn mid(s: &S) {\n\
                   leaf(s);\n\
                   }\n\
                   fn top(s: &S) {\n\
                   let a = s.a.lock().unwrap();\n\
                   mid(s);\n\
                   }\n";
        let ws = WorkspaceFacts::build(vec![parse(src)]);
        assert_eq!(ws.edges.len(), 1);
        assert_eq!(ws.edges[0].holder, "fixture.a");
        assert_eq!(ws.edges[0].acquired, "fixture.b");
    }

    #[test]
    fn stoplisted_names_never_resolve() {
        let src = "struct S {\n\
                   // LOCK ORDER: 10\n\
                   a: Mutex<u32>,\n\
                   }\n\
                   fn insert(s: &S) {\n\
                   let a = s.a.lock().unwrap();\n\
                   }\n\
                   fn caller(s: &S, map: &mut std::collections::BTreeMap<u32, u32>) {\n\
                   let a = s.a.lock().unwrap();\n\
                   map.insert(1, 2);\n\
                   }\n";
        // `map.insert` under the guard must not resolve to fn insert
        // (which would fabricate an a->a self-edge).
        assert!(WorkspaceFacts::build(vec![parse(src)]).edges.is_empty());
    }

    #[test]
    fn hazards_under_guards_are_recorded_and_justified() {
        let src = "struct S {\n\
                   // LOCK ORDER: 10\n\
                   a: Mutex<u32>,\n\
                   }\n\
                   fn f(s: &S, tx: &std::sync::mpsc::Sender<u32>) {\n\
                   let a = s.a.lock().unwrap();\n\
                   tx.send(1).ok();\n\
                   }\n\
                   fn g(s: &S, tx: &std::sync::mpsc::Sender<u32>) {\n\
                   let a = s.a.lock().unwrap();\n\
                   // LOCK OK: bounded channel with a dedicated drain\n\
                   tx.send(1).ok();\n\
                   }\n\
                   fn h(tx: &std::sync::mpsc::Sender<u32>) {\n\
                   tx.send(1).ok();\n\
                   }\n";
        let ws = WorkspaceFacts::build(vec![parse(src)]);
        assert_eq!(ws.hazard_sites.len(), 2, "{:?}", ws.hazard_sites);
        assert!(!ws.hazard_sites[0].justified);
        assert_eq!(ws.hazard_sites[0].line, 7);
        assert!(ws.hazard_sites[1].justified);
    }

    #[test]
    fn emission_and_consumption_idioms_are_collected() {
        let src = "fn lib(r: &dyn Recorder, entries: &mut Vec<(&str, u64)>) {\n\
                   r.add(\"serve.cache.hits\", 1);\n\
                   r.gauge_set(\"serve.queue.depth\", 2);\n\
                   entries.push((\"engine.loop.flops\", 3));\n\
                   entries.push((\n\
                   \"engine.loop.cycles\",\n\
                   4,\n\
                   ));\n\
                   r.add_many(&[(\"netsim.messages\", 5), (\"netsim.hops\", 6)]);\n\
                   r.add(&format!(\"pool.worker.{i}.tasks\"), 7);\n\
                   }\n\
                   fn record_to(r: &dyn Recorder) {\n\
                   for (name, value) in [(\"mpisim.fault.drops\", 1u64)] {\n\
                   r.add(name, value);\n\
                   }\n\
                   }\n\
                   fn reader(snap: &Snapshot) {\n\
                   snap.counter(\"serve.cache.hits\");\n\
                   snap.gauge(\"serve.queue.depth\");\n\
                   }\n";
        let ff = parse(src);
        let emitted: Vec<&str> = ff.emitted.iter().map(|n| n.name.as_str()).collect();
        for want in [
            "serve.cache.hits",
            "serve.queue.depth",
            "engine.loop.flops",
            "engine.loop.cycles",
            "netsim.messages",
            "netsim.hops",
            "pool.worker.*.tasks",
            "mpisim.fault.drops",
        ] {
            assert!(emitted.contains(&want), "missing {want}: {emitted:?}");
        }
        let consumed: Vec<&str> = ff.consumed.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(consumed, vec!["serve.cache.hits", "serve.queue.depth"]);
    }

    #[test]
    fn test_regions_are_tagged() {
        let src = "fn lib(r: &Registry) { r.add(\"a.lib\", 1); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t(r: &Registry) { r.add(\"a.test\", 1); }\n\
                   }\n";
        let ff = parse(src);
        assert!(!ff.emitted[0].in_test);
        assert!(ff.emitted[1].in_test);
    }

    #[test]
    fn schema_literals_exact_matches_only() {
        let src = "let a = \"pvs-bench/profile-v2\";\n\
                   let b = \"pvs-bench/profile-v2 with suffix\";\n\
                   let c = \"pvs-bench/profile-v99\";\n\
                   // a comment mentioning \"pvs-bench/profile-v2\"\n";
        let ff = parse(src);
        assert_eq!(ff.schema_lits.len(), 1, "{:?}", ff.schema_lits);
        assert_eq!(ff.schema_lits[0].line, 1);
        assert_eq!(ff.schema_lits[0].id, "pvs-bench/profile-v2");
    }

    #[test]
    fn wildcard_counter_grammar() {
        assert!(is_counter_name("pool.worker.*.tasks", true));
        assert!(!is_counter_name("pool.worker.*.tasks", false));
        for ok in ["a.b", "engine.loop.cycles", "pool.worker.0.tasks", "net_sim.x9"] {
            assert!(is_counter_name(ok, false), "{ok}");
        }
        for bad in ["flops", "Engine.phases", "a..b", ".a", "a.", "a b.c", "net-sim.x", ""] {
            assert!(!is_counter_name(bad, true), "{bad}");
        }
        assert_eq!(
            template_to_pattern("chaos.{}.mpisim.{name}").as_deref(),
            Some("chaos.*.mpisim.*")
        );
        assert_eq!(template_to_pattern("not dotted {x}"), None);
    }
}
