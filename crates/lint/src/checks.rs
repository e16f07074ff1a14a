//! The five invariant lints, implemented over the token stream.

use crate::config::{
    self, FileKind, DETERMINISM_ALLOWLIST, DETERMINISM_CRATE_DIRS, FORBID_EXEMPT_ROOTS,
    PANIC_CRATE_DIRS, UNSAFE_ALLOWLIST,
};
use crate::lexer::{LineIndex, Token, TokenKind};
use crate::report::{Finding, Lint};

/// Per-file analysis state shared by every check.
pub struct FileCheck<'a> {
    rel: &'a str,
    kind: FileKind,
    toks: &'a [Token],
    index: &'a LineIndex,
    /// Brace depth *before* each token takes effect.
    depth: Vec<u32>,
    /// Token-index ranges covered by `#[cfg(test)]` / `#[test]` items.
    test_extents: Vec<(usize, usize)>,
}

impl<'a> FileCheck<'a> {
    #[must_use]
    pub fn new(rel: &'a str, kind: FileKind, toks: &'a [Token], index: &'a LineIndex) -> Self {
        let mut depth = Vec::with_capacity(toks.len());
        let mut d = 0u32;
        for t in toks {
            depth.push(d);
            match t.kind {
                TokenKind::Punct('{') => d += 1,
                TokenKind::Punct('}') => d = d.saturating_sub(1),
                _ => {}
            }
        }
        let test_extents = find_test_extents(toks);
        FileCheck {
            rel,
            kind,
            toks,
            index,
            depth,
            test_extents,
        }
    }

    fn ident(&self, i: usize) -> Option<&str> {
        match self.toks.get(i)?.kind {
            TokenKind::Ident(ref s) => Some(s),
            _ => None,
        }
    }

    fn punct(&self, i: usize, c: char) -> bool {
        matches!(self.toks.get(i), Some(t) if t.kind == TokenKind::Punct(c))
    }

    fn in_test(&self, i: usize) -> bool {
        self.test_extents.iter().any(|&(a, b)| i >= a && i <= b)
    }

    /// `true` when the contiguous comment/attribute block directly above
    /// `line` (or a trailing comment on `line` itself) contains `needle`.
    fn comment_above_contains(&self, line: u32, needle: &str) -> bool {
        if let Some(c) = self.index.comment(line) {
            if c.contains(needle) {
                return true;
            }
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            if self.index.is_comment_only(l) {
                if self.index.comment(l).is_some_and(|c| c.contains(needle)) {
                    return true;
                }
                l -= 1;
            } else if self.is_attr_line(l) {
                l -= 1;
            } else {
                break;
            }
        }
        false
    }

    /// A line whose first token is `#` (an attribute) — transparent when
    /// looking upward for a justifying comment.
    fn is_attr_line(&self, line: u32) -> bool {
        if !self.index.has_code(line) {
            return false;
        }
        self.toks
            .iter()
            .find(|t| t.line == line)
            .is_some_and(|t| t.kind == TokenKind::Punct('#'))
    }

    /// Run every lint applicable to this file.
    #[must_use]
    pub fn run(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        self.check_unsafe(&mut out);
        if self.kind == FileKind::Library {
            self.check_panic(&mut out);
            self.check_determinism(&mut out);
            self.check_locks(&mut out);
            self.check_error_hygiene(&mut out);
        }
        out
    }

    fn finding(&self, line: u32, lint: Lint, message: String) -> Finding {
        Finding {
            file: self.rel.to_string(),
            line,
            lint,
            message,
        }
    }

    // ---- lint 1: unsafe-audit ------------------------------------------

    fn check_unsafe(&self, out: &mut Vec<Finding>) {
        let allowlisted = UNSAFE_ALLOWLIST.contains(&self.rel);
        for (i, t) in self.toks.iter().enumerate() {
            if self.ident(i) != Some("unsafe") {
                continue;
            }
            if !allowlisted {
                out.push(self.finding(
                    t.line,
                    Lint::UnsafeAudit,
                    format!(
                        "`unsafe` outside the sanctioned mmap substrate \
                         (allowed only in {})",
                        UNSAFE_ALLOWLIST.join(", ")
                    ),
                ));
                continue;
            }
            if !self.comment_above_contains(t.line, "SAFETY:") {
                out.push(self.finding(
                    t.line,
                    Lint::UnsafeAudit,
                    "`unsafe` without an immediately preceding `// SAFETY:` comment".to_string(),
                ));
            }
        }
        if config::is_crate_root(self.rel) && !FORBID_EXEMPT_ROOTS.contains(&self.rel) {
            let has_forbid = self.toks.windows(8).any(|w| {
                matches!(&w[0].kind, TokenKind::Punct('#'))
                    && matches!(&w[1].kind, TokenKind::Punct('!'))
                    && matches!(&w[2].kind, TokenKind::Punct('['))
                    && matches!(&w[3].kind, TokenKind::Ident(s) if s == "forbid")
                    && matches!(&w[4].kind, TokenKind::Punct('('))
                    && matches!(&w[5].kind, TokenKind::Ident(s) if s == "unsafe_code")
                    && matches!(&w[6].kind, TokenKind::Punct(')'))
                    && matches!(&w[7].kind, TokenKind::Punct(']'))
            });
            if !has_forbid {
                out.push(
                    self.finding(
                        1,
                        Lint::UnsafeAudit,
                        "crate root is missing `#![forbid(unsafe_code)]` \
                     (only tt-trace may hold unsafe code)"
                            .to_string(),
                    ),
                );
            }
        }
    }

    // ---- lint 2: panic-path --------------------------------------------

    fn check_panic(&self, out: &mut Vec<Finding>) {
        if !config::under_any(self.rel, PANIC_CRATE_DIRS) {
            return;
        }
        for (i, t) in self.toks.iter().enumerate() {
            if self.in_test(i) {
                continue;
            }
            let Some(id) = self.ident(i) else { continue };
            let method_call = i > 0 && self.punct(i - 1, '.') && self.punct(i + 1, '(');
            let bang_macro = self.punct(i + 1, '!');
            let hit = match id {
                "unwrap" | "expect" if method_call => format!("`.{id}()`"),
                "panic" | "unreachable" | "todo" | "unimplemented" if bang_macro => {
                    format!("`{id}!`")
                }
                _ => continue,
            };
            out.push(self.finding(
                t.line,
                Lint::PanicPath,
                format!(
                    "{hit} in non-test library code — return a contextual \
                     error instead (or waive with `// lint:allow(panic) -- <reason>`)"
                ),
            ));
        }
    }

    // ---- lint 3: determinism -------------------------------------------

    fn check_determinism(&self, out: &mut Vec<Finding>) {
        if !config::under_any(self.rel, DETERMINISM_CRATE_DIRS)
            || DETERMINISM_ALLOWLIST.contains(&self.rel)
        {
            return;
        }
        for (i, t) in self.toks.iter().enumerate() {
            if self.in_test(i) {
                continue;
            }
            let Some(id) = self.ident(i) else { continue };
            let qualified_now = (id == "Instant" || id == "SystemTime")
                && self.punct(i + 1, ':')
                && self.punct(i + 2, ':')
                && self.ident(i + 3) == Some("now");
            if qualified_now {
                out.push(self.finding(
                    t.line,
                    Lint::Determinism,
                    format!(
                        "`{id}::now` reads the ambient clock in an \
                         output-affecting crate — outputs must be a pure \
                         function of inputs and seeds"
                    ),
                ));
            } else if id == "RandomState" {
                out.push(
                    self.finding(
                        t.line,
                        Lint::Determinism,
                        "`RandomState` seeds hash iteration order randomly in an \
                     output-affecting crate — use a deterministic order \
                     (sorted keys or BTreeMap)"
                            .to_string(),
                    ),
                );
            }
        }
    }

    // ---- lint 4: lock-discipline ---------------------------------------

    fn check_locks(&self, out: &mut Vec<Finding>) {
        const RISKY_METHODS: &[&str] = &[
            "send",
            "try_send",
            "recv",
            "try_recv",
            "recv_timeout",
            "write_all",
            "flush",
            "sync_all",
            "sync_data",
            "read_exact",
            "read_to_end",
            "read_to_string",
        ];
        for i in 0..self.toks.len() {
            // A guard acquisition: `.lock()`, or the zero-argument RwLock
            // accessors `.read()` / `.write()` (the I/O methods of the same
            // names always take arguments).
            let is_acquire = i > 0
                && self.punct(i - 1, '.')
                && matches!(self.ident(i), Some("lock" | "read" | "write"))
                && self.punct(i + 1, '(')
                && self.punct(i + 2, ')');
            if !is_acquire || self.in_test(i) {
                continue;
            }
            // Only a `let`-bound guard outlives its statement.
            let stmt_start = (0..i)
                .rev()
                .find(|&j| {
                    matches!(
                        self.toks[j].kind,
                        TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}')
                    )
                })
                .map_or(0, |j| j + 1);
            let let_idx = (stmt_start..i).find(|&j| self.ident(j) == Some("let"));
            let Some(let_idx) = let_idx else { continue };
            // Guard name: the last plain identifier of the binding pattern
            // (covers `let g`, `let mut g`, `let Ok(g)`).
            let eq_idx = (let_idx..i).find(|&j| self.punct(j, '=')).unwrap_or(i);
            let guard = (let_idx + 1..eq_idx)
                .rev()
                .find_map(|j| self.ident(j).filter(|s| !matches!(*s, "mut" | "ref")))
                .unwrap_or("_guard");
            let guard_line = self.toks[i].line;
            let block_depth = self.depth[let_idx];
            // The guard is live from the acquisition to the end of the
            // enclosing block, or an explicit `drop(guard)`.
            let mut k = i + 1;
            while k < self.toks.len() {
                if matches!(self.toks[k].kind, TokenKind::Punct('}'))
                    && self.depth[k] <= block_depth
                {
                    break;
                }
                if self.ident(k) == Some("drop")
                    && self.punct(k + 1, '(')
                    && self.ident(k + 2) == Some(guard)
                {
                    break;
                }
                let risky_method = self.punct(k.wrapping_sub(1), '.')
                    && self.ident(k).is_some_and(|id| RISKY_METHODS.contains(&id))
                    && self.punct(k + 1, '(');
                let risky_path = matches!(self.ident(k), Some("File" | "fs"))
                    && self.punct(k + 1, ':')
                    && self.punct(k + 2, ':');
                if risky_method || risky_path {
                    let what = self.ident(k).unwrap_or("call");
                    out.push(self.finding(
                        self.toks[k].line,
                        Lint::LockDiscipline,
                        format!(
                            "lock guard `{guard}` (acquired on line {guard_line}) is \
                             still live across `{what}` — a blocking channel or I/O \
                             call under a lock is the workspace's deadlock shape; \
                             drop the guard first"
                        ),
                    ));
                    break; // one finding per guard
                }
                k += 1;
            }
        }
    }

    // ---- lint 5: error-hygiene -----------------------------------------

    fn check_error_hygiene(&self, out: &mut Vec<Finding>) {
        for (i, t) in self.toks.iter().enumerate() {
            if self.in_test(i) {
                continue;
            }
            let TokenKind::Str(ref s) = t.kind else {
                continue;
            };
            if s.contains('{') {
                continue; // interpolates something
            }
            // Case-sensitive on purpose: uppercase `FILE`/`PATH` in usage
            // strings are metavariables, not references to a real path.
            if !word_in(s, "file") && !word_in(s, "path") && !word_in(s, "directory") {
                continue;
            }
            // Only in error-construction position: Err(...), format!(...)
            // feeding an error, or SomethingError::Variant(...).
            let ctx = i.saturating_sub(8)..i;
            let in_error_position = ctx.clone().any(|j| {
                self.ident(j).is_some_and(|id| {
                    id == "Err"
                        || id.ends_with("Error")
                        || (id == "format" && self.punct(j + 1, '!'))
                })
            });
            if in_error_position {
                out.push(self.finding(
                    t.line,
                    Lint::ErrorHygiene,
                    format!(
                        "error message {s:?} mentions a file/path but interpolates \
                         nothing — include the offending path in the message"
                    ),
                ));
            }
        }
    }
}

/// `needle` appears in `hay` bounded by non-alphanumeric characters (so
/// "profile" does not count as "file").
fn word_in(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric());
        let after = at + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric());
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Token-index extents of `#[cfg(test)]`-gated items and `#[test]` fns.
fn find_test_extents(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut extents = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let is_hash = matches!(toks[i].kind, TokenKind::Punct('#'));
        if !is_hash || !matches!(toks.get(i + 1), Some(t) if t.kind == TokenKind::Punct('[')) {
            i += 1;
            continue;
        }
        // Find the matching `]`, tracking nesting.
        let mut j = i + 2;
        let mut brackets = 1i32;
        let mut attr_idents: Vec<&str> = Vec::new();
        let mut gating_test = false;
        while j < toks.len() && brackets > 0 {
            match &toks[j].kind {
                TokenKind::Punct('[') => brackets += 1,
                TokenKind::Punct(']') => brackets -= 1,
                TokenKind::Ident(s) => {
                    // `test` gates the item unless negated: `cfg(not(test))`
                    // is production-only code and must stay fully linted.
                    if s == "test" {
                        let negated = j >= 2
                            && matches!(&toks[j - 1].kind, TokenKind::Punct('('))
                            && matches!(&toks[j - 2].kind, TokenKind::Ident(p) if p == "not");
                        gating_test |= !negated;
                    }
                    attr_idents.push(s);
                }
                _ => {}
            }
            j += 1;
        }
        let is_test_attr = attr_idents.first() == Some(&"test")
            || attr_idents.first() == Some(&"bench")
            || (attr_idents.contains(&"cfg") && gating_test);
        if !is_test_attr {
            i = j;
            continue;
        }
        // Extent: through the gated item — to the matching `}` of its
        // first block, or to a `;` if the item has no body.
        let mut k = j;
        let mut open = None;
        while k < toks.len() {
            match toks[k].kind {
                TokenKind::Punct('{') => {
                    open = Some(k);
                    break;
                }
                TokenKind::Punct(';') => break,
                _ => {}
            }
            k += 1;
        }
        let end = if let Some(open_idx) = open {
            let mut depth = 0i32;
            let mut e = open_idx;
            while e < toks.len() {
                match toks[e].kind {
                    TokenKind::Punct('{') => depth += 1,
                    TokenKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                e += 1;
            }
            e
        } else {
            k
        };
        extents.push((i, end));
        i = j; // attributes can stack; keep scanning inside the item too
    }
    extents
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rel: &str, kind: FileKind, src: &str) -> Vec<Finding> {
        let (toks, index) = lex(src);
        FileCheck::new(rel, kind, &toks, &index).run()
    }

    #[test]
    fn unsafe_outside_allowlist_is_flagged() {
        let f = run(
            "crates/sim/src/replay.rs",
            FileKind::Library,
            "pub fn f() { unsafe { std::hint::unreachable_unchecked() } }",
        );
        assert!(f.iter().any(|x| x.lint == Lint::UnsafeAudit));
    }

    #[test]
    fn safety_comment_satisfies_the_audit() {
        let src = "// SAFETY: checked above.\nlet x = unsafe { *p };\n";
        let f = run("crates/trace/src/mmap.rs", FileKind::Library, src);
        assert!(f.iter().all(|x| x.lint != Lint::UnsafeAudit));
        let bad = "let x = unsafe { *p };\n";
        let f = run("crates/trace/src/mmap.rs", FileKind::Library, bad);
        assert!(f.iter().any(|x| x.lint == Lint::UnsafeAudit));
    }

    #[test]
    fn panic_paths_flagged_outside_tests_only() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests { fn g() { panic!(\"fine\"); } }\n";
        let f = run("crates/sim/src/replay.rs", FileKind::Library, src);
        assert_eq!(
            f.iter().filter(|x| x.lint == Lint::PanicPath).count(),
            1,
            "{f:?}"
        );
    }

    #[test]
    fn determinism_flags_clocks_in_core_not_serve() {
        let src = "pub fn f() { let t = Instant::now(); }";
        let f = run("crates/core/src/lib.rs", FileKind::Library, src);
        assert!(f.iter().any(|x| x.lint == Lint::Determinism));
        let f = run("crates/serve/src/http.rs", FileKind::Library, src);
        assert!(f.iter().all(|x| x.lint != Lint::Determinism));
    }

    #[test]
    fn lock_guard_across_send_is_flagged_and_drop_clears_it() {
        let bad = "fn f() { let g = m.lock().unwrap_or_default(); tx.send(1).ok(); }";
        let f = run("crates/par/src/lib.rs", FileKind::Library, bad);
        assert!(f.iter().any(|x| x.lint == Lint::LockDiscipline), "{f:?}");
        let good = "fn f() { let g = m.lock().unwrap_or_default(); drop(g); tx.send(1).ok(); }";
        let f = run("crates/par/src/lib.rs", FileKind::Library, good);
        assert!(f.iter().all(|x| x.lint != Lint::LockDiscipline));
    }

    #[test]
    fn error_hygiene_wants_the_path_interpolated() {
        let bad = r#"fn f() -> Result<(), String> { Err(format!("cannot open file")) }"#;
        let f = run("crates/cli/src/io.rs", FileKind::Library, bad);
        assert!(f.iter().any(|x| x.lint == Lint::ErrorHygiene));
        let good =
            r#"fn f(p: &str) -> Result<(), String> { Err(format!("cannot open file {p}")) }"#;
        let f = run("crates/cli/src/io.rs", FileKind::Library, good);
        assert!(f.iter().all(|x| x.lint != Lint::ErrorHygiene));
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let f = run("crates/sim/src/replay.rs", FileKind::Library, src);
        assert!(
            f.iter().any(|x| x.lint == Lint::PanicPath),
            "cfg(not(test)) code is production code: {f:?}"
        );
    }

    #[test]
    fn uppercase_metavariables_are_not_paths() {
        let src = r#"fn f() -> Result<(), String> { Err("usage: convert IN FILE".to_string()) }"#;
        let f = run("crates/cli/src/io.rs", FileKind::Library, src);
        assert!(f.iter().all(|x| x.lint != Lint::ErrorHygiene), "{f:?}");
    }

    #[test]
    fn word_boundaries_protect_profile() {
        assert!(word_in("bad file here", "file"));
        assert!(!word_in("workload profile", "file"));
        assert!(word_in("path: missing", "path"));
        assert!(!word_in("datapath", "path"));
    }
}
