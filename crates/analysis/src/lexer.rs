//! The token-blanking lexer behind `np audit`.
//!
//! Every audit rule works on *blanked* source: comments, string literals
//! and char literals become spaces (newlines survive, so line numbers
//! stay aligned), and `#[cfg(test)]` modules are marked exempt. Lexing
//! once per file means no two rules can disagree about what counts as
//! code — a prose `.unwrap()` is invisible to every rule, byte for byte.

/// One source file, lexed once and shared by every rule.
#[derive(Debug, Clone)]
pub struct Lexed {
    /// Original lines (comments intact — allow markers live here).
    pub raw_lines: Vec<String>,
    /// Blanked lines (code only; same line count and column widths).
    pub code_lines: Vec<String>,
    /// Per line: true when the line sits inside a `#[cfg(test)]` module.
    pub in_test: Vec<bool>,
}

impl Lexed {
    /// Lexes `source`: blanks non-code and marks test modules.
    pub fn new(source: &str) -> Lexed {
        let blanked = blank_non_code(source);
        let in_test = test_module_lines(&blanked);
        Lexed {
            raw_lines: source.lines().map(str::to_string).collect(),
            code_lines: blanked.lines().map(str::to_string).collect(),
            in_test,
        }
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.code_lines.len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.code_lines.is_empty()
    }

    /// The blanked line at `idx`, or "" past the end.
    pub fn code(&self, idx: usize) -> &str {
        self.code_lines.get(idx).map_or("", |s| s.as_str())
    }

    /// The raw line at `idx`, or "" past the end.
    pub fn raw(&self, idx: usize) -> &str {
        self.raw_lines.get(idx).map_or("", |s| s.as_str())
    }

    /// Whether line `idx` is test code (exempt from every rule).
    pub fn is_test(&self, idx: usize) -> bool {
        self.in_test.get(idx).copied().unwrap_or(false)
    }
}

/// Blanks comments, string literals, and char literals so token scans only
/// see code. Handles nested block comments, escapes, and raw strings
/// (`r"…"`, `r#"…"#`, …). Every non-code byte becomes a space; newlines
/// survive so line numbers stay aligned.
pub fn blank_non_code(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = vec![b' '; b.len()];
    let mut i = 0;
    let n = b.len();
    while i < n {
        let c = b[i];
        if c == b'\n' {
            out[i] = b'\n';
            i += 1;
        } else if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            // Line comment: blank to end of line.
            while i < n && b[i] != b'\n' {
                i += 1;
            }
        } else if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            // Block comment, possibly nested.
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == b'\n' {
                    out[i] = b'\n';
                }
                if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                    depth -= 1;
                    if i + 1 < n && b[i + 1] == b'\n' {
                        out[i + 1] = b'\n';
                    }
                    i += 2;
                } else {
                    i += 1;
                }
            }
        } else if c == b'r' && i + 1 < n && (b[i + 1] == b'"' || b[i + 1] == b'#') {
            // Possible raw string r"…" / r#"…"#.
            let mut j = i + 1;
            let mut hashes = 0;
            while j < n && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < n && b[j] == b'"' {
                out[i] = b'r'; // keep the sigil so identifiers stay intact
                i = j + 1;
                'raw: while i < n {
                    if b[i] == b'\n' {
                        out[i] = b'\n';
                    }
                    if b[i] == b'"' {
                        let mut k = i + 1;
                        let mut seen = 0;
                        while k < n && seen < hashes && b[k] == b'#' {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            i = k;
                            break 'raw;
                        }
                    }
                    i += 1;
                }
            } else {
                out[i] = c;
                i += 1;
            }
        } else if c == b'"' {
            // Regular string literal with escapes.
            i += 1;
            while i < n {
                if b[i] == b'\n' {
                    out[i] = b'\n';
                    i += 1;
                } else if b[i] == b'\\' {
                    i += 2;
                } else if b[i] == b'"' {
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
        } else if c == b'\'' {
            // Char literal vs lifetime: 'x' or '\n' is a literal; 'a in
            // `&'a str` is a lifetime and keeps only the quote blanked.
            if i + 1 < n && b[i + 1] == b'\\' {
                i += 2;
                while i < n && b[i] != b'\'' {
                    i += 1;
                }
                i += 1;
            } else if i + 2 < n && b[i + 2] == b'\'' {
                i += 3;
            } else {
                i += 1;
            }
        } else {
            out[i] = c;
            i += 1;
        }
    }
    // Blanking never produces non-UTF8: multi-byte characters only occur
    // inside comments and literals, which become ASCII spaces.
    String::from_utf8(out).unwrap_or_default()
}

/// Marks lines inside `#[cfg(test)] mod … { … }` blocks. Returns one bool
/// per line (true = test code, exempt from rules).
pub fn test_module_lines(blanked: &str) -> Vec<bool> {
    let lines: Vec<&str> = blanked.lines().collect();
    let mut in_test = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].contains("#[cfg(test)]") {
            // Find the module opening within the next few lines.
            let mut j = i;
            while j < lines.len() && !lines[j].contains('{') {
                j += 1;
            }
            if j < lines.len() {
                let mut depth: i64 = 0;
                let mut k = j;
                loop {
                    for ch in lines[k].chars() {
                        match ch {
                            '{' => depth += 1,
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    in_test[k] = true;
                    if depth <= 0 || k + 1 == lines.len() {
                        break;
                    }
                    k += 1;
                }
                for flag in in_test.iter_mut().take(j + 1).skip(i) {
                    *flag = true;
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    in_test
}

/// Whether `raw_line` carries an allow marker for `rule`:
/// `// audit:allow(<rule>): why`.
pub fn marker_allows(raw_line: &str, rule: &str) -> bool {
    const NEEDLE: &str = "audit:allow(";
    raw_line
        .find(NEEDLE)
        .is_some_and(|p| raw_line[p + NEEDLE.len()..].starts_with(rule))
}

/// Per-line brace depth *at line start*, relative to the first line given
/// (starting depth 0). Used by rules that need enclosing-scope context —
/// "is this `wait` inside a `loop`", "where does this fn body end".
pub fn brace_depths(code_lines: &[&str]) -> Vec<i64> {
    let mut depths = Vec::with_capacity(code_lines.len());
    let mut depth: i64 = 0;
    for line in code_lines {
        depths.push(depth);
        for ch in line.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
    }
    depths
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanking_preserves_line_structure() {
        let src = "let a = \"x.unwrap()\"; // .expect(\nlet b = 1;\n";
        let blanked = blank_non_code(src);
        assert_eq!(blanked.lines().count(), src.lines().count());
        assert!(!blanked.contains("unwrap"));
        assert!(!blanked.contains("expect"));
        assert!(blanked.contains("let b = 1;"));
    }

    #[test]
    fn nested_comments_and_raw_strings_blank() {
        let src = "/* a /* b */ c */ code\nr#\"panic!\"# more\n";
        let blanked = blank_non_code(src);
        assert!(blanked.contains("code"));
        assert!(blanked.contains("more"));
        assert!(!blanked.contains("panic"));
    }

    #[test]
    fn lexed_marks_test_modules() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let lx = Lexed::new(src);
        assert!(!lx.is_test(0));
        assert!(lx.is_test(1) && lx.is_test(2) && lx.is_test(3) && lx.is_test(4));
        assert_eq!(lx.len(), 5);
        assert!(!lx.is_empty());
    }

    #[test]
    fn markers_are_rule_scoped() {
        let line = "x.unwrap() // audit:allow(no-panic-reachable): startup";
        assert!(marker_allows(line, "no-panic-reachable"));
        assert!(!marker_allows(line, "lock-order"));
        assert!(!marker_allows(
            "x.unwrap() // no-panic-reachable",
            "no-panic-reachable"
        ));
    }

    #[test]
    fn brace_depths_track_scope() {
        let lines = ["fn f() {", "    if x {", "        y();", "    }", "}"];
        assert_eq!(brace_depths(&lines), vec![0, 1, 2, 2, 1]);
    }
}
