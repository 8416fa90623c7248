//! The nine audit rules.
//!
//! Each rule is a pure function of the [`WorkspaceIndex`] (and, for
//! reachability, the [`CallGraph`]) pushing [`AuditFinding`]s. The rules
//! target the invariants the bench harness and the measurement stack
//! rely on: no lock-order inversions, condvar discipline (the wakeup-
//! storm shape), explicit atomics orderings, allocation/locking-free hot
//! paths, justified unsafe, panic-free call trees under the probe /
//! serve / acquisition entry points, bounded socket reads, guarded
//! telemetry, and no wall clocks in deterministic code.

use super::callgraph::{CallGraph, FnId};
use super::index::{FileIndex, FnItem, WorkspaceIndex};
use super::AuditFinding;
use std::collections::{BTreeMap, BTreeSet};

/// Rule identifiers with their one-line SARIF descriptions.
pub const RULES: &[(&str, &str)] = &[
    (
        "lock-order",
        "Lock-acquisition-order cycle: two lock labels are acquired in opposite orders somewhere in the workspace (deadlock risk).",
    ),
    (
        "condvar-discipline",
        "Condvar wait outside a predicate loop, or notify without holding the guarded lock (lost/spurious wakeup risk).",
    ),
    (
        "atomics-ordering",
        "Relaxed ordering outside crates/telemetry, or an Acquire/Release one-sided pairing on an atomic.",
    ),
    (
        "hot-path-hygiene",
        "Allocation, locking or IO inside a fn annotated `// audit:hot` (chunk execution and simulator inner loops).",
    ),
    (
        "unsafe-safety",
        "`unsafe` without a `// SAFETY:` justification in the preceding lines; all sites land in the committed inventory.",
    ),
    (
        "no-panic-reachable",
        "unwrap/expect/panic in a server/probe/acquisition entry file, or reachable from one through the approximate call graph.",
    ),
    (
        "bounded-reads",
        "Raw socket read in a file that touches TcpStream; go through np_resilience::io::read_line_bounded.",
    ),
    (
        "guarded-telemetry",
        "np_telemetry::global() call outside crates/telemetry without an enabled() guard in the enclosing fn.",
    ),
    (
        "no-wall-clock",
        "Instant::now()/SystemTime::now() in a deterministic path (simulator, fault plan, pool, sampler, np top, bench harness, pattern classifier).",
    ),
];

/// Tokens that panic when reached.
pub const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Files whose non-test code must be panic-free and whose fns are the
/// panic-reachability roots, by exact path: they sit under the
/// fault-injection and acquisition loops, where a panic aborts a whole
/// measurement campaign instead of surfacing a typed error…
pub const ENTRY_FILES: &[&str] = &[
    "crates/core/src/memhist/probe.rs",
    "crates/resilience/src/io.rs",
    "crates/counters/src/acquisition.rs",
    "crates/counters/src/pebs.rs",
];

/// …and by prefix: the whole serve crate answers live traffic, and a
/// panic on its request path kills a pool worker and silently drops
/// every connection it would have served.
pub const ENTRY_PREFIXES: &[&str] = &["crates/serve/src/"];

/// Call-graph traversal bound for `no-panic-reachable`: beyond a few hops
/// the name-matched graph accumulates too many false edges to stay
/// signal.
pub const REACH_DEPTH: usize = 4;

fn is_entry_file(path: &str) -> bool {
    ENTRY_FILES.contains(&path) || ENTRY_PREFIXES.iter().any(|p| path.starts_with(p))
}

/// Extracts the dotted receiver path ending right before byte `dot` (the
/// `.` of `.lock(`): `self.state.lock()` → `self.state`.
fn receiver_before(code: &str, dot: usize) -> String {
    let bytes = code.as_bytes();
    let mut j = dot;
    while j > 0 {
        let c = bytes[j - 1];
        if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b':' {
            j -= 1;
        } else {
            break;
        }
    }
    let recv = code[j..dot].trim_matches('.');
    if recv.is_empty() {
        "<expr>".to_string()
    } else {
        recv.to_string()
    }
}

/// Lock-acquisition sites on one blanked line: `(column, label)` per
/// `.lock()` (always) and `.read()` / `.write()` (only when the file
/// mentions `RwLock` — bare `.read(buf)` is IO, not locking).
fn lock_sites_on_line(code: &str, rwlock_file: bool) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut pats: Vec<&str> = vec![".lock()"];
    if rwlock_file {
        pats.push(".read()");
        pats.push(".write()");
    }
    for pat in pats {
        let mut from = 0;
        while let Some(p) = code[from..].find(pat) {
            let at = from + p;
            out.push((at, receiver_before(code, at)));
            from = at + pat.len();
        }
    }
    out.sort();
    out
}

/// Whether a blanked line acquires a mutex (used by the notify check and
/// hot-path hygiene): covers guard-returning helpers the workspace uses
/// for poison recovery.
fn line_acquires_lock(code: &str, rwlock_file: bool) -> bool {
    code.contains(".lock(")
        || code.contains(".locked(")
        || code.contains("lock_unpoisoned(")
        || (rwlock_file && (code.contains(".read()") || code.contains(".write()")))
}

/// One lock-order edge witness.
#[derive(Debug, Clone)]
struct EdgeWitness {
    path: String,
    line: usize,
    via: String,
}

/// Rule 1: build the workspace lock-order graph and report cycles.
///
/// An edge `A → B` means somewhere a guard of `A` is still plausibly held
/// when `B` is acquired: either both acquisitions are in one fn with the
/// earlier one `let`-bound (temporary guards drop at the semicolon), or
/// the fn holds `A` and calls — one hop — a fn that acquires `B`. Labels
/// are receiver paths (`self.state`, `shard`); identical labels never
/// form an edge, because a re-acquisition loop (one shard at a time) is
/// indistinguishable from nesting at token level.
pub fn lock_order(ws: &WorkspaceIndex, graph: &CallGraph, findings: &mut Vec<AuditFinding>) {
    // label -> label -> first witness
    let mut edges: BTreeMap<String, BTreeMap<String, EdgeWitness>> = BTreeMap::new();
    let mut add = |a: &str, b: &str, w: EdgeWitness| {
        if a != b {
            edges
                .entry(a.to_string())
                .or_default()
                .entry(b.to_string())
                .or_insert(w);
        }
    };

    // Per fn: ordered (line, label, let_bound) acquisition events and the
    // labels acquired anywhere in the fn (for the one-hop extension).
    let mut fn_acquisitions: BTreeMap<FnId, Vec<(usize, String, bool)>> = BTreeMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        let rwlock_file = file.lexed.code_lines.iter().any(|l| l.contains("RwLock"));
        for (ki, f) in file.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let mut events = Vec::new();
            for line in f.start_line..=f.end_line.min(file.lexed.len().saturating_sub(1)) {
                let code = file.lexed.code(line);
                for (_, label) in lock_sites_on_line(code, rwlock_file) {
                    let let_bound = code.trim_start().starts_with("let ");
                    // Crate-qualified label: `self.inner` in two different
                    // crates is two different mutexes, and aliasing them
                    // fabricates cycles that cannot deadlock.
                    events.push((line, format!("{}::{label}", file.crate_key), let_bound));
                }
            }
            if !events.is_empty() {
                fn_acquisitions.insert((fi, ki), events);
            }
        }
    }

    for (&(fi, ki), events) in &fn_acquisitions {
        let file = &ws.files[fi];
        let f = &file.fns[ki];
        // Within-fn ordered pairs: earlier must be let-bound (held).
        for (i, (_, a, let_bound)) in events.iter().enumerate() {
            if !let_bound {
                continue;
            }
            for (line_b, b, _) in events.iter().skip(i + 1) {
                add(
                    a,
                    b,
                    EdgeWitness {
                        path: file.path.clone(),
                        line: line_b + 1,
                        via: f.name.clone(),
                    },
                );
            }
            // One-hop extension: any lock acquired by a callee while `a`
            // is held (callee labels are their own receivers).
            if let Some(outs) = graph.edges.get(&(fi, ki)) {
                for callee in outs {
                    if let Some(callee_events) = fn_acquisitions.get(callee) {
                        let (cfi, cki) = *callee;
                        for (cline, b, _) in callee_events {
                            add(
                                a,
                                b,
                                EdgeWitness {
                                    path: ws.files[cfi].path.clone(),
                                    line: cline + 1,
                                    via: format!("{} -> {}", f.name, ws.files[cfi].fns[cki].name),
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    // Cycle detection: report each strongly-connected component of size
    // >= 2 once, anchored at its lexicographically smallest witness.
    for scc in sccs(&edges) {
        if scc.len() < 2 {
            continue;
        }
        let mut witnesses: Vec<&EdgeWitness> = Vec::new();
        for a in &scc {
            if let Some(outs) = edges.get(a) {
                for (b, w) in outs {
                    if scc.contains(b) {
                        witnesses.push(w);
                    }
                }
            }
        }
        witnesses.sort_by(|x, y| (&x.path, x.line).cmp(&(&y.path, y.line)));
        let Some(first) = witnesses.first() else {
            continue;
        };
        let sites: Vec<String> = witnesses
            .iter()
            .map(|w| format!("{}:{} ({})", w.path, w.line, w.via))
            .collect();
        findings.push(AuditFinding {
            rule: "lock-order",
            path: first.path.clone(),
            line: first.line,
            message: format!(
                "lock-order cycle between {{{}}}; acquisition sites: {}",
                scc.join(", "),
                sites.join(", ")
            ),
        });
    }
}

/// Strongly-connected components over a string-labelled graph
/// (iterative Kosaraju; deterministic: nodes visited in sorted order).
/// Each returned component is sorted.
fn sccs(edges: &BTreeMap<String, BTreeMap<String, EdgeWitness>>) -> Vec<Vec<String>> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (a, outs) in edges {
        nodes.insert(a);
        for b in outs.keys() {
            nodes.insert(b);
        }
    }
    let succ = |n: &str| -> Vec<&str> {
        edges
            .get(n)
            .map(|m| m.keys().map(String::as_str).collect())
            .unwrap_or_default()
    };
    // Pass 1: finish order.
    let mut finished: Vec<&str> = Vec::new();
    let mut visited: BTreeSet<&str> = BTreeSet::new();
    for &start in &nodes {
        if visited.contains(start) {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        visited.insert(start);
        while let Some((n, i)) = stack.pop() {
            let outs = succ(n);
            if i < outs.len() {
                stack.push((n, i + 1));
                let next = outs[i];
                if !visited.contains(next) {
                    visited.insert(next);
                    stack.push((next, 0));
                }
            } else {
                finished.push(n);
            }
        }
    }
    // Reverse graph.
    let mut rev: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, outs) in edges {
        for b in outs.keys() {
            rev.entry(b).or_default().push(a);
        }
    }
    // Pass 2: assign components in reverse finish order.
    let mut comp: BTreeMap<&str, usize> = BTreeMap::new();
    let mut comps: Vec<Vec<String>> = Vec::new();
    for &n in finished.iter().rev() {
        if comp.contains_key(n) {
            continue;
        }
        let id = comps.len();
        let mut members = Vec::new();
        let mut stack = vec![n];
        comp.insert(n, id);
        while let Some(m) = stack.pop() {
            members.push(m.to_string());
            for &p in rev.get(m).map(|v| v.as_slice()).unwrap_or(&[]) {
                if !comp.contains_key(p) {
                    comp.insert(p, id);
                    stack.push(p);
                }
            }
        }
        members.sort();
        comps.push(members);
    }
    comps
}

/// Rule 2: condvar discipline.
pub fn condvar(ws: &WorkspaceIndex, findings: &mut Vec<AuditFinding>) {
    for file in &ws.files {
        let rwlock_file = file.lexed.code_lines.iter().any(|l| l.contains("RwLock"));
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            let body_end = f.end_line.min(file.lexed.len().saturating_sub(1));
            // Guard-passing: a helper that takes a `MutexGuard` parameter
            // can only be called with the lock held — its signature is the
            // proof of acquisition.
            let takes_guard = (f.start_line..=body_end.min(f.start_line + 3))
                .take_while(|&k| {
                    k == f.start_line || !file.lexed.code(k.saturating_sub(1)).contains('{')
                })
                .any(|k| file.lexed.code(k).contains("MutexGuard"));
            for line in f.start_line..=body_end {
                let code = file.lexed.code(line);
                // `wait_while` / `wait_timeout_while` ARE the predicate
                // loop; bare `wait` / `wait_timeout` need an enclosing
                // loop re-checking the predicate. A condvar wait always
                // takes the guard as an argument — argument-less `.wait()`
                // is `Barrier::wait`, which is not a condvar at all.
                let bare_wait = ((code.contains(".wait(") && !code.contains(".wait()"))
                    || code.contains(".wait_timeout("))
                    && !code.contains("_while(");
                if bare_wait && !inside_loop(file, f, line) {
                    findings.push(AuditFinding {
                        rule: "condvar-discipline",
                        path: file.path.clone(),
                        line: line + 1,
                        message: format!(
                            "condvar wait in `{}` outside a predicate loop; spurious wakeups make \
                             a bare wait return early — re-check the predicate in a loop/while",
                            f.name
                        ),
                    });
                }
                if code.contains(".notify_one(") || code.contains(".notify_all(") {
                    let guarded = takes_guard
                        || (f.start_line..=line)
                            .any(|k| line_acquires_lock(file.lexed.code(k), rwlock_file));
                    if !guarded {
                        findings.push(AuditFinding {
                            rule: "condvar-discipline",
                            path: file.path.clone(),
                            line: line + 1,
                            message: format!(
                                "notify in `{}` without acquiring the guarded mutex first; a \
                                 waiter can miss the wakeup between its predicate check and its \
                                 wait",
                                f.name
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Whether `line` (inside `f`'s body) sits under a `loop`/`while` header
/// at a strictly shallower brace depth within the fn.
fn inside_loop(file: &FileIndex, f: &FnItem, line: usize) -> bool {
    let d = file.depths[line];
    let mut k = line;
    while k > f.start_line {
        k -= 1;
        if file.depths[k] < d {
            let code = file.lexed.code(k);
            if code.contains("loop") || contains_word(code, "while") {
                return true;
            }
            // Keep walking: an `if` or `match` at a shallower depth may
            // itself sit inside the loop.
        }
    }
    false
}

/// Word-boundary containment (so `while` does not match `meanwhile`).
fn contains_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(p) = code[from..].find(word) {
        let at = from + p;
        let before_ok =
            at == 0 || (!bytes[at - 1].is_ascii_alphanumeric() && bytes[at - 1] != b'_');
        let end = at + word.len();
        let after_ok =
            end >= bytes.len() || (!bytes[end].is_ascii_alphanumeric() && bytes[end] != b'_');
        if before_ok && after_ok {
            return true;
        }
        from = at + word.len();
    }
    false
}

/// Rule 3: atomics orderings.
pub fn atomics(ws: &WorkspaceIndex, findings: &mut Vec<AuditFinding>) {
    // (a) Relaxed stays a telemetry-internal liberty, on every non-test
    // line: statics and closures outside any fn body count too.
    for file in &ws.files {
        if file.path.starts_with("crates/telemetry/") {
            continue;
        }
        for (idx, code) in file.lexed.code_lines.iter().enumerate() {
            if !file.lexed.is_test(idx) && code.contains("Ordering::Relaxed") {
                findings.push(AuditFinding {
                    rule: "atomics-ordering",
                    path: file.path.clone(),
                    line: idx + 1,
                    message: "Ordering::Relaxed outside crates/telemetry; use SeqCst or move \
                              the atomic behind the telemetry facade"
                        .to_string(),
                });
            }
        }
    }

    // (b) Unpaired Acquire/Release on the same atomic label.
    #[derive(Default, Debug)]
    struct Sides {
        acquire: Option<(String, usize)>,
        release: Option<(String, usize)>,
        seqcst_or_acqrel: bool,
    }
    let mut by_label: BTreeMap<String, Sides> = BTreeMap::new();
    for file in &ws.files {
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            for line in f.start_line..=f.end_line.min(file.lexed.len().saturating_sub(1)) {
                let code = file.lexed.code(line);
                if !code.contains("Ordering::") {
                    continue;
                }
                let Some(label) = atomic_receiver(code) else {
                    continue;
                };
                let entry = by_label.entry(label).or_default();
                if code.contains("Ordering::Acquire") && entry.acquire.is_none() {
                    entry.acquire = Some((file.path.clone(), line + 1));
                }
                if code.contains("Ordering::Release") && entry.release.is_none() {
                    entry.release = Some((file.path.clone(), line + 1));
                }
                if code.contains("Ordering::SeqCst") || code.contains("Ordering::AcqRel") {
                    entry.seqcst_or_acqrel = true;
                }
            }
        }
    }
    for (label, sides) in &by_label {
        if sides.seqcst_or_acqrel {
            continue; // a stronger ordering on the label satisfies both sides
        }
        match (&sides.acquire, &sides.release) {
            (Some((path, line)), None) => findings.push(AuditFinding {
                rule: "atomics-ordering",
                path: path.clone(),
                line: *line,
                message: format!(
                    "Acquire on atomic `{label}` with no Release store anywhere in the \
                     workspace; the load synchronises with nothing"
                ),
            }),
            (None, Some((path, line))) => findings.push(AuditFinding {
                rule: "atomics-ordering",
                path: path.clone(),
                line: *line,
                message: format!(
                    "Release on atomic `{label}` with no Acquire load anywhere in the \
                     workspace; the store publishes to nobody"
                ),
            }),
            _ => {}
        }
    }
}

/// The atomic receiver on a line mentioning an explicit ordering:
/// the receiver of `.load(` / `.store(` / `.swap(` / `.fetch_*` /
/// `.compare_exchange*`, normalised to its final path segment.
fn atomic_receiver(code: &str) -> Option<String> {
    for pat in [
        ".load(",
        ".store(",
        ".swap(",
        ".fetch_add(",
        ".fetch_sub(",
        ".fetch_or(",
        ".fetch_and(",
        ".fetch_xor(",
        ".compare_exchange(",
        ".compare_exchange_weak(",
    ] {
        if let Some(at) = code.find(pat) {
            let recv = receiver_before(code, at);
            let last = recv.rsplit(['.', ':']).next().unwrap_or(&recv);
            return Some(last.to_string());
        }
    }
    None
}

/// Rule 4: hot-path hygiene inside `// audit:hot` fns.
pub fn hot_path(ws: &WorkspaceIndex, findings: &mut Vec<AuditFinding>) {
    const ALLOC: &[&str] = &[
        "vec![",
        "with_capacity(",
        "Box::new(",
        "String::from(",
        ".to_string(",
        ".to_vec(",
        ".to_owned(",
        "format!",
        ".collect(",
    ];
    const IO: &[&str] = &[
        "std::fs::",
        "File::open(",
        "File::create(",
        "TcpStream::",
        "TcpListener::",
        "println!",
        "eprintln!",
        ".flush(",
        "thread::sleep(",
        "read_to_string(",
    ];
    for file in &ws.files {
        let rwlock_file = file.lexed.code_lines.iter().any(|l| l.contains("RwLock"));
        for f in &file.fns {
            if !f.hot || f.is_test {
                continue;
            }
            for line in f.start_line..=f.end_line.min(file.lexed.len().saturating_sub(1)) {
                let code = file.lexed.code(line);
                let kind = if let Some(tok) = ALLOC.iter().find(|t| code.contains(**t)) {
                    Some(("allocates", *tok))
                } else if line_acquires_lock(code, rwlock_file) || code.contains(".wait(") {
                    Some(("locks/blocks", ".lock()"))
                } else {
                    IO.iter()
                        .find(|t| code.contains(**t))
                        .map(|t| ("does IO", *t))
                };
                if let Some((verb, tok)) = kind {
                    findings.push(AuditFinding {
                        rule: "hot-path-hygiene",
                        path: file.path.clone(),
                        line: line + 1,
                        message: format!(
                            "`{}` is marked audit:hot but {verb} here (`{tok}`); hoist it out \
                             of the inner loop or drop the marker",
                            f.name
                        ),
                    });
                }
            }
        }
    }
}

/// One unsafe site for the committed inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeSite {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the `unsafe` token.
    pub line: usize,
    /// The trimmed code line.
    pub context: String,
    /// The `// SAFETY:` justification, or `None` when missing.
    pub justification: Option<String>,
}

/// Rule 5: every `unsafe` needs a `// SAFETY:` justification within the
/// three preceding lines (or on the line itself). Returns the full site
/// inventory — justified or not — for the committed inventory file.
pub fn unsafe_safety(ws: &WorkspaceIndex, findings: &mut Vec<AuditFinding>) -> Vec<UnsafeSite> {
    let mut sites = Vec::new();
    for file in &ws.files {
        for (idx, code) in file.lexed.code_lines.iter().enumerate() {
            if !contains_word(code, "unsafe") || file.lexed.is_test(idx) {
                continue;
            }
            let justification = (idx.saturating_sub(3)..=idx)
                .rev()
                .filter_map(|k| {
                    let raw = file.lexed.raw(k);
                    raw.find("SAFETY:")
                        .map(|p| raw[p + "SAFETY:".len()..].trim().to_string())
                })
                .next();
            if justification.is_none() {
                findings.push(AuditFinding {
                    rule: "unsafe-safety",
                    path: file.path.clone(),
                    line: idx + 1,
                    message: "unsafe without a `// SAFETY:` justification in the three preceding \
                              lines; say why the invariants hold"
                        .to_string(),
                });
            }
            sites.push(UnsafeSite {
                path: file.path.clone(),
                line: idx + 1,
                context: file.lexed.raw(idx).trim().to_string(),
                justification,
            });
        }
    }
    sites
}

/// Rule 6: panic tokens on any non-test line of a server/probe/
/// acquisition entry file (depth 0), or in a fn reachable from one of
/// the entry files' fns through the call graph.
pub fn panic_reachable(ws: &WorkspaceIndex, graph: &CallGraph, findings: &mut Vec<AuditFinding>) {
    let mut roots: Vec<FnId> = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !is_entry_file(&file.path) {
            continue;
        }
        for (idx, code) in file.lexed.code_lines.iter().enumerate() {
            if file.lexed.is_test(idx) {
                continue;
            }
            for tok in PANIC_TOKENS {
                if code.contains(tok) {
                    findings.push(AuditFinding {
                        rule: "no-panic-reachable",
                        path: file.path.clone(),
                        line: idx + 1,
                        message: format!(
                            "`{tok}` in a server/probe/acquisition entry file; a panic here \
                             aborts the serving/measurement path — return a typed error instead"
                        ),
                    });
                }
            }
        }
        for (ki, f) in file.fns.iter().enumerate() {
            if !f.is_test {
                roots.push((fi, ki));
            }
        }
    }
    let reached = graph.reachable(&roots, REACH_DEPTH);
    let mut seen: BTreeSet<(String, usize, &str)> = BTreeSet::new();
    for (&(fi, ki), &(depth, root)) in &reached {
        let file = &ws.files[fi];
        // Entry files (every depth-0 root among them) were scanned whole.
        if is_entry_file(&file.path) {
            continue;
        }
        let f = &file.fns[ki];
        if f.is_test {
            continue;
        }
        let (rfi, rki) = root;
        let root_name = &ws.files[rfi].fns[rki].name;
        let root_path = &ws.files[rfi].path;
        for line in f.start_line..=f.end_line.min(file.lexed.len().saturating_sub(1)) {
            if file.lexed.is_test(line) {
                continue;
            }
            let code = file.lexed.code(line);
            for tok in PANIC_TOKENS {
                if code.contains(tok) && seen.insert((file.path.clone(), line, tok)) {
                    findings.push(AuditFinding {
                        rule: "no-panic-reachable",
                        path: file.path.clone(),
                        line: line + 1,
                        message: format!(
                            "`{tok}` in `{}` is reachable in {depth} call(s) from entry \
                             `{root_name}` ({root_path}); a panic here aborts the serving/\
                             measurement path — return a typed error instead",
                            f.name
                        ),
                    });
                }
            }
        }
    }
}

/// The one file allowed to call raw socket reads (it defines the bounded
/// line reader everything else must use).
const BOUNDED_READER_FILE: &str = "crates/resilience/src/io.rs";

/// Deterministic paths that must not observe wall clocks: the simulator
/// (seeded reproducibility), the fault plan (seeded schedules), the
/// worker pool (its merge order and traces must never branch on timing;
/// durations flow through `np_telemetry::now_ns` for reporting only),
/// the time-series sampler (captures are timestamped in simulated
/// cycles — a wall-clock read there would break byte-identical
/// captures), `np top` (its pacing comes from `thread::sleep` and
/// the tick counter; rates are deltas of simulated-cycle series), the
/// `np bench` matrix harness (its determinism contract says every
/// non-sample field is a pure function of config + seed + machine;
/// wall-time samples flow through `np_telemetry::now_ns` only), and the
/// np-patterns classifier (its `np-patterns/1` document promises
/// byte-identical verdicts at any thread count — nothing on the
/// classify path may branch on time).
fn wall_clock_forbidden(path: &str) -> bool {
    path.starts_with("crates/numa-sim/")
        || path.starts_with("crates/parallel/src/")
        || path.starts_with("crates/bench/src/harness/")
        || path.starts_with("crates/patterns/src/")
        || path == "crates/resilience/src/fault.rs"
        || path == "crates/telemetry/src/timeseries.rs"
        || path == "src/cli/top.rs"
}

/// Rules 7–9, the line-local rules, over every non-test line:
/// `bounded-reads` (raw socket reads in a file that touches
/// `TcpStream`), `guarded-telemetry` (facade or sampler calls outside
/// crates/telemetry need an `enabled(` check on the line or earlier in
/// the enclosing fn) and `no-wall-clock` (see [`wall_clock_forbidden`]).
pub fn line_rules(ws: &WorkspaceIndex, findings: &mut Vec<AuditFinding>) {
    for file in &ws.files {
        let path = file.path.as_str();
        let code_lines = &file.lexed.code_lines;
        let uses_tcp =
            path != BOUNDED_READER_FILE && code_lines.iter().any(|l| l.contains("TcpStream"));
        let in_telemetry = path.starts_with("crates/telemetry/");
        let no_wall_clock = wall_clock_forbidden(path);
        let mut report = |idx: usize, rule: &'static str, message: &str| {
            findings.push(AuditFinding {
                rule,
                path: file.path.clone(),
                line: idx + 1,
                message: message.to_string(),
            });
        };
        for (idx, code) in code_lines.iter().enumerate() {
            if file.lexed.is_test(idx) {
                continue;
            }

            if uses_tcp
                && (code.contains(".read(")
                    || code.contains("read_to_string(")
                    || code.contains("read_to_end("))
                && !code.contains("read_line_bounded")
            {
                report(
                    idx,
                    "bounded-reads",
                    "raw socket read; use np_resilience::io::read_line_bounded so a slow peer \
                     cannot wedge or balloon the client",
                );
            }

            // Hot-path telemetry: the metrics facade must be skipped when
            // observation is off. The guard may sit on the line or on any
            // line back to the nearest `fn` header.
            if !in_telemetry && code.contains("np_telemetry::global()") {
                let guarded = code.contains("enabled(")
                    || code_lines[..idx]
                        .iter()
                        .rev()
                        .find(|l| l.contains("enabled(") || l.contains("fn "))
                        .is_some_and(|l| l.contains("enabled("));
                if !guarded {
                    report(
                        idx,
                        "guarded-telemetry",
                        "telemetry without an enabled() guard in the enclosing fn; hot paths \
                         must skip disabled observation",
                    );
                }
            }

            if no_wall_clock
                && (code.contains("Instant::now()") || code.contains("SystemTime::now()"))
            {
                report(
                    idx,
                    "no-wall-clock",
                    "wall-clock read in a deterministic path; thread time through the seeded \
                     simulator clock",
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receiver_extraction() {
        let code = "        let g = self.state.lock().unwrap();";
        let at = code.find(".lock()").unwrap();
        assert_eq!(receiver_before(code, at), "self.state");
        assert_eq!(receiver_before(".lock()", 0), "<expr>");
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("while x {", "while"));
        assert!(!contains_word("meanwhile(x)", "while"));
        assert!(contains_word("unsafe {", "unsafe"));
        assert!(!contains_word("unsafely()", "unsafe"));
    }

    #[test]
    fn scc_finds_two_cycles() {
        let w = |p: &str| EdgeWitness {
            path: p.to_string(),
            line: 1,
            via: "f".to_string(),
        };
        let mut edges: BTreeMap<String, BTreeMap<String, EdgeWitness>> = BTreeMap::new();
        for (a, b) in [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"), ("a", "c")] {
            edges
                .entry(a.to_string())
                .or_default()
                .insert(b.to_string(), w("x.rs"));
        }
        let comps: Vec<Vec<String>> = sccs(&edges).into_iter().filter(|c| c.len() >= 2).collect();
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&vec!["a".to_string(), "b".to_string()]));
        assert!(comps.contains(&vec!["c".to_string(), "d".to_string()]));
    }
}
