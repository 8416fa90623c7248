//! Per-rule fixtures for `np audit`: for every rule, one reproducer the
//! rule must flag and one near-miss it must stay silent on. The
//! near-misses pin the refinements that keep the token-level scan
//! useful — predicate loops, guard-passing helpers, paired orderings,
//! `SAFETY:` comments, test-module exemptions — so a future "simplify
//! the rule" change that reintroduces false positives fails here first.

use np_analysis::{audit_sources, Baseline};

fn audit(files: &[(&str, &str)]) -> np_analysis::AuditReport {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    audit_sources(&owned, &Baseline::empty())
}

fn rules_fired(report: &np_analysis::AuditReport) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = report.unsuppressed().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

/// `(rule, line)` of every unsuppressed finding, in report order.
fn findings(report: &np_analysis::AuditReport) -> Vec<(&'static str, usize)> {
    report.unsuppressed().map(|f| (f.rule, f.line)).collect()
}

// ---------------------------------------------------------------- lock-order

#[test]
fn lock_order_flags_opposite_acquisition_orders() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn ab(s: &S) {\n",
            "    let a = s.alpha.lock();\n",
            "    let b = s.beta.lock();\n",
            "    drop(b);\n",
            "    drop(a);\n",
            "}\n",
            "fn ba(s: &S) {\n",
            "    let b = s.beta.lock();\n",
            "    let a = s.alpha.lock();\n",
            "    drop(a);\n",
            "    drop(b);\n",
            "}\n",
        ),
    )]);
    assert_eq!(
        rules_fired(&report),
        vec!["lock-order"],
        "{}",
        report.render()
    );
    let f = report.unsuppressed().next().unwrap();
    assert!(f.message.contains("s.alpha"), "{}", f.message);
    assert!(f.message.contains("s.beta"), "{}", f.message);
}

#[test]
fn lock_order_flags_a_cycle_through_a_callee() {
    // `ab` holds alpha and calls `lock_beta` (one hop); `ba` nests the
    // other way directly. The cycle only exists through the call edge.
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn ab(s: &S) {\n",
            "    let a = s.alpha.lock();\n",
            "    lock_beta(s);\n",
            "    drop(a);\n",
            "}\n",
            "fn lock_beta(s: &S) {\n",
            "    let b = s.beta.lock();\n",
            "    drop(b);\n",
            "}\n",
            "fn ba(s: &S) {\n",
            "    let b = s.beta.lock();\n",
            "    let a = s.alpha.lock();\n",
            "    drop(a);\n",
            "    drop(b);\n",
            "}\n",
        ),
    )]);
    assert_eq!(
        rules_fired(&report),
        vec!["lock-order"],
        "{}",
        report.render()
    );
}

#[test]
fn lock_order_ignores_consistent_order_and_temporary_guards() {
    // Same order twice: no cycle. And a temporary (non-let-bound) guard
    // drops at the semicolon, so it cannot be held across the second
    // acquisition.
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn one(s: &S) {\n",
            "    let a = s.alpha.lock();\n",
            "    let b = s.beta.lock();\n",
            "    drop(b);\n",
            "    drop(a);\n",
            "}\n",
            "fn two(s: &S) {\n",
            "    let a = s.alpha.lock();\n",
            "    let b = s.beta.lock();\n",
            "    drop(b);\n",
            "    drop(a);\n",
            "}\n",
            "fn temporary(s: &S) {\n",
            "    s.beta.lock();\n",
            "    let a = s.alpha.lock();\n",
            "    drop(a);\n",
            "}\n",
        ),
    )]);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn lock_order_does_not_alias_same_field_across_crates() {
    // `self.inner` in two crates is two different mutexes; without
    // crate-qualified labels this would fabricate a cycle.
    let report = audit(&[
        (
            "crates/a/src/lib.rs",
            concat!(
                "fn f(s: &S) {\n",
                "    let a = s.inner.lock();\n",
                "    let b = s.outer.lock();\n",
                "    drop(b);\n",
                "    drop(a);\n",
                "}\n",
            ),
        ),
        (
            "crates/b/src/lib.rs",
            concat!(
                "fn g(s: &S) {\n",
                "    let b = s.outer.lock();\n",
                "    let a = s.inner.lock();\n",
                "    drop(a);\n",
                "    drop(b);\n",
                "}\n",
            ),
        ),
    ]);
    assert!(report.is_clean(), "{}", report.render());
}

// ------------------------------------------------------- condvar-discipline

#[test]
fn condvar_flags_bare_wait_outside_a_loop() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn wait_once(cv: &std::sync::Condvar, g: std::sync::MutexGuard<bool>) {\n",
            "    let _g = cv.wait(g);\n",
            "}\n",
        ),
    )]);
    assert_eq!(
        rules_fired(&report),
        vec!["condvar-discipline"],
        "{}",
        report.render()
    );
    assert!(report
        .unsuppressed()
        .next()
        .unwrap()
        .message
        .contains("predicate loop"));
}

#[test]
fn condvar_accepts_wait_in_a_predicate_loop_and_wait_while() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn wait_looped(cv: &std::sync::Condvar, m: &std::sync::Mutex<bool>) {\n",
            "    let mut g = m.lock().unwrap_or_else(|p| p.into_inner());\n",
            "    while !*g {\n",
            "        g = cv.wait(g).unwrap_or_else(|p| p.into_inner());\n",
            "    }\n",
            "}\n",
            "fn wait_predicated(cv: &std::sync::Condvar, m: &std::sync::Mutex<bool>) {\n",
            "    let g = m.lock().unwrap_or_else(|p| p.into_inner());\n",
            "    let _g = cv.wait_while(g, |ready| !*ready);\n",
            "}\n",
            "fn barrier_wait(b: &std::sync::Barrier) {\n",
            "    b.wait();\n",
            "}\n",
        ),
    )]);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn condvar_flags_notify_without_the_lock() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn poke(cv: &std::sync::Condvar) {\n",
            "    cv.notify_one();\n",
            "}\n",
        ),
    )]);
    assert_eq!(
        rules_fired(&report),
        vec!["condvar-discipline"],
        "{}",
        report.render()
    );
    assert!(report
        .unsuppressed()
        .next()
        .unwrap()
        .message
        .contains("miss the wakeup"));
}

#[test]
fn condvar_accepts_notify_under_the_lock_or_with_a_guard_parameter() {
    // Two proofs of acquisition: an explicit `.lock()` earlier in the
    // fn, or a `MutexGuard` parameter (the helper can only be called
    // with the lock held — the signature is the proof).
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn poke_locked(cv: &std::sync::Condvar, m: &std::sync::Mutex<bool>) {\n",
            "    let mut g = m.lock().unwrap_or_else(|p| p.into_inner());\n",
            "    *g = true;\n",
            "    drop(g);\n",
            "    cv.notify_one();\n",
            "}\n",
            "fn poke_guarded(cv: &std::sync::Condvar, _g: &std::sync::MutexGuard<bool>) {\n",
            "    cv.notify_all();\n",
            "}\n",
        ),
    )]);
    assert!(report.is_clean(), "{}", report.render());
}

// --------------------------------------------------------- atomics-ordering

#[test]
fn atomics_flags_relaxed_outside_telemetry() {
    let src = concat!(
        "use std::sync::atomic::{AtomicU64, Ordering};\n",
        "fn bump(c: &AtomicU64) {\n",
        "    c.fetch_add(1, Ordering::Relaxed);\n",
        "}\n",
    );
    let report = audit(&[("crates/a/src/lib.rs", src)]);
    assert_eq!(
        rules_fired(&report),
        vec!["atomics-ordering"],
        "{}",
        report.render()
    );
    // The same line inside the telemetry facade is the sanctioned home
    // for Relaxed counters.
    let report = audit(&[("crates/telemetry/src/counter.rs", src)]);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn atomics_flags_one_sided_acquire() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "use std::sync::atomic::{AtomicBool, Ordering};\n",
            "fn check(flag: &AtomicBool) -> bool {\n",
            "    flag.load(Ordering::Acquire)\n",
            "}\n",
        ),
    )]);
    assert_eq!(
        rules_fired(&report),
        vec!["atomics-ordering"],
        "{}",
        report.render()
    );
    assert!(report
        .unsuppressed()
        .next()
        .unwrap()
        .message
        .contains("no Release store"));
}

#[test]
fn atomics_accepts_paired_or_stronger_orderings() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "use std::sync::atomic::{AtomicBool, Ordering};\n",
            "fn check(flag: &AtomicBool) -> bool {\n",
            "    flag.load(Ordering::Acquire)\n",
            "}\n",
            "fn publish(flag: &AtomicBool) {\n",
            "    flag.store(true, Ordering::Release);\n",
            "}\n",
            "fn reset(other: &AtomicBool) {\n",
            "    other.store(false, Ordering::SeqCst);\n",
            "    other.load(Ordering::Acquire);\n",
            "}\n",
        ),
    )]);
    assert!(report.is_clean(), "{}", report.render());
}

// --------------------------------------------------------- hot-path-hygiene

#[test]
fn hot_path_flags_allocation_locking_and_io_in_marked_fns() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "// audit:hot — per-access inner loop\n",
            "fn hot_alloc(xs: &[u32]) -> Vec<u32> {\n",
            "    xs.iter().map(|x| x + 1).collect()\n",
            "}\n",
            "// audit:hot\n",
            "fn hot_lock(m: &std::sync::Mutex<u64>) -> u64 {\n",
            "    *m.lock().unwrap_or_else(|p| p.into_inner())\n",
            "}\n",
            "// audit:hot\n",
            "fn hot_io(x: u64) {\n",
            "    println!(\"{x}\");\n",
            "}\n",
        ),
    )]);
    let hot: Vec<_> = report
        .unsuppressed()
        .filter(|f| f.rule == "hot-path-hygiene")
        .collect();
    assert_eq!(hot.len(), 3, "{}", report.render());
    assert!(hot[0].message.contains("allocates"));
    assert!(hot[1].message.contains("locks/blocks"));
    assert!(hot[2].message.contains("does IO"));
}

#[test]
fn hot_path_ignores_unmarked_fns_and_clean_hot_fns() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn cold_alloc(xs: &[u32]) -> Vec<u32> {\n",
            "    xs.iter().map(|x| x + 1).collect()\n",
            "}\n",
            "// audit:hot\n",
            "fn hot_clean(a: u64, b: u64) -> u64 {\n",
            "    a.wrapping_mul(31).wrapping_add(b)\n",
            "}\n",
        ),
    )]);
    assert!(report.is_clean(), "{}", report.render());
}

// ------------------------------------------------------------ unsafe-safety

#[test]
fn unsafe_without_safety_comment_is_flagged_and_inventoried() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn launder(x: u32) -> u32 {\n",
            "    unsafe { std::mem::transmute::<u32, u32>(x) }\n",
            "}\n",
        ),
    )]);
    assert_eq!(
        rules_fired(&report),
        vec!["unsafe-safety"],
        "{}",
        report.render()
    );
    assert_eq!(report.unsafe_sites.len(), 1);
    assert!(report.unsafe_sites[0].justification.is_none());
    assert!(report.inventory_markdown().contains("**MISSING**"));
}

#[test]
fn unsafe_with_safety_comment_passes_but_stays_in_the_inventory() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn launder(x: u32) -> u32 {\n",
            "    // SAFETY: u32 -> u32 is the identity transmute.\n",
            "    unsafe { std::mem::transmute::<u32, u32>(x) }\n",
            "}\n",
        ),
    )]);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(
        report.unsafe_sites.len(),
        1,
        "justified sites still inventoried"
    );
    assert_eq!(
        report.unsafe_sites[0].justification.as_deref(),
        Some("u32 -> u32 is the identity transmute.")
    );
    assert!(!report.inventory_markdown().contains("MISSING"));
}

#[test]
fn unsafe_in_test_modules_is_exempt() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn prod() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() {\n",
            "        unsafe { std::hint::unreachable_unchecked() }\n",
            "    }\n",
            "}\n",
        ),
    )]);
    assert!(report.is_clean(), "{}", report.render());
    assert!(
        report.unsafe_sites.is_empty(),
        "test unsafe stays out of the inventory"
    );
}

// ------------------------------------------------------- no-panic-reachable

#[test]
fn panic_reachable_flags_unwrap_behind_an_entry_point() {
    // `handle` lives in the serve crate (an entry prefix) and calls
    // `render` — unique across the workspace, so the edge resolves —
    // whose `.unwrap()` is one hop from live traffic.
    let report = audit(&[
        (
            "crates/serve/src/lib.rs",
            "pub fn handle(req: u32) -> String { render(req) }\n",
        ),
        (
            "crates/util/src/lib.rs",
            concat!(
                "pub fn render(req: u32) -> String {\n",
                "    checked(req).unwrap()\n",
                "}\n",
                "fn checked(req: u32) -> Option<String> {\n",
                "    Some(req.to_string())\n",
                "}\n",
            ),
        ),
    ]);
    let f = report
        .unsuppressed()
        .find(|f| f.rule == "no-panic-reachable")
        .unwrap_or_else(|| panic!("expected a finding:\n{}", report.render()));
    assert_eq!(f.path, "crates/util/src/lib.rs");
    assert!(
        f.message.contains("reachable in 1 call(s)"),
        "{}",
        f.message
    );
    assert!(f.message.contains("`handle`"), "{}", f.message);
}

#[test]
fn panic_reachable_flags_panics_in_entry_files_themselves() {
    // Every non-test line of an entry file is in scope at depth 0, fn
    // body or not.
    let report = audit(&[(
        "crates/serve/src/lib.rs",
        concat!(
            "pub fn handle(req: u32) -> u32 { req.checked_add(1).unwrap() }\n",
            "static LIMIT: u32 = match 1u32.checked_add(1) { Some(v) => v, None => panic!() };\n",
        ),
    )]);
    assert_eq!(
        findings(&report),
        vec![("no-panic-reachable", 1), ("no-panic-reachable", 2)],
        "{}",
        report.render()
    );
    assert!(report
        .unsuppressed()
        .all(|f| f.message.contains("entry file")));
}

#[test]
fn panic_reachable_ignores_uncalled_helpers() {
    let report = audit(&[(
        // Unreachable from any entry fn: nobody calls it.
        "crates/util/src/lib.rs",
        "pub fn orphan(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )]);
    assert!(
        !report
            .unsuppressed()
            .any(|f| f.rule == "no-panic-reachable"),
        "{}",
        report.render()
    );
}

// ------------------------------------------------------------- line rules

/// Golden fixture: one file tripping four rules at pinned lines, with a
/// prose `.unwrap()` and a test-module `.unwrap()` that must stay
/// silent. It pins the blanking lexer too: a change in how comments,
/// strings or test modules blank shows up here as a diff instead of as
/// silently changed findings.
#[test]
fn golden_line_findings_are_pinned() {
    let serve_src = concat!(
        "use std::net::TcpStream;\n",                                     // 1
        "use std::sync::atomic::{AtomicU64, Ordering};\n",                // 2
        "pub fn handle(x: Option<u32>) -> u32 {\n",                       // 3
        "    x.unwrap()\n",                                               // 4: no-panic-reachable
        "}\n",                                                            // 5
        "pub fn slurp(s: &mut TcpStream, buf: &mut [u8]) {\n",            // 6
        "    let _ = s.read(buf);\n",                                     // 7: bounded-reads
        "}\n",                                                            // 8
        "pub fn bump(c: &AtomicU64) {\n",                                 // 9
        "    c.fetch_add(1, Ordering::Relaxed);\n",                       // 10: atomics-ordering
        "}\n",                                                            // 11
        "pub fn observe() {\n",                                           // 12
        "    np_telemetry::global().counter(\"x\").inc();\n",             // 13: guarded-telemetry
        "}\n",                                                            // 14
        "// Comments and strings stay blank: .unwrap() here is prose.\n", // 15
        "#[cfg(test)]\n",                                                 // 16
        "mod tests {\n",                                                  // 17
        "    #[test]\n",                                                  // 18
        "    fn t() { Some(1).unwrap(); }\n",                             // 19: exempt
        "}\n",                                                            // 20
    );
    let report = audit(&[("crates/serve/src/handler.rs", serve_src)]);
    assert_eq!(
        findings(&report),
        vec![
            ("no-panic-reachable", 4),
            ("bounded-reads", 7),
            ("atomics-ordering", 10),
            ("guarded-telemetry", 13),
        ]
    );

    let pool_src = "pub fn tick() -> std::time::Instant { std::time::Instant::now() }\n";
    let report = audit(&[("crates/parallel/src/pool.rs", pool_src)]);
    assert_eq!(findings(&report), vec![("no-wall-clock", 1)]);
}

/// One file audited alone: its path decides the rule scopes, and its
/// findings must be exactly the expected `(rule, line)`, if any.
type Case = (&'static str, &'static str, Option<(&'static str, usize)>);

#[test]
fn line_rule_scopes_are_pinned() {
    const UNWRAP: &str = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    const EXEMPT: &str = concat!(
        "// calling .unwrap() here would be bad\n",
        "fn f() -> &'static str { \"never .unwrap() in prose\" }\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    #[test]\n",
        "    fn t() { Some(1).unwrap(); }\n",
        "}\n",
    );
    const TCP: &str = concat!(
        "use std::net::TcpStream;\n",
        "fn f(s: &mut TcpStream, buf: &mut [u8]) {\n",
        "    let _ = s.read(buf);\n",
        "}\n",
    );
    const TCP_ONE_LINE: &str = concat!(
        "use std::net::TcpStream;\n",
        "fn f(s: &mut TcpStream, buf: &mut [u8]) { let _ = s.read(buf); }\n",
    );
    const RELAXED: &str = "fn f(a: &std::sync::atomic::AtomicU64) { a.load(Ordering::Relaxed); }\n";
    const RELAXED_STATIC: &str =
        "static LOAD: fn(&AtomicU64) -> u64 = |a| a.load(Ordering::Relaxed);\n";
    const TELEMETRY_BAD: &str = concat!(
        "fn record() {\n",
        "    np_telemetry::global().counter(\"x\").add(1);\n",
        "}\n",
    );
    const TELEMETRY_GOOD: &str = concat!(
        "fn record() {\n",
        "    if np_telemetry::enabled() {\n",
        "        np_telemetry::global().counter(\"x\").add(1);\n",
        "    }\n",
        "}\n",
    );
    const GUARD_IN_OTHER_FN: &str = concat!(
        "fn guarded() {\n",
        "    if np_telemetry::enabled() {}\n",
        "}\n",
        "fn record() {\n",
        "    np_telemetry::global().counter(\"x\").add(1);\n",
        "}\n",
    );
    const SAMPLE_BAD: &str = concat!(
        "fn record(now: u64) {\n",
        "    np_telemetry::timeseries::sample(\"acq.reps\", now, 1);\n",
        "}\n",
    );
    const SAMPLE_GOOD: &str = concat!(
        "fn record(now: u64) {\n",
        "    if np_telemetry::sampling_enabled() {\n",
        "        np_telemetry::sample_cumulative(\"x\", now, 1);\n",
        "    }\n",
        "}\n",
    );
    const UNGUARDED_SNAPSHOT: &str = "fn f() { np_telemetry::global().snapshot(); }\n";
    const INSTANT: &str = "fn f() { let _t = std::time::Instant::now(); }\n";
    const SYSTEM_TIME: &str = "fn f() { let _t = std::time::SystemTime::now(); }\n";
    const ALLOWED: &str = "fn f(x: Option<u32>) -> u32 { x.unwrap() } \
                           // audit:allow(no-panic-reachable): startup only\n";
    const ALLOWED_OTHER: &str =
        "fn f(x: Option<u32>) -> u32 { x.unwrap() } // audit:allow(bounded-reads)\n";
    const NESTED_BLANKING: &str = concat!(
        "/* outer /* inner .unwrap() */ still comment .expect( */\n",
        "fn f() -> String { String::from(r#\"panic! \"quoted\" .unwrap()\"#) }\n",
        "fn g(x: Option<u8>) -> u8 { x.unwrap() }\n",
    );

    const PANIC: &str = "no-panic-reachable";
    const ATOMICS: &str = "atomics-ordering";
    const READS: &str = "bounded-reads";
    const GUARD: &str = "guarded-telemetry";
    const CLOCK: &str = "no-wall-clock";
    let cases: &[Case] = &[
        // Panic tokens: only the entry files, tests and prose exempt.
        (
            "crates/counters/src/acquisition.rs",
            UNWRAP,
            Some((PANIC, 1)),
        ),
        ("crates/counters/src/catalog.rs", UNWRAP, None),
        ("crates/resilience/src/io.rs", EXEMPT, None),
        (
            "crates/counters/src/pebs.rs",
            NESTED_BLANKING,
            Some((PANIC, 3)),
        ),
        ("crates/serve/src/server.rs", UNWRAP, Some((PANIC, 1))),
        ("crates/serve/src/cache.rs", UNWRAP, Some((PANIC, 1))),
        // Inline waivers name one rule.
        ("crates/counters/src/pebs.rs", ALLOWED, None),
        (
            "crates/counters/src/pebs.rs",
            ALLOWED_OTHER,
            Some((PANIC, 1)),
        ),
        // Raw socket reads, except in the bounded reader itself.
        ("crates/core/src/session.rs", TCP, Some((READS, 3))),
        ("crates/resilience/src/io.rs", TCP, None),
        ("crates/serve/src/client.rs", TCP_ONE_LINE, Some((READS, 2))),
        // Relaxed is a telemetry-internal liberty.
        ("crates/telemetry/src/registry.rs", RELAXED, None),
        ("crates/core/src/runner.rs", RELAXED, Some((ATOMICS, 1))),
        (
            "crates/core/src/runner.rs",
            RELAXED_STATIC,
            Some((ATOMICS, 1)),
        ),
        // Telemetry and sampling need an enabled() guard outside the
        // telemetry crate (the bench harness included).
        ("crates/core/src/runner.rs", TELEMETRY_BAD, Some((GUARD, 2))),
        ("crates/core/src/runner.rs", TELEMETRY_GOOD, None),
        ("crates/telemetry/src/snapshot.rs", TELEMETRY_BAD, None),
        // The guard search stops at the enclosing fn's header.
        (
            "crates/core/src/runner.rs",
            GUARD_IN_OTHER_FN,
            Some((GUARD, 5)),
        ),
        (
            "crates/counters/src/acquisition.rs",
            SAMPLE_BAD,
            Some((GUARD, 2)),
        ),
        ("crates/counters/src/acquisition.rs", SAMPLE_GOOD, None),
        (
            "crates/bench/src/harness/runner.rs",
            SAMPLE_BAD,
            Some((GUARD, 2)),
        ),
        ("crates/telemetry/src/timeseries.rs", SAMPLE_BAD, None),
        (
            "crates/patterns/src/verify.rs",
            UNGUARDED_SNAPSHOT,
            Some((GUARD, 1)),
        ),
        // Wall clocks: forbidden in the deterministic paths only.
        ("crates/numa-sim/src/engine.rs", INSTANT, Some((CLOCK, 1))),
        ("crates/resilience/src/retry.rs", INSTANT, None),
        (
            "crates/telemetry/src/timeseries.rs",
            INSTANT,
            Some((CLOCK, 1)),
        ),
        ("src/cli/top.rs", INSTANT, Some((CLOCK, 1))),
        (
            "crates/bench/src/harness/runner.rs",
            INSTANT,
            Some((CLOCK, 1)),
        ),
        (
            "crates/bench/src/harness/schema.rs",
            INSTANT,
            Some((CLOCK, 1)),
        ),
        ("src/cli/commands.rs", INSTANT, None),
        ("crates/telemetry/src/trace.rs", INSTANT, None),
        ("crates/bench/src/lib.rs", INSTANT, None),
        ("crates/patterns/src/classify.rs", INSTANT, Some((CLOCK, 1))),
        ("crates/patterns/src/verify.rs", INSTANT, Some((CLOCK, 1))),
        ("crates/patterns/src/metrics.rs", INSTANT, Some((CLOCK, 1))),
        ("crates/patterns/tests/calibration.rs", INSTANT, None),
        ("crates/parallel/src/pool.rs", SYSTEM_TIME, Some((CLOCK, 1))),
        (
            "crates/parallel/src/queue.rs",
            SYSTEM_TIME,
            Some((CLOCK, 1)),
        ),
        ("crates/parallel/tests/pool_stress.rs", SYSTEM_TIME, None),
    ];
    for (path, src, want) in cases {
        let report = audit(&[(path, src)]);
        assert!(report.findings.iter().all(|f| f.path == *path));
        let want: Vec<_> = want.iter().copied().collect();
        assert_eq!(findings(&report), want, "{path}:\n{}", report.render());
    }
}

// ------------------------------------------------------------ cross-cutting

#[test]
fn findings_sort_deterministically_across_rules() {
    // One tree tripping three rules at once: output order is pinned to
    // (path, line, rule, message), so two runs render identically.
    let files = [
        (
            "crates/a/src/lib.rs",
            concat!(
                "use std::sync::atomic::{AtomicU64, Ordering};\n",
                "fn bump(c: &AtomicU64) {\n",
                "    c.fetch_add(1, Ordering::Relaxed);\n",
                "}\n",
                "fn launder(x: u32) -> u32 {\n",
                "    unsafe { std::mem::transmute::<u32, u32>(x) }\n",
                "}\n",
            ),
        ),
        (
            "crates/b/src/lib.rs",
            "fn poke(cv: &std::sync::Condvar) { cv.notify_one(); }\n",
        ),
    ];
    let a = audit(&files);
    let b = audit(&files);
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.render(), b.render());
    let rules: Vec<_> = a.unsuppressed().map(|f| (f.path.clone(), f.rule)).collect();
    assert_eq!(
        rules,
        vec![
            ("crates/a/src/lib.rs".to_string(), "atomics-ordering"),
            ("crates/a/src/lib.rs".to_string(), "unsafe-safety"),
            ("crates/b/src/lib.rs".to_string(), "condvar-discipline"),
        ]
    );
}
