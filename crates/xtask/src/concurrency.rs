//! The three concurrency audit passes: lock-order, atomic-ordering,
//! and condvar-discipline.
//!
//! The §5.2 session engine's correctness rests on hand-enforced
//! disciplines — the documented global lock order, the seqlock protocol
//! in the obs trace ring, predicate-loop condvar waits, and poison
//! escalation to the fail-stop degrade path — that TSan only probes as
//! deeply as a seeded run happens to interleave. These passes make the
//! disciplines machine-checked, lexically, on [`crate::scan`]'s cleaned
//! view (no `syn`: the build container is offline):
//!
//! * **lock-order** — every `Mutex`/`RwLock` acquisition statement in
//!   the concurrency crates is attributed to a lock *class* (shard state,
//!   txn-table slot, log queue, durable table, …) by substring patterns;
//!   guard liveness is tracked through `let` bindings, `if let` scopes,
//!   `Vec::push` accumulation, and `drop(...)`; an acquisition made
//!   while another class's guard is live adds an edge to the static lock
//!   graph. Any edge contradicting the documented global order, any
//!   same-class nesting (allowlistable when ascending by construction),
//!   any unattributed `.lock()`, and any cycle in the union graph is a
//!   finding. The graph is emitted as a DOT artifact for review.
//! * **atomic-ordering** — every `Ordering::Relaxed` in non-test engine
//!   code must carry an `// ordering:` justification comment (on the
//!   line, in the comment block above, or covering a contiguous run of
//!   relaxed lines), mirroring the panic-allowlist convention. Files
//!   declaring a seqlock version word (`version: AtomicU64`) additionally
//!   get the protocol check: publishes are `Release`, the claim CAS
//!   acquires and is followed by a `Release` fence before the data
//!   stores, and paired version reads are `Acquire` + `Acquire` fence.
//! * **condvar-discipline** — every `Condvar::wait`/`wait_timeout` must
//!   sit inside a predicate re-check loop, and no `lock()` result on a
//!   commit-critical path may be silently discarded with
//!   `if let Ok(..)`/`unwrap_or`/`.ok()`; recovering the guard with
//!   `PoisonError::into_inner` (so degradation still completes) is the
//!   sanctioned idiom and is exempt.

use crate::passes::{snippet, Finding};
use crate::scan::{statements, CleanLine, Statement};
use std::collections::BTreeMap;

/// One attribution pattern: a substring that marks a statement as an
/// acquisition of the named lock classes. `returns_guard` is true when
/// the matched expression evaluates to a guard a `let` can keep alive
/// (a raw `.lock()` or a guard-returning helper); helpers that acquire
/// and release internally (`Shared::append`, `TxnTable` methods) are
/// transient no matter how the caller binds their result.
pub(crate) struct LockPattern {
    pub pat: &'static str,
    pub classes: &'static [&'static str],
    pub returns_guard: bool,
}

/// The lock-order pass's configuration: the documented global order
/// (outermost first; rank = index) and the attribution table.
pub(crate) struct LockConfig {
    pub order: &'static [&'static str],
    pub patterns: &'static [LockPattern],
}

/// The engine's documented lock order (see `crates/session/src/shard.rs`
/// and `log_writer.rs` module docs), with the SQL catalog lock prepended as
/// the outermost class: the catalog mirror lock
/// (`crates/sql/src/catalog.rs`) may never be held across any engine
/// lock — its closure helpers make that structural — then the server's
/// admission gate (`crates/server/src/admission.rs`, released before
/// the admitted statement runs, so it is never held across engine
/// work), then the §5.3 checkpoint-sweeper state (held across a whole
/// sweep, which takes shard and queue locks underneath, never the
/// reverse) → shard state locks in ascending shard index → one
/// txn-table slot → the log queue → the durable table.
pub(crate) const ENGINE_LOCK_ORDER: [&str; 7] = [
    "catalog",
    "admission",
    "checkpoint",
    "shard",
    "txn_slot",
    "queue",
    "durable",
];

const G: bool = true; // returns a guard
const T: bool = false; // transient: acquires and releases internally

/// Attribution table for the engine crates. Direct `.lock()` receivers
/// and guard-returning helpers are `G`; helpers that take and drop locks
/// inside their own body are `T` (their bodies are analyzed where they
/// are defined — this entry only records what a *call* acquires).
const ENGINE_LOCK_PATTERNS: [LockPattern; 24] = [
    LockPattern {
        pat: "with_catalog_read(",
        classes: &["catalog"],
        returns_guard: T,
    },
    LockPattern {
        pat: ".gate.lock(",
        classes: &["admission"],
        returns_guard: G,
    },
    LockPattern {
        pat: ".checkpoint.lock(",
        classes: &["checkpoint"],
        returns_guard: G,
    },
    LockPattern {
        pat: "ck.lock()",
        classes: &["checkpoint"],
        returns_guard: G,
    },
    LockPattern {
        pat: "with_catalog_write(",
        classes: &["catalog"],
        returns_guard: T,
    },
    LockPattern {
        pat: ".state.lock(",
        classes: &["shard"],
        returns_guard: G,
    },
    LockPattern {
        pat: ".guard()",
        classes: &["shard"],
        returns_guard: G,
    },
    LockPattern {
        pat: ".lock_mask(",
        classes: &["shard"],
        returns_guard: G,
    },
    LockPattern {
        pat: "lock_key(",
        classes: &["shard"],
        returns_guard: G,
    },
    LockPattern {
        pat: "global_victims(",
        classes: &["shard"],
        returns_guard: T,
    },
    LockPattern {
        pat: ".queue.lock(",
        classes: &["queue"],
        returns_guard: G,
    },
    LockPattern {
        pat: "queue_guard(",
        classes: &["queue"],
        returns_guard: G,
    },
    LockPattern {
        pat: ".durable.lock(",
        classes: &["durable"],
        returns_guard: G,
    },
    LockPattern {
        pat: "durable_guard(",
        classes: &["durable"],
        returns_guard: G,
    },
    LockPattern {
        pat: "is_crashed(",
        classes: &["durable"],
        returns_guard: T,
    },
    LockPattern {
        pat: "wait_durable(",
        classes: &["queue", "durable"],
        returns_guard: T,
    },
    LockPattern {
        pat: "raise_demand(",
        classes: &["queue"],
        returns_guard: T,
    },
    LockPattern {
        pat: "next_page(",
        classes: &["queue", "durable"],
        returns_guard: T,
    },
    LockPattern {
        pat: ".slots.get(",
        classes: &["txn_slot"],
        returns_guard: G,
    },
    LockPattern {
        pat: "slot.lock(",
        classes: &["txn_slot"],
        returns_guard: G,
    },
    LockPattern {
        pat: ".txns.",
        classes: &["txn_slot"],
        returns_guard: T,
    },
    LockPattern {
        pat: ".append(",
        classes: &["queue", "durable"],
        returns_guard: T,
    },
    LockPattern {
        pat: ".inner.lock(",
        classes: &["registry"],
        returns_guard: G,
    },
    LockPattern {
        pat: "self.lock()",
        classes: &["registry"],
        returns_guard: G,
    },
];

/// The lock-order configuration the audit runs with.
pub(crate) fn engine_lock_config() -> LockConfig {
    LockConfig {
        order: &ENGINE_LOCK_ORDER,
        patterns: &ENGINE_LOCK_PATTERNS,
    }
}

/// One edge of the static lock graph: a `to`-class acquisition made
/// while a `from`-class guard was live, with the site that proved it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LockEdge {
    pub from: String,
    pub to: String,
    pub path: String,
    pub line: usize,
}

/// A live guard binding inside one function.
struct Guard {
    /// Binding name (`"<block>"` for `match`/anonymous scopes).
    name: String,
    classes: Vec<&'static str>,
    /// Dies when the running depth drops below this.
    scope: i32,
}

/// First identifier bound by a `let` pattern, skipping `mut` and the
/// `Ok`/`Some`/`Err` constructors (`let Ok(mut q) = …` binds `q`).
fn binding_name(text: &str) -> Option<String> {
    let rest = text.strip_prefix("let ")?;
    let pat = rest.split('=').next()?;
    pat.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .find(|t| !t.is_empty() && !matches!(*t, "mut" | "Ok" | "Some" | "Err"))
        .map(str::to_string)
}

/// The receiver identifier of the first `.push(` in a statement
/// (`guards.push(shard.guard()?)` → `guards`).
fn push_receiver(text: &str) -> Option<String> {
    let at = text.find(".push(")?;
    let head = &text[..at];
    let start = head
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map(|i| i + 1)
        .unwrap_or(0);
    let name = &head[start..];
    (!name.is_empty()).then(|| name.to_string())
}

/// Rank of a class in the declared order, if it has one.
fn rank(cfg: &LockConfig, class: &str) -> Option<usize> {
    cfg.order.iter().position(|c| *c == class)
}

/// The lock-order pass over one file: returns findings (order
/// violations, same-class nestings, unattributed locks) plus the edges
/// this file contributes to the workspace lock graph.
pub(crate) fn lock_order(
    path: &str,
    lines: &[CleanLine],
    raw: &[&str],
    cfg: &LockConfig,
) -> (Vec<Finding>, Vec<LockEdge>) {
    let mut findings = Vec::new();
    let mut edges = Vec::new();
    let mut live: Vec<Guard> = Vec::new();
    // Local `let`-declared collections, for scoping `.push(` bindings to
    // the declaration (the push usually sits deeper, inside a loop).
    let mut decls: Vec<(String, i32)> = Vec::new();

    let order_doc = cfg.order.join(" -> ");
    for st in statements(lines).iter().filter(|s| !s.in_test) {
        // Scope exit first: anything bound deeper than this statement's
        // lowest depth is dead before the statement's own effects.
        live.retain(|g| g.scope <= st.depth_min);
        decls.retain(|(_, d)| *d <= st.depth_min);

        // Explicit drops kill bindings by name.
        if let Some(dropped) = st
            .text
            .strip_prefix("drop(")
            .and_then(|r| r.split(')').next())
        {
            live.retain(|g| g.name != dropped);
        }

        let mut guard_classes: Vec<&'static str> = Vec::new();
        let mut transient_classes: Vec<&'static str> = Vec::new();
        for p in cfg.patterns {
            if st.text.contains(p.pat) {
                let dst = if p.returns_guard {
                    &mut guard_classes
                } else {
                    &mut transient_classes
                };
                for c in p.classes {
                    if !dst.contains(c) {
                        dst.push(c);
                    }
                }
            }
        }
        let acquired: Vec<&'static str> = guard_classes
            .iter()
            .chain(transient_classes.iter())
            .copied()
            .collect();

        if acquired.is_empty() {
            // A `.lock()` no pattern attributes means a new lock was
            // added without teaching the pass about it.
            if st.text.contains(".lock()") && !st.text.contains("cv.wait") {
                findings.push(Finding {
                    pass: "lock-order",
                    path: path.to_string(),
                    line: st.line,
                    what: "unattributed-lock".to_string(),
                    snippet: snippet(raw, st.line),
                });
            }
            if st.text.starts_with("let ") && st.text.contains("= Vec::") {
                if let Some(name) = binding_name(&st.text) {
                    decls.push((name, st.depth_start));
                }
            }
            continue;
        }

        // Edges from every live guard class to every acquired class.
        for g in &live {
            for held in &g.classes {
                for acq in &acquired {
                    if held == acq {
                        continue; // same-class handled below, once
                    }
                    edges.push(LockEdge {
                        from: held.to_string(),
                        to: acq.to_string(),
                        path: path.to_string(),
                        line: st.line,
                    });
                    if let (Some(rh), Some(ra)) = (rank(cfg, held), rank(cfg, acq)) {
                        if rh > ra {
                            findings.push(Finding {
                                pass: "lock-order",
                                path: path.to_string(),
                                line: st.line,
                                what: "order-violation".to_string(),
                                snippet: format!(
                                    "acquires `{acq}` while holding `{held}` \
                                     (documented order: {order_doc}) — {}",
                                    snippet(raw, st.line)
                                ),
                            });
                        }
                    }
                }
            }
        }
        for g in &live {
            for held in &g.classes {
                if acquired.contains(held) {
                    findings.push(same_class(path, raw, st.line, held));
                }
            }
        }

        // Binding: does this statement keep a guard alive?
        if !guard_classes.is_empty() {
            if let Some(receiver) = push_receiver(&st.text) {
                // Accumulating guards into a collection inside a loop is
                // same-class nesting (one finding per class, allowlisted
                // where the acquisition order is ascending by
                // construction); the collection stays live from its
                // declaration scope.
                for c in &guard_classes {
                    if !live
                        .iter()
                        .any(|g| g.name == receiver && g.classes.contains(c))
                    {
                        findings.push(same_class(path, raw, st.line, c));
                    }
                }
                let scope = decls
                    .iter()
                    .find(|(n, _)| *n == receiver)
                    .map(|(_, d)| *d)
                    .unwrap_or(st.depth_start);
                edges.push(LockEdge {
                    from: guard_classes[0].to_string(),
                    to: guard_classes[0].to_string(),
                    path: path.to_string(),
                    line: st.line,
                });
                if let Some(g) = live.iter_mut().find(|g| g.name == receiver) {
                    for c in &guard_classes {
                        if !g.classes.contains(c) {
                            g.classes.push(c);
                        }
                    }
                } else {
                    live.push(Guard {
                        name: receiver,
                        classes: guard_classes,
                        scope,
                    });
                }
            } else if st.text.starts_with("if let") || st.text.starts_with("while let") {
                live.push(Guard {
                    name: binding_name(
                        st.text
                            .trim_start_matches("if ")
                            .trim_start_matches("while "),
                    )
                    .unwrap_or_else(|| "<block>".to_string()),
                    classes: guard_classes,
                    scope: st.depth_end,
                });
            } else if st.text.starts_with("match ") && st.text.ends_with('{') {
                live.push(Guard {
                    name: "<block>".to_string(),
                    classes: guard_classes,
                    scope: st.depth_end,
                });
            } else if st.text.starts_with("let ") {
                // Plain `let` (and `let … else`, whose binding survives
                // the else block): scoped to the statement's own depth.
                live.push(Guard {
                    name: binding_name(&st.text).unwrap_or_else(|| "<binding>".to_string()),
                    classes: guard_classes,
                    scope: st.depth_start,
                });
            }
            // Any other shape (a tail expression, a bare call) drops its
            // guard at statement end: transient.
        }
    }
    (findings, edges)
}

fn same_class(path: &str, raw: &[&str], line: usize, class: &str) -> Finding {
    Finding {
        pass: "lock-order",
        path: path.to_string(),
        line,
        what: "same-class-nesting".to_string(),
        snippet: format!(
            "acquires another `{class}` lock while one is held — {}",
            snippet(raw, line)
        ),
    }
}

/// Cycle detection over the union lock graph (self-edges are excluded —
/// same-class nesting is its own finding at the acquisition site).
pub(crate) fn cycle_findings(edges: &[LockEdge]) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        if e.from != e.to {
            adj.entry(e.from.as_str()).or_default().push(e);
        }
    }
    let mut findings = Vec::new();
    let mut done: Vec<&str> = Vec::new();
    for start in adj.keys().copied().collect::<Vec<_>>() {
        if done.contains(&start) {
            continue;
        }
        // DFS with an explicit path stack; the first back-edge to a node
        // on the stack names the cycle.
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut on_path: Vec<&str> = vec![start];
        while let Some((node, idx)) = stack.pop() {
            let next = adj.get(node).and_then(|v| v.get(idx));
            match next {
                Some(e) => {
                    stack.push((node, idx + 1));
                    let to = e.to.as_str();
                    if let Some(pos) = on_path.iter().position(|n| *n == to) {
                        let mut cycle: Vec<&str> = on_path[pos..].to_vec();
                        cycle.push(to);
                        findings.push(Finding {
                            pass: "lock-order",
                            path: e.path.clone(),
                            line: e.line,
                            what: "lock-cycle".to_string(),
                            snippet: format!("lock graph cycle: {}", cycle.join(" -> ")),
                        });
                        done = adj.keys().copied().collect(); // one report suffices
                        stack.clear();
                    } else if !done.contains(&to) {
                        on_path.push(to);
                        stack.push((to, 0));
                    }
                }
                None => {
                    on_path.pop();
                    done.push(node);
                }
            }
        }
    }
    findings
}

/// Renders the union lock graph as DOT, deduplicating edges and keeping
/// one example site per edge. Declared-order classes appear even when no
/// edge touches them, so the artifact always shows the full discipline.
pub(crate) fn render_dot(order: &[&str], edges: &[LockEdge]) -> String {
    let mut out = String::from(
        "// Static lock graph emitted by `cargo xtask audit` (lock-order pass).\n\
         // An edge A -> B means \"a B lock is acquired while an A guard is live\";\n\
         // dashed self-edges are allowlisted ascending same-class acquisitions.\n\
         digraph lock_order {\n  rankdir=LR;\n  node [shape=box];\n",
    );
    for (i, class) in order.iter().enumerate() {
        out.push_str(&format!("  \"{class}\" [label=\"{}. {class}\"];\n", i + 1));
    }
    let mut seen: BTreeMap<(String, String), (usize, String)> = BTreeMap::new();
    for e in edges {
        let entry = seen
            .entry((e.from.clone(), e.to.clone()))
            .or_insert_with(|| (0, format!("{}:{}", e.path, e.line)));
        entry.0 += 1;
    }
    for ((from, to), (count, site)) in &seen {
        let style = if from == to { ", style=dashed" } else { "" };
        out.push_str(&format!(
            "  \"{from}\" -> \"{to}\" [label=\"{count} site(s), e.g. {site}\"{style}];\n"
        ));
    }
    out.push_str("}\n");
    out
}

/// True when the relaxed use at `line_no` carries an `ordering:`
/// justification: on the line itself or in the contiguous `//` comment
/// block directly above it.
fn has_ordering_comment(raw: &[&str], line_no: usize) -> bool {
    if raw
        .get(line_no - 1)
        .is_some_and(|l| l.contains("ordering:"))
    {
        return true;
    }
    let mut i = line_no - 1; // index of the line above
    while i > 0 {
        let t = raw[i - 1].trim();
        if !t.starts_with("//") {
            return false;
        }
        if t.contains("ordering:") {
            return true;
        }
        i -= 1;
    }
    false
}

/// The atomic-ordering pass, part 1: every `Ordering::Relaxed` in
/// non-test code needs an `// ordering:` justification. A contiguous run
/// of relaxed lines (a snapshot copying six counters) shares one
/// comment: justification propagates to the directly following line
/// when it is also relaxed.
pub(crate) fn atomic_ordering(path: &str, lines: &[CleanLine], raw: &[&str]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut prev: Option<(usize, bool)> = None; // (line no, justified)
    for l in lines.iter().filter(|l| !l.in_test) {
        if !l.code.contains("Ordering::Relaxed") {
            continue;
        }
        let carried = prev.is_some_and(|(no, ok)| ok && no + 1 == l.no);
        let justified = carried || has_ordering_comment(raw, l.no);
        if !justified {
            out.push(Finding {
                pass: "atomic-ordering",
                path: path.to_string(),
                line: l.no,
                what: "unjustified-relaxed".to_string(),
                snippet: snippet(raw, l.no),
            });
        }
        prev = Some((l.no, justified));
    }
    out
}

/// The non-test function bodies of a file, as inclusive index ranges
/// into `lines` (nested items are folded into their parent's range —
/// good enough for the per-function protocol checks).
fn fn_ranges(lines: &[CleanLine]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let l = &lines[i];
        let is_fn = !l.in_test && l.code.contains("fn ") && !l.code.trim_start().starts_with("//");
        if !is_fn {
            i += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut opened = false;
        let mut j = i;
        'scan: while j < lines.len() {
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            break 'scan;
                        }
                    }
                    ';' if !opened && depth == 0 => break 'scan, // bodyless decl
                    _ => {}
                }
            }
            j += 1;
        }
        out.push((i, j.min(lines.len().saturating_sub(1))));
        i = j + 1;
    }
    out
}

/// Orderings acceptable for a seqlock publish/claim/first-read.
fn has_one_of(text: &str, names: &[&str]) -> bool {
    names.iter().any(|n| text.contains(n))
}

/// The atomic-ordering pass, part 2: the seqlock protocol checker, for
/// files declaring a version word (`version: AtomicU64`). Checked per
/// function, on joined statements:
///
/// * every `version.store(` publishes with `Release` (or `SeqCst`);
/// * a `version.compare_exchange(` claim succeeds with an acquiring
///   ordering **and** a `fence(Ordering::Release)` sits between the CAS
///   and the first subsequent data store, so the odd claim is ordered
///   before the field writes;
/// * a function reading the version twice (validate-around-read) loads
///   it first with `Acquire` and puts a `fence(Ordering::Acquire)`
///   between the loads; a single relaxed read is tolerated only next to
///   the claim CAS, which re-validates it.
pub(crate) fn seqlock(path: &str, lines: &[CleanLine], raw: &[&str]) -> Vec<Finding> {
    if !lines
        .iter()
        .any(|l| !l.in_test && l.code.contains("version: AtomicU64"))
    {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut push = |line: usize, what: &str, msg: String| {
        out.push(Finding {
            pass: "atomic-ordering",
            path: path.to_string(),
            line,
            what: what.to_string(),
            snippet: msg,
        });
    };
    for (start, end) in fn_ranges(lines) {
        let body = &lines[start..=end];
        let sts: Vec<Statement> = statements(body);
        let mut cas_line: Option<usize> = None;
        let mut fence_release: Option<usize> = None;
        let mut first_store: Option<usize> = None;
        let mut version_loads: Vec<(usize, bool)> = Vec::new(); // (line, acquiring)
        let mut fence_acquire: Vec<usize> = Vec::new();
        let mut has_cas = false;
        for st in &sts {
            let t = st.text.as_str();
            if t.contains("version.store(")
                && !has_one_of(t, &["Ordering::Release", "Ordering::SeqCst"])
            {
                push(
                    st.line,
                    "seqlock-publish",
                    format!(
                        "version publish without Release — {}",
                        snippet(raw, st.line)
                    ),
                );
            }
            if t.contains("version.compare_exchange(") {
                has_cas = true;
                cas_line = Some(st.line);
                if !has_one_of(
                    t,
                    &["Ordering::Acquire", "Ordering::AcqRel", "Ordering::SeqCst"],
                ) {
                    push(
                        st.line,
                        "seqlock-claim",
                        format!(
                            "claim CAS without an acquiring success ordering — {}",
                            snippet(raw, st.line)
                        ),
                    );
                }
            }
            if t.contains("fence(Ordering::Release)") {
                fence_release = Some(st.line);
            }
            if t.contains("fence(Ordering::Acquire)") {
                fence_acquire.push(st.line);
            }
            if t.contains(".store(") && !t.contains("version.store(") && first_store.is_none() {
                first_store = Some(st.line);
            }
            if t.contains("version.load(") {
                version_loads.push((
                    st.line,
                    has_one_of(t, &["Ordering::Acquire", "Ordering::SeqCst"]),
                ));
            }
        }
        if let (Some(cas), Some(store)) = (cas_line, first_store) {
            let fenced = fence_release.is_some_and(|f| f > cas && f < store);
            if store > cas && !fenced {
                push(
                    cas,
                    "seqlock-claim-fence",
                    format!(
                        "no fence(Ordering::Release) between the claim CAS (line {cas}) and \
                         the data stores (line {store}): the odd version could be reordered \
                         after the field writes"
                    ),
                );
            }
        }
        match version_loads.as_slice() {
            [] => {}
            [(line, acquiring)] => {
                if !acquiring && !has_cas {
                    push(
                        *line,
                        "seqlock-read",
                        format!(
                            "lone relaxed version read with no re-validating CAS — {}",
                            snippet(raw, *line)
                        ),
                    );
                }
            }
            [(first, acquiring), rest @ ..] => {
                if !acquiring {
                    push(
                        *first,
                        "seqlock-read",
                        format!(
                            "first of a validate-around-read pair must be Acquire — {}",
                            snippet(raw, *first)
                        ),
                    );
                }
                if let Some((second, _)) = rest.first() {
                    if !fence_acquire.iter().any(|f| f > first && f < second) {
                        push(
                            *second,
                            "seqlock-read-fence",
                            format!(
                                "no fence(Ordering::Acquire) between the version reads \
                                 (lines {first} and {second}): the data loads could be \
                                 reordered after the validating re-read"
                            ),
                        );
                    }
                }
            }
        }
    }
    out
}

/// The condvar-discipline + poison-handling pass. `wait`/`wait_timeout`
/// on a condvar (receiver containing `cv`) must sit lexically inside a
/// `loop`/`while`/`for` — the §5.2 log writers and waiters re-check
/// their predicate on every wake. And a `lock()` whose `Err` is silently
/// discarded (`if let Ok`, `unwrap_or`, `.ok()`) hides poisoning from the
/// fail-stop degrade path; `into_inner()` recovery is the sanctioned
/// idiom and exempt.
pub(crate) fn condvar_discipline(path: &str, lines: &[CleanLine], raw: &[&str]) -> Vec<Finding> {
    let mut out = Vec::new();
    // Stack of (depth the block lives at, opened-by-a-loop-header).
    let mut blocks: Vec<(i32, bool)> = Vec::new();
    for st in statements(lines).iter().filter(|s| !s.in_test) {
        blocks.retain(|(d, _)| *d <= st.depth_min);
        if st.text.contains("cv.wait") && !blocks.iter().any(|(_, looped)| *looped) {
            out.push(Finding {
                pass: "condvar-discipline",
                path: path.to_string(),
                line: st.line,
                what: "wait-outside-loop".to_string(),
                snippet: snippet(raw, st.line),
            });
        }
        if st.text.contains(".lock()") && !st.text.contains("into_inner()") {
            let swallowed = st.text.contains("if let Ok")
                || st.text.contains("while let Ok")
                || st.text.contains("unwrap_or")
                || st.text.contains(".ok()");
            if swallowed {
                out.push(Finding {
                    pass: "condvar-discipline",
                    path: path.to_string(),
                    line: st.line,
                    what: "poison-swallowed".to_string(),
                    snippet: snippet(raw, st.line),
                });
            }
        }
        if st.depth_end > st.depth_start {
            let header = st.text.trim_start_matches("} ");
            let looped = header.starts_with("loop")
                || header.starts_with("while ")
                || header.starts_with("while(")
                || header.starts_with("for ")
                || header.contains("= loop {");
            blocks.push((st.depth_end, looped));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::clean;

    fn run_lock(src: &str, cfg: &LockConfig) -> (Vec<Finding>, Vec<LockEdge>) {
        let raw: Vec<&str> = src.lines().collect();
        lock_order("f.rs", &clean(src), &raw, cfg)
    }

    #[test]
    fn lock_order_flags_descending_acquisition() {
        let cfg = engine_lock_config();
        let src = "fn bad(&self) {\n    let d = self.durable.lock().unwrap_or_else(|p| p.into_inner());\n    let q = self.queue.lock().unwrap_or_else(|p| p.into_inner());\n    q.x(d);\n}\n";
        let (findings, edges) = run_lock(src, &cfg);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].what, "order-violation");
        assert_eq!(findings[0].line, 3, "flagged at the inner acquisition");
        assert_eq!(findings[0].path, "f.rs");
        assert!(findings[0]
            .snippet
            .contains("`queue` while holding `durable`"));
        assert_eq!(edges.len(), 1);
        assert_eq!(
            (edges[0].from.as_str(), edges[0].to.as_str()),
            ("durable", "queue")
        );
    }

    #[test]
    fn lock_order_accepts_the_documented_order() {
        let cfg = engine_lock_config();
        let src = "fn good(&self) {\n    let mut q = self.queue.lock().unwrap_or_else(|p| p.into_inner());\n    self.durable_guard().x.y = 1;\n    q.z();\n}\n";
        let (findings, edges) = run_lock(src, &cfg);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(edges.len(), 1);
        assert_eq!(
            (edges[0].from.as_str(), edges[0].to.as_str()),
            ("queue", "durable")
        );
    }

    #[test]
    fn lock_order_scopes_blocks_and_drops() {
        let cfg = engine_lock_config();
        // The durable guard dies with its block (and the queue guard via
        // drop) before the shard acquisition: no edge, no violation.
        let src = "fn scoped(&self) {\n    {\n        let d = self.durable.lock().unwrap_or_else(|p| p.into_inner());\n        d.x();\n    }\n    let q = self.queue.lock().unwrap_or_else(|p| p.into_inner());\n    drop(q);\n    let s = self.shards.state.lock().unwrap_or_else(|p| p.into_inner());\n    s.y();\n}\n";
        let (findings, edges) = run_lock(src, &cfg);
        assert!(findings.is_empty(), "{findings:?}");
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn lock_order_tracks_pushed_guards_as_same_class_nesting() {
        let cfg = engine_lock_config();
        let src = "fn mask(&self) {\n    let mut guards = Vec::new();\n    for shard in &self.shards {\n        guards.push(shard.guard()?);\n    }\n    let q = self.queue.lock().unwrap_or_else(|p| p.into_inner());\n    q.x(&guards);\n}\n";
        let (findings, edges) = run_lock(src, &cfg);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].what, "same-class-nesting");
        assert_eq!(findings[0].line, 4);
        // The pushed guards stay live past the loop: shard -> queue.
        assert!(edges
            .iter()
            .any(|e| e.from == "shard" && e.to == "queue" && e.line == 6));
    }

    #[test]
    fn lock_order_flags_unattributed_locks() {
        let cfg = engine_lock_config();
        let src = "fn new_lock(&self) {\n    let g = self.mystery.lock().unwrap_or_else(|p| p.into_inner());\n    g.x();\n}\n";
        let (findings, _) = run_lock(src, &cfg);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].what, "unattributed-lock");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn cycle_detection_reports_a_synthetic_cycle() {
        let edge = |from: &str, to: &str, line: usize| LockEdge {
            from: from.into(),
            to: to.into(),
            path: "g.rs".into(),
            line,
        };
        let no_cycle = [edge("a", "b", 1), edge("b", "c", 2), edge("a", "c", 3)];
        assert!(cycle_findings(&no_cycle).is_empty());
        let cycle = [edge("a", "b", 1), edge("b", "c", 2), edge("c", "a", 3)];
        let found = cycle_findings(&cycle);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].what, "lock-cycle");
        assert!(
            found[0].snippet.contains("a -> b -> c -> a"),
            "{}",
            found[0].snippet
        );
        // Self-edges (ascending same-class acquisition) are not cycles.
        assert!(cycle_findings(&[edge("a", "a", 1)]).is_empty());
    }

    #[test]
    fn dot_rendering_dedupes_and_marks_self_edges() {
        let edges = vec![
            LockEdge {
                from: "shard".into(),
                to: "queue".into(),
                path: "a.rs".into(),
                line: 10,
            },
            LockEdge {
                from: "shard".into(),
                to: "queue".into(),
                path: "b.rs".into(),
                line: 20,
            },
            LockEdge {
                from: "shard".into(),
                to: "shard".into(),
                path: "a.rs".into(),
                line: 5,
            },
        ];
        let dot = render_dot(&ENGINE_LOCK_ORDER, &edges);
        assert!(dot.contains("digraph lock_order"));
        assert!(dot.contains("\"shard\" -> \"queue\" [label=\"2 site(s), e.g. a.rs:10\"]"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("\"durable\""), "order classes always present");
    }

    fn run_atomic(src: &str) -> Vec<Finding> {
        let raw: Vec<&str> = src.lines().collect();
        atomic_ordering("f.rs", &clean(src), &raw)
    }

    #[test]
    fn relaxed_without_justification_is_flagged() {
        let found = run_atomic("fn f(&self) {\n    self.n.fetch_add(1, Ordering::Relaxed);\n}\n");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].what, "unjustified-relaxed");
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn relaxed_justified_by_comment_or_run_passes() {
        let src = "fn f(&self) {\n    // ordering: independent tally, no edge needed.\n    self.a.fetch_add(1, Ordering::Relaxed);\n    self.b.fetch_add(1, Ordering::Relaxed);\n    self.c.load(Ordering::Relaxed); // ordering: same\n}\n";
        assert!(run_atomic(src).is_empty());
        // A gap breaks the run: line 5 is no longer covered.
        let gapped = "fn f(&self) {\n    // ordering: covered.\n    self.a.fetch_add(1, Ordering::Relaxed);\n    let x = 1;\n    self.b.store(x, Ordering::Relaxed);\n}\n";
        let found = run_atomic(gapped);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 5);
    }

    fn run_seqlock(src: &str) -> Vec<String> {
        let raw: Vec<&str> = src.lines().collect();
        seqlock("f.rs", &clean(src), &raw)
            .into_iter()
            .map(|f| f.what)
            .collect()
    }

    const SEQLOCK_OK: &str = "struct S { version: AtomicU64 }\n\
fn record(&self) {\n\
    let cur = slot.version.load(Ordering::Relaxed);\n\
    if slot.version.compare_exchange(cur, odd, Ordering::Acquire, Ordering::Relaxed).is_err() {\n\
        return;\n\
    }\n\
    fence(Ordering::Release);\n\
    slot.txn.store(txn, Ordering::Relaxed);\n\
    slot.version.store(odd + 1, Ordering::Release);\n\
}\n\
fn snapshot(&self) {\n\
    let v1 = slot.version.load(Ordering::Acquire);\n\
    let txn = slot.txn.load(Ordering::Relaxed);\n\
    fence(Ordering::Acquire);\n\
    let v2 = slot.version.load(Ordering::Relaxed);\n\
    if v1 != v2 { return; }\n\
}\n";

    #[test]
    fn seqlock_accepts_the_full_protocol() {
        assert!(
            run_seqlock(SEQLOCK_OK).is_empty(),
            "{:?}",
            run_seqlock(SEQLOCK_OK)
        );
    }

    #[test]
    fn seqlock_flags_each_protocol_break() {
        // Publish without Release.
        let relaxed_publish = SEQLOCK_OK.replace(
            "slot.version.store(odd + 1, Ordering::Release)",
            "slot.version.store(odd + 1, Ordering::Relaxed)",
        );
        assert!(run_seqlock(&relaxed_publish).contains(&"seqlock-publish".to_string()));
        // Claim CAS without the Release fence before the data stores.
        let no_fence = SEQLOCK_OK.replace("fence(Ordering::Release);\n", "");
        assert!(run_seqlock(&no_fence).contains(&"seqlock-claim-fence".to_string()));
        // First read of the validate pair must be Acquire.
        let relaxed_read = SEQLOCK_OK.replace(
            "let v1 = slot.version.load(Ordering::Acquire)",
            "let v1 = slot.version.load(Ordering::Relaxed)",
        );
        assert!(run_seqlock(&relaxed_read).contains(&"seqlock-read".to_string()));
        // No Acquire fence between the validate reads.
        let no_read_fence = SEQLOCK_OK.replace("fence(Ordering::Acquire);\n", "");
        assert!(run_seqlock(&no_read_fence).contains(&"seqlock-read-fence".to_string()));
        // Files without a version word are out of scope entirely.
        assert!(run_seqlock("fn f() { x.store(1, Ordering::Relaxed); }\n").is_empty());
    }

    fn run_condvar(src: &str) -> Vec<Finding> {
        let raw: Vec<&str> = src.lines().collect();
        condvar_discipline("f.rs", &clean(src), &raw)
    }

    #[test]
    fn condvar_wait_outside_a_loop_is_flagged() {
        let src = "fn f(&self) {\n    let g = self.m.lock().map_err(|_| E)?;\n    let g = self.cv.wait(g).map_err(|_| E)?;\n}\n";
        let found = run_condvar(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].what, "wait-outside-loop");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn condvar_wait_inside_loops_passes() {
        for header in ["loop {", "while !done {", "for _ in 0..3 {"] {
            let src = format!(
                "fn f(&self) {{\n    let mut g = self.m.lock().map_err(|_| E)?;\n    {header}\n        if g.ready {{ return; }}\n        g = self.cv.wait(g).map_err(|_| E)?;\n    }}\n}}\n"
            );
            assert!(run_condvar(&src).is_empty(), "header {header}");
        }
    }

    #[test]
    fn poison_swallowing_is_flagged_but_into_inner_is_sanctioned() {
        let bad = "fn f(&self) {\n    if let Ok(mut q) = self.queue.lock() {\n        q.failed = true;\n    }\n    let crashed = self.durable.lock().map(|d| d.crashed).unwrap_or(true);\n}\n";
        let found = run_condvar(bad);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|f| f.what == "poison-swallowed"));
        assert_eq!((found[0].line, found[1].line), (2, 5));
        let good = "fn f(&self) {\n    let mut q = self.queue.lock().unwrap_or_else(|p| p.into_inner());\n    q.failed = true;\n}\n";
        assert!(run_condvar(good).is_empty());
    }
}
