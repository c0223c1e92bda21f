//! The rule set: eight diagnostics encoding the workspace's
//! hand-maintained concurrency and durability invariants.
//!
//! | rule | invariant it guards |
//! |------|---------------------|
//! | `shard-lock-order`    | cross-shard write locks are acquired in ascending index order (PR 8's deadlock-freedom argument) |
//! | `vfs-bypass`          | every durability byte in `co_graph` flows through `vfs` so `IoFault` injection covers it (PR 9) |
//! | `no-panic`            | non-test, non-bench code never panics — typed errors only (PRs 6, 9) |
//! | `lossy-cast`          | row/byte/shard quantities are not silently truncated by `as` casts |
//! | `blocking-under-lock` | no sleeps or ad-hoc file I/O while a shard lock guard is live |
//! | `relaxed-control`     | `Ordering::Relaxed` loads never steer control flow |
//! | `float-eq`            | kernel code never compares floats with `==`/`!=` |
//! | `allow-reason`        | every `#[allow(...)]` and every `co-lint:allow` carries a written reason |
//!
//! Every rule is a token-level heuristic: it can over-approximate
//! (flag a site that is actually fine) but each has a suppression
//! escape hatch that *forces the author to write down why* — turning
//! tribal knowledge into greppable annotations. The heuristics'
//! exact shapes (receiver-name matching, statement spans) are
//! documented per-rule below and in `DESIGN.md` §14.

use crate::context::Structure;
use crate::lexer::{Comment, Tok, TokKind};

/// The canonical rule names, in catalog order.
pub const RULES: [&str; 8] = [
    "shard-lock-order",
    "vfs-bypass",
    "no-panic",
    "lossy-cast",
    "blocking-under-lock",
    "relaxed-control",
    "float-eq",
    "allow-reason",
];

/// One rule violation before suppression filtering.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static str,
    pub line: u32,
    pub message: String,
}

/// Everything a rule may look at for one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    pub toks: &'a [Tok],
    pub comments: &'a [Comment],
    pub st: &'a Structure,
}

impl FileCtx<'_> {
    fn is_bench(&self) -> bool {
        self.path.starts_with("crates/bench/") || self.path.contains("/benches/")
    }

    fn is_graph_durability(&self) -> bool {
        self.path.starts_with("crates/graph/src/") && !self.path.ends_with("/vfs.rs")
    }

    fn is_kernel(&self) -> bool {
        self.path.starts_with("crates/dataframe/src/") || self.path.starts_with("crates/ml/src/")
    }
}

/// Run every rule over one file.
#[must_use]
pub fn run_all(ctx: &FileCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    shard_lock_order(ctx, &mut out);
    vfs_bypass(ctx, &mut out);
    no_panic(ctx, &mut out);
    lossy_cast(ctx, &mut out);
    blocking_under_lock(ctx, &mut out);
    relaxed_control(ctx, &mut out);
    float_eq(ctx, &mut out);
    allow_reason(ctx, &mut out);
    out.sort_by_key(|v| v.line);
    out
}

/// The identifier naming the receiver of the method call whose `.`
/// sits at `dot`: `eg.write(..)` → `eg`; `server.shards().write(..)`
/// → `shards` (the call producing the receiver). `None` when the
/// receiver is an arbitrary expression.
fn receiver_name(toks: &[Tok], dot: usize) -> Option<String> {
    let prev = dot.checked_sub(1)?;
    let t = &toks[prev];
    if t.kind == TokKind::Ident {
        return Some(t.text.clone());
    }
    if t.is_punct(")") {
        // Walk back over the balanced call parens to the callee name.
        let mut depth = 1i32;
        let mut i = prev;
        while depth > 0 {
            i = i.checked_sub(1)?;
            if toks[i].is_punct(")") {
                depth += 1;
            } else if toks[i].is_punct("(") {
                depth -= 1;
            }
        }
        let callee = i.checked_sub(1)?;
        if toks[callee].kind == TokKind::Ident {
            return Some(toks[callee].text.clone());
        }
    }
    None
}

/// Whether a receiver name plausibly denotes the sharded Experiment
/// Graph (`eg`, `shards`, `sharded_eg`, …). The rules only reason
/// about lock calls on such receivers, so `file.write(buf)` and
/// `reader.read(&mut b)` stay out of scope.
fn is_sharded_receiver(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    n == "eg" || n.contains("shard")
}

/// Parse a single-token integer literal (strips `_` and suffixes).
fn int_value(t: &Tok) -> Option<u64> {
    if t.kind != TokKind::Int {
        return None;
    }
    let digits: String = t
        .text
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .filter(|c| *c != '_')
        .collect();
    digits.parse().ok()
}

/// The token index of the `)` matching the `(` at `open`.
fn matching_close(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len().saturating_sub(1)
}

// ---------------------------------------------------------------- L1

/// `shard-lock-order`: two or more `.write(k)` calls on a sharded
/// receiver inside one function must be provably ascending — all
/// indices constant and strictly increasing in source order. A
/// non-constant index among multiple acquisitions is flagged as
/// unprovable: such code must go through `write_set`, whose runtime
/// assertion (and the lock-order witness) enforces the protocol.
fn shard_lock_order(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let toks = ctx.toks;
    // (fn id, line, Some(const index) | None)
    let mut acquisitions: Vec<(usize, u32, Option<u64>)> = Vec::new();
    for i in 1..toks.len() {
        if !(toks[i].is_ident("write")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
            && toks[i - 1].is_punct("."))
            || ctx.st.test_mask[i]
        {
            continue;
        }
        let Some(recv) = receiver_name(toks, i - 1) else {
            continue;
        };
        if !is_sharded_receiver(&recv) {
            continue;
        }
        let close = matching_close(toks, i + 1);
        let arg = &toks[i + 2..close];
        let value = match arg {
            [t] => int_value(t),
            _ => None,
        };
        acquisitions.push((ctx.st.fn_id[i], toks[i].line, value));
    }
    let mut by_fn: std::collections::BTreeMap<usize, Vec<(u32, Option<u64>)>> =
        std::collections::BTreeMap::new();
    for (f, line, v) in acquisitions {
        by_fn.entry(f).or_default().push((line, v));
    }
    for calls in by_fn.values() {
        if calls.len() < 2 {
            continue;
        }
        if calls.iter().any(|(_, v)| v.is_none()) {
            for (line, v) in calls {
                if v.is_none() {
                    out.push(Violation {
                        rule: "shard-lock-order",
                        line: *line,
                        message: "multiple shard write-lock acquisitions in one function with a \
                                  non-constant index are not provably in ascending order — \
                                  acquire the whole set via write_set(&[..]) instead"
                            .into(),
                    });
                }
            }
            continue;
        }
        for w in calls.windows(2) {
            let (al, av) = (w[0].0, w[0].1.unwrap_or(0));
            let (bl, bv) = (w[1].0, w[1].1.unwrap_or(0));
            if bv <= av {
                out.push(Violation {
                    rule: "shard-lock-order",
                    line: bl,
                    message: format!(
                        "shard {bv} write-locked after shard {av} (line {al}): cross-shard \
                         write locks must be acquired in strictly ascending index order"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- L2

/// `vfs-bypass`: direct `std::fs` / `File::` / `OpenOptions` use in
/// `co_graph` modules (everything under `crates/graph/src` except
/// `vfs.rs`, the choke point itself). I/O that bypasses `vfs` is
/// invisible to `IoFault` injection, so the chaos suites silently
/// stop covering it.
fn vfs_bypass(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !ctx.is_graph_durability() {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.st.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        let next_is_path = toks.get(i + 1).is_some_and(|n| n.is_punct("::"));
        let prev_is_path = i > 0 && toks[i - 1].is_punct("::");
        let hit = (t.is_ident("fs") && next_is_path)
            || (t.is_ident("File") && next_is_path && !prev_is_path)
            || t.is_ident("OpenOptions");
        if hit {
            out.push(Violation {
                rule: "vfs-bypass",
                line: t.line,
                message: format!(
                    "direct `{}` I/O in a durability module bypasses co_graph::vfs — IoFault \
                     injection (ENOSPC, EIO, short writes, fsync poisoning) cannot reach it; \
                     route the operation through vfs::*",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- L3

/// `no-panic`: `unwrap` / `expect` / `panic!` / `todo!` in non-test,
/// non-bench code. A panic in a worker tears down the request (or,
/// under a lock, poisons the whole server); production paths return
/// typed errors.
fn no_panic(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if ctx.is_bench() {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.st.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        let next = toks.get(i + 1);
        let what = if (t.is_ident("unwrap") || t.is_ident("expect"))
            && next.is_some_and(|n| n.is_punct("("))
            && i > 0
            && toks[i - 1].is_punct(".")
        {
            Some(format!("`.{}()`", t.text))
        } else if (t.is_ident("panic") || t.is_ident("todo"))
            && next.is_some_and(|n| n.is_punct("!"))
            && !(i > 0 && toks[i - 1].is_punct("::"))
        {
            Some(format!("`{}!`", t.text))
        } else {
            None
        };
        if let Some(what) = what {
            out.push(Violation {
                rule: "no-panic",
                line: t.line,
                message: format!(
                    "{what} in non-test code: this path panics the worker instead of returning \
                     a typed error — convert to a Result (or justify with co-lint:allow(no-panic))"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- L4

/// Quantity-ish identifier names whose truncation is a correctness
/// bug waiting for a big dataset: row counts, byte sizes, shard
/// indices, sequence numbers, offsets.
fn is_quantity_name(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    const WORDS: [&str; 11] = [
        "row", "byte", "len", "size", "count", "shard", "seq", "offset", "idx", "index", "total",
    ];
    WORDS.iter().any(|w| n.contains(w))
}

/// `lossy-cast`: `quantity as <narrower-int>` silently truncates.
/// Casts already covered by a justified
/// `#[allow(clippy::cast_possible_truncation/…)]` (which the
/// `allow-reason` rule forces to carry a reason) are exempt, so one
/// written justification satisfies both linters.
fn lossy_cast(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    const NARROW: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "usize"];
    let toks = ctx.toks;
    // Lines reachable from a cast-related clippy allow: the attribute's
    // last line plus the three below it (attributes bind the next
    // statement; three lines absorbs a multi-line statement head).
    let mut allowed_lines: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for i in 0..toks.len() {
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let mut j = i + 2;
            let mut depth = 1u32;
            let mut saw_cast_allow = false;
            while let Some(t) = toks.get(j) {
                if t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.kind == TokKind::Ident && t.text.starts_with("cast_") {
                    saw_cast_allow = true;
                }
                j += 1;
            }
            if saw_cast_allow {
                if let Some(end) = toks.get(j) {
                    for l in end.line..=end.line + 3 {
                        allowed_lines.insert(l);
                    }
                }
            }
        }
    }
    for i in 1..toks.len() {
        if ctx.st.test_mask[i] || !toks[i].is_ident("as") {
            continue;
        }
        let Some(ty) = toks.get(i + 1) else { continue };
        if !(ty.kind == TokKind::Ident && NARROW.contains(&ty.text.as_str())) {
            continue;
        }
        if allowed_lines.contains(&toks[i].line) {
            continue;
        }
        let Some(operand) = receiver_name(toks, i) else {
            continue;
        };
        // Conversion functions (`from_le_bytes`, `to_ne_bytes`) name
        // an encoding, not a quantity.
        if operand.starts_with("from_") || operand.starts_with("to_") {
            continue;
        }
        if is_quantity_name(&operand) {
            out.push(Violation {
                rule: "lossy-cast",
                line: toks[i].line,
                message: format!(
                    "`{operand} as {}` silently truncates a row/byte/shard quantity — use \
                     try_from with a typed error, or a justified \
                     #[allow(clippy::cast_possible_truncation)]",
                    ty.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- L5

/// `blocking-under-lock`: a sleep or direct file/socket operation
/// while a shard lock guard is live extends the critical section by
/// an unbounded, I/O-scheduler-shaped amount — the exact pathology
/// the sharding work split the lock to avoid. Guard liveness is
/// tracked by brace depth from the `let` that bound it (or until an
/// explicit `drop(guard)`).
fn blocking_under_lock(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let toks = ctx.toks;
    struct Guard {
        name: String,
        depth: u32,
        line: u32,
    }
    let mut guards: Vec<Guard> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_punct("}") {
            let d = ctx.st.depth[i];
            // Depth *before* this `}` is the body depth; guards bound
            // at that depth die here.
            guards.retain(|g| g.depth < d);
            continue;
        }
        if ctx.st.test_mask[i] {
            continue;
        }
        // drop(guard) releases early.
        if t.is_ident("drop") && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            if let Some(arg) = toks.get(i + 2) {
                guards.retain(|g| g.name != arg.text);
            }
        }
        // A `let` statement whose initializer takes a shard lock.
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name_tok) = toks.get(j) else {
                continue;
            };
            if name_tok.kind != TokKind::Ident {
                continue;
            }
            let stmt_depth = ctx.st.depth[i];
            let mut k = j;
            let mut acquires = false;
            while let Some(tk) = toks.get(k) {
                // The initializer ends at the statement's `;` — or at
                // the block opener when this is an `if let`/`while let`
                // condition.
                if ctx.st.depth[k] == stmt_depth
                    && (tk.is_punct(";") || tk.is_punct("{") || tk.is_punct("}"))
                {
                    break;
                }
                if tk.kind == TokKind::Ident
                    && k > 0
                    && toks[k - 1].is_punct(".")
                    && toks.get(k + 1).is_some_and(|n| n.is_punct("("))
                    && matches!(
                        tk.text.as_str(),
                        "write" | "read" | "write_set" | "read_all" | "write_all"
                    )
                    && receiver_name(toks, k - 1).is_some_and(|r| is_sharded_receiver(&r))
                {
                    acquires = true;
                    break;
                }
                k += 1;
            }
            if acquires {
                guards.push(Guard {
                    name: name_tok.text.clone(),
                    depth: stmt_depth,
                    line: t.line,
                });
            }
            continue;
        }
        if guards.is_empty() {
            continue;
        }
        // Blocking operations.
        let next = toks.get(i + 1);
        let prev_path = i > 0 && toks[i - 1].is_punct("::");
        let blocking = (t.is_ident("sleep") && prev_path)
            || (t.is_ident("fs") && next.is_some_and(|n| n.is_punct("::")))
            || (t.is_ident("File") && next.is_some_and(|n| n.is_punct("::")) && !prev_path)
            || t.is_ident("read_to_string")
            || (t.is_ident("connect") && prev_path)
            || (t.is_ident("stdin") && next.is_some_and(|n| n.is_punct("(")));
        if blocking {
            let g = &guards[guards.len() - 1];
            out.push(Violation {
                rule: "blocking-under-lock",
                line: t.line,
                message: format!(
                    "blocking call while shard lock guard `{}` (line {}) is live — every waiter \
                     on those shards stalls behind this I/O; move it outside the critical \
                     section or justify why it must be inside",
                    g.name, g.line
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- L6

/// `relaxed-control`: a `load(Ordering::Relaxed)` whose enclosing
/// statement also contains a branch keyword or comparison is feeding
/// a control-flow decision on a possibly-stale value. Statistics
/// counters folded into snapshots stay legal; admission checks and
/// loop bounds do not.
fn relaxed_control(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let toks = ctx.toks;
    let boundary =
        |t: &Tok| t.is_punct(";") || t.is_punct("{") || t.is_punct("}") || t.is_punct(",");
    for i in 0..toks.len() {
        if ctx.st.test_mask[i]
            || !toks[i].is_ident("load")
            || !toks.get(i + 1).is_some_and(|t| t.is_punct("("))
        {
            continue;
        }
        let close = matching_close(toks, i + 1);
        if !toks[i + 2..close].iter().any(|t| t.is_ident("Relaxed")) {
            continue;
        }
        let start = (0..i)
            .rev()
            .find(|&j| boundary(&toks[j]))
            .map_or(0, |j| j + 1);
        let end = (close..toks.len())
            .find(|&j| boundary(&toks[j]))
            .unwrap_or(toks.len());
        let span = &toks[start..end];
        let control = span.iter().any(|t| {
            (t.kind == TokKind::Ident
                && (matches!(t.text.as_str(), "if" | "while" | "for" | "match")
                    || t.text.starts_with("assert")))
                || (t.kind == TokKind::Punct
                    && matches!(t.text.as_str(), "==" | "!=" | "<" | ">" | "<=" | ">="))
        });
        if control {
            out.push(Violation {
                rule: "relaxed-control",
                line: toks[i].line,
                message: "Ordering::Relaxed load feeds a control-flow decision — a stale value \
                          can take the wrong branch under concurrency; use Acquire (or SeqCst) \
                          or justify why staleness is safe here"
                    .into(),
            });
        }
    }
}

// ---------------------------------------------------------------- L7

/// `float-eq`: `==` / `!=` against a float literal (or `NAN`) in
/// kernel code. `x == NAN` is always false; `x == 0.3` compares
/// against a value `0.3` cannot round to. Bit-exact sentinel
/// comparisons exist (e.g. negative-zero identities) — those carry a
/// suppression with the reason.
fn float_eq(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !ctx.is_kernel() {
        return;
    }
    let toks = ctx.toks;
    let floatish = |t: &Tok| t.kind == TokKind::Float || t.is_ident("NAN");
    for i in 0..toks.len() {
        if ctx.st.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let adjacent = (i > 0 && floatish(&toks[i - 1]))
            || toks.get(i + 1).is_some_and(floatish)
            // `x == f64::NAN` — the literal sits two path segments out.
            || (toks.get(i + 1).is_some_and(|n| n.is_ident("f64") || n.is_ident("f32"))
                && toks.get(i + 3).is_some_and(|n| n.is_ident("NAN")));
        if adjacent {
            out.push(Violation {
                rule: "float-eq",
                line: t.line,
                message: format!(
                    "float equality (`{}`) in kernel code — exact comparison against a float \
                     literal is almost never the intended semantics (NaN, rounding); use an \
                     epsilon, total_cmp, or justify the bit-exact sentinel",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- L8

/// `allow-reason`: every `#[allow(...)]` / `#![allow(...)]` must be
/// justified by a `// lint:reason …` comment on the attribute's
/// lines, the line directly above, or the line directly below
/// (rustfmt moves over-long trailing comments there). Suppressions
/// suppress — they must never become unexplained folklore.
fn allow_reason(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.st.test_mask[i] || !toks[i].is_punct("#") {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct("!")) {
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| t.is_punct("[")) {
            continue;
        }
        if !toks.get(j + 1).is_some_and(|t| t.is_ident("allow")) {
            continue;
        }
        let mut depth = 1u32;
        let mut k = j + 2;
        while let Some(t) = toks.get(k) {
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        let start_line = toks[i].line;
        let end_line = toks.get(k).map_or(start_line, |t| t.line);
        let justified = ctx.comments.iter().any(|c| {
            c.line + 1 >= start_line
                && c.line <= end_line + 1
                && c.text.contains("lint:reason")
                && c.text
                    .split("lint:reason")
                    .nth(1)
                    .is_some_and(|rest| !rest.trim_start_matches([':', ' ']).trim().is_empty())
        });
        if !justified {
            out.push(Violation {
                rule: "allow-reason",
                line: start_line,
                message: "#[allow(...)] without a `// lint:reason …` justification — write down \
                          why the lint is wrong here, on the attribute's line or the line above"
                    .into(),
            });
        }
    }
}
