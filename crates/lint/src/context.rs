//! Token-stream structure recovery: just enough syntax to scope the
//! rules correctly without a parser.
//!
//! From the flat token list the linter reconstructs three things:
//!
//! * a **test mask** — which tokens sit inside `#[cfg(test)]` items,
//!   `#[test]`/`#[bench]` functions, or anything else gated on a
//!   `cfg` that mentions `test`. Rules about production code skip
//!   masked tokens.
//! * **function spans** — which enclosing `fn` body each token
//!   belongs to, so rules that reason about "two acquisitions in the
//!   same function" can group call sites.
//! * **brace depth** per token, for scope-lifetime reasoning (a lock
//!   guard bound at depth `d` dies when the depth drops below `d`).
//!
//! All three are approximations (closures are not separate functions,
//! a `fn` nested in a `fn` folds into its parent), which is the right
//! trade-off for a linter: the rules that consume them are heuristics
//! with an explicit suppression escape hatch, documented in
//! `DESIGN.md` §14.

use crate::lexer::{Tok, TokKind};

/// Per-token structural facts, index-aligned with the token list.
pub struct Structure {
    /// Token is inside test-gated code.
    pub test_mask: Vec<bool>,
    /// Id of the innermost `fn` whose body holds the token
    /// (`usize::MAX` when at item level, outside any body).
    pub fn_id: Vec<usize>,
    /// Brace depth *before* the token is processed.
    pub depth: Vec<u32>,
}

/// Whether the attribute starting at `toks[i]` (which must be `#`)
/// gates on test: `#[test]`, `#[bench]`, or any `#[cfg(… test …)]`.
/// Returns the token index one past the closing `]` when it does.
fn test_attr_end(toks: &[Tok], i: usize) -> Option<usize> {
    if !toks[i].is_punct("#") {
        return None;
    }
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.is_punct("!")) {
        // Inner attribute `#![…]` — applies to the enclosing item,
        // not the next one; never treated as a test gate here.
        return None;
    }
    if !toks.get(j).is_some_and(|t| t.is_punct("[")) {
        return None;
    }
    j += 1;
    let mut depth = 1u32;
    let mut gated = false;
    let mut head: Option<&str> = None;
    while let Some(t) = toks.get(j) {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident {
            if head.is_none() {
                head = Some(&t.text);
            }
            if t.text == "test" || t.text == "bench" {
                gated = true;
            }
        }
        j += 1;
    }
    let end = j + 1;
    match head {
        Some("test" | "bench") => Some(end),
        Some("cfg" | "cfg_attr") if gated => Some(end),
        _ => None,
    }
}

/// The token index one past the item that starts at `toks[i]`: either
/// the terminating `;` (a use/decl item) or the matching `}` of the
/// first `{` block. Attributes and doc comments between the gate and
/// the item are included.
fn item_end(toks: &[Tok], mut i: usize) -> usize {
    // Skip any further attributes before the item keyword.
    while toks.get(i).is_some_and(|t| t.is_punct("#")) {
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct("!")) {
            j += 1;
        }
        if toks.get(j).is_some_and(|t| t.is_punct("[")) {
            let mut depth = 1u32;
            j += 1;
            while let Some(t) = toks.get(j) {
                if t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            i = j + 1;
        } else {
            break;
        }
    }
    let mut depth = 0u32;
    while let Some(t) = toks.get(i) {
        if t.is_punct(";") && depth == 0 {
            return i + 1;
        }
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Recover the structural facts for a token stream.
#[must_use]
pub fn analyze(toks: &[Tok]) -> Structure {
    let n = toks.len();
    let mut test_mask = vec![false; n];
    let mut fn_id = vec![usize::MAX; n];
    let mut depth = vec![0u32; n];

    // Test regions: each test-gating attribute masks through its item.
    let mut i = 0;
    while i < n {
        if let Some(end) = test_attr_end(toks, i) {
            let stop = item_end(toks, end);
            for m in &mut test_mask[i..stop] {
                *m = true;
            }
            i = stop;
        } else {
            i += 1;
        }
    }

    // Brace depth and fn spans in one pass. A `fn` keyword arms a
    // pending function; the next `{` at or below the depth where the
    // signature started opens its body. `fn` pointer types (`fn(` in
    // type position) never arm because they are followed by `(`, not
    // an identifier.
    let mut d = 0u32;
    let mut next_fn = 0usize;
    // Stack of (fn id, depth its body opened at).
    let mut stack: Vec<(usize, u32)> = Vec::new();
    let mut pending: Option<usize> = None;
    for (i, t) in toks.iter().enumerate() {
        depth[i] = d;
        if t.is_punct("{") {
            d += 1;
            if let Some(id) = pending.take() {
                stack.push((id, d));
            }
        } else if t.is_punct("}") {
            d = d.saturating_sub(1);
            if stack.last().is_some_and(|&(_, bd)| d < bd) {
                stack.pop();
            }
        } else if t.is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            pending = Some(next_fn);
            next_fn += 1;
        }
        if let Some(&(id, _)) = stack.last() {
            fn_id[i] = id;
        }
    }

    Structure {
        test_mask,
        fn_id,
        depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn masked_idents(src: &str) -> Vec<(String, bool)> {
        let l = lex(src);
        let s = analyze(&l.toks);
        l.toks
            .iter()
            .zip(&s.test_mask)
            .filter(|(t, _)| t.kind == TokKind::Ident)
            .map(|(t, m)| (t.text.clone(), *m))
            .collect()
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn dead() {} }\nfn live2() {}";
        let m = masked_idents(src);
        assert!(m.contains(&("live".into(), false)));
        assert!(m.contains(&("dead".into(), true)));
        assert!(m.contains(&("live2".into(), false)));
    }

    #[test]
    fn test_fn_with_attrs_between_is_masked() {
        let src = "#[test]\n#[ignore]\nfn a_test() { x(); }\nfn live() {}";
        let m = masked_idents(src);
        assert!(m.contains(&("a_test".into(), true)));
        assert!(m.contains(&("x".into(), true)));
        assert!(m.contains(&("live".into(), false)));
    }

    #[test]
    fn cfg_all_test_is_masked() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nfn gated() {}\nfn live() {}";
        let m = masked_idents(src);
        assert!(m.contains(&("gated".into(), true)));
        assert!(m.contains(&("live".into(), false)));
    }

    #[test]
    fn cfg_not_test_related_is_not_masked() {
        let src = "#[cfg(feature = \"fast\")]\nfn live() {}";
        let m = masked_idents(src);
        assert!(m.contains(&("live".into(), false)));
    }

    #[test]
    fn fn_spans_group_tokens() {
        let src = "fn a() { one(); }\nfn b() { two(); }";
        let l = lex(src);
        let s = analyze(&l.toks);
        let find = |name: &str| {
            l.toks
                .iter()
                .position(|t| t.is_ident(name))
                .map(|i| s.fn_id[i])
                .unwrap()
        };
        assert_ne!(find("one"), usize::MAX);
        assert_ne!(find("one"), find("two"));
        // Item-level tokens belong to no fn.
        assert_eq!(s.fn_id[0], usize::MAX);
    }

    #[test]
    fn depth_tracks_braces() {
        let l = lex("fn a() { { deep(); } }");
        let s = analyze(&l.toks);
        let i = l.toks.iter().position(|t| t.is_ident("deep")).unwrap();
        assert_eq!(s.depth[i], 2);
    }
}
