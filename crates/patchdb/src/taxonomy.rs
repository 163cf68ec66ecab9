//! Rule-based classification of security patches into the 12 Table V
//! change-pattern categories — the automatic counterpart of the paper's
//! manual categorization (Section IV-D), usable for the "automatic patch
//! analysis" applications of Section V.
//!
//! Rules fire in a fixed priority order over the patch's added/removed
//! lines; each rule keys on the syntactic evidence Table V describes.

use std::collections::HashMap;

use clang_lite::{tokenize, Keyword, TokenKind};
use patch_core::Patch;
use patchdb_corpus::{PatchCategory, ALL_CATEGORIES};

/// Classifies one security patch by its code changes.
pub fn classify_patch(patch: &Patch) -> PatchCategory {
    let added: Vec<&str> = patch
        .hunks()
        .flat_map(|h| h.added().map(|l| l.content.as_str()))
        .collect();
    let removed: Vec<&str> = patch
        .hunks()
        .flat_map(|h| h.removed().map(|l| l.content.as_str()))
        .collect();

    // 10: pure statement movement — identical multisets of changed lines.
    if !added.is_empty() && same_multiset(&added, &removed) {
        return PatchCategory::MoveStatement;
    }

    // 11: redesign — large, two-sided rewrites.
    if added.len() >= 5 && removed.len() >= 5 && added.len() + removed.len() >= 12 {
        return PatchCategory::Redesign;
    }

    // 9: jump-statement changes (goto/label error-path rework).
    if touches_jump(&added) || touches_jump(&removed) {
        return PatchCategory::JumpStatement;
    }

    // 1/2/3: check changes — an `if` added or its condition modified.
    if let Some(cat) = check_category(&added, &removed) {
        return cat;
    }

    // 6/7: signature changes.
    if let Some(cat) = signature_category(&added, &removed) {
        return cat;
    }

    // 4/5: declaration / initializer changes.
    if let Some(cat) = declaration_category(&added, &removed) {
        return cat;
    }

    // 8: call-statement changes.
    if call_change(&added, &removed) {
        return PatchCategory::FunctionCall;
    }

    PatchCategory::Others
}

/// Classifies a batch and returns the normalized distribution, every
/// category present (possibly 0), in Table V order.
pub fn taxonomy_distribution<'a, I>(patches: I) -> Vec<(PatchCategory, f64)>
where
    I: IntoIterator<Item = &'a Patch>,
{
    let mut counts: HashMap<PatchCategory, usize> = HashMap::new();
    let mut total = 0usize;
    for p in patches {
        *counts.entry(classify_patch(p)).or_insert(0) += 1;
        total += 1;
    }
    ALL_CATEGORIES
        .iter()
        .map(|c| (*c, *counts.get(c).unwrap_or(&0) as f64 / total.max(1) as f64))
        .collect()
}

fn same_multiset(a: &[&str], b: &[&str]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut x: Vec<String> = a.iter().map(|s| s.trim().to_owned()).collect();
    let mut y: Vec<String> = b.iter().map(|s| s.trim().to_owned()).collect();
    x.sort();
    y.sort();
    x == y
}

fn touches_jump(lines: &[&str]) -> bool {
    lines.iter().any(|l| {
        let toks = tokenize(l);
        toks.iter().any(|t| t.is_keyword(Keyword::Goto))
            || (toks.len() == 2 && toks[0].is_ident() && toks[1].is_punct(":")) // label
    })
}

/// Distinguishes the three check categories from the condition tokens of
/// added/changed `if` lines:
/// * null checks mention `NULL`/`nullptr` or negate a bare pointer;
/// * bound checks order-compare two identifier quantities;
/// * everything else (constants, macros, state fields, `%`) is an "other
///   sanity check".
fn check_category(added: &[&str], removed: &[&str]) -> Option<PatchCategory> {
    let added_ifs: Vec<&&str> = added.iter().filter(|l| is_if_line(l)).collect();
    if added_ifs.is_empty() {
        return None;
    }
    // A changed (not purely added) check still counts: Table V says "add
    // OR change".
    let _ = removed;

    let mut votes = [0usize; 3]; // null, bound, sanity
    for l in &added_ifs {
        let toks = tokenize(l);
        let has_null = toks.iter().any(|t| {
            t.text == "NULL" || t.kind == TokenKind::Keyword(Keyword::Nullptr)
        });
        let negates_ident = toks
            .windows(2)
            .any(|w| w[0].is_punct("!") && w[1].kind == TokenKind::Ident);
        if has_null || negates_ident {
            votes[0] += 1;
            continue;
        }
        let rel_between_idents = relational_between_identifiers(&toks);
        if rel_between_idents {
            votes[1] += 1;
        } else {
            votes[2] += 1;
        }
    }
    Some(match votes.iter().enumerate().max_by_key(|(_, v)| **v).expect("3 buckets").0 {
        0 => PatchCategory::NullCheck,
        1 => PatchCategory::BoundCheck,
        _ => PatchCategory::OtherSanityCheck,
    })
}

/// True when a `<,>,<=,>=` compares two lowercase identifier operands
/// (index-vs-length shape) rather than a constant/macro.
fn relational_between_identifiers(toks: &[clang_lite::Token]) -> bool {
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokenKind::Punct && matches!(t.text.as_str(), "<" | ">" | "<=" | ">=") {
            let prev = toks[..i].iter().rev().find(|p| {
                p.kind == TokenKind::Ident || p.is_literal()
            });
            let next = toks[i + 1..].iter().find(|p| {
                p.kind == TokenKind::Ident || p.is_literal()
            });
            let identish = |t: &clang_lite::Token| {
                t.kind == TokenKind::Ident && t.text.to_lowercase() == t.text
            };
            if let (Some(a), Some(b)) = (prev, next) {
                if identish(a) && identish(b) {
                    return true;
                }
            }
        }
    }
    false
}

fn is_if_line(line: &str) -> bool {
    tokenize(line)
        .first()
        .is_some_and(|t| t.is_keyword(Keyword::If))
}

fn signature_category(added: &[&str], removed: &[&str]) -> Option<PatchCategory> {
    for r in removed {
        for a in added {
            if let (Some((rn, rp)), Some((an, ap))) = (signature_parts(r), signature_parts(a)) {
                if rn == an {
                    return Some(if rp != ap {
                        PatchCategory::FunctionParameter
                    } else {
                        PatchCategory::FunctionDeclaration
                    });
                }
            }
        }
    }
    None
}

/// Splits a top-level signature-looking line into (name, params-text).
fn signature_parts(line: &str) -> Option<(String, String)> {
    if line.starts_with([' ', '\t']) {
        return None;
    }
    let toks = tokenize(line);
    let open = toks.iter().position(|t| t.is_punct("("))?;
    if open == 0 || !toks[open - 1].is_ident() {
        return None;
    }
    let first_ok = matches!(
        toks.first()?.kind,
        TokenKind::Ident | TokenKind::Keyword(_)
    );
    if !first_ok || toks.iter().any(|t| t.is_punct(";")) {
        return None;
    }
    let params: Vec<&str> = toks[open + 1..]
        .iter()
        .take_while(|t| !t.is_punct(")"))
        .map(|t| t.text.as_str())
        .collect();
    Some((toks[open - 1].text.clone(), params.join(" ")))
}

fn declaration_category(added: &[&str], removed: &[&str]) -> Option<PatchCategory> {
    for r in removed {
        for a in added {
            let (Some(rd), Some(ad)) = (decl_parts(r), decl_parts(a)) else { continue };
            if rd.name != ad.name {
                continue;
            }
            if rd.ty != ad.ty || rd.array != ad.array {
                return Some(PatchCategory::VariableDefinition);
            }
            if rd.init != ad.init {
                return Some(PatchCategory::VariableValue);
            }
        }
    }
    None
}

#[derive(PartialEq)]
struct Decl {
    ty: String,
    name: String,
    array: Option<String>,
    init: Option<String>,
}

/// Parses a simple local declaration: `type name [N]? (= init)? ;`.
fn decl_parts(line: &str) -> Option<Decl> {
    let toks = tokenize(line);
    let first = toks.first()?;
    let is_type_kw = matches!(first.kind, TokenKind::Keyword(kw) if kw.is_type());
    if !is_type_kw {
        return None;
    }
    // Type = leading run of type keywords; then the declared name.
    let mut i = 0;
    while i < toks.len()
        && matches!(toks[i].kind, TokenKind::Keyword(kw) if kw.is_type())
    {
        i += 1;
    }
    // Skip pointer stars.
    while i < toks.len() && toks[i].is_punct("*") {
        i += 1;
    }
    if i >= toks.len() || !toks[i].is_ident() {
        return None;
    }
    let name = toks[i].text.clone();
    let ty: Vec<&str> = toks[..i].iter().map(|t| t.text.as_str()).collect();
    let mut array = None;
    let mut init = None;
    let mut j = i + 1;
    if j < toks.len() && toks[j].is_punct("[") {
        let inner: Vec<&str> = toks[j + 1..]
            .iter()
            .take_while(|t| !t.is_punct("]"))
            .map(|t| t.text.as_str())
            .collect();
        array = Some(inner.join(""));
        j += inner.len() + 2;
    }
    if j < toks.len() && toks[j].is_punct("=") {
        let rest: Vec<&str> = toks[j + 1..]
            .iter()
            .take_while(|t| !t.is_punct(";"))
            .map(|t| t.text.as_str())
            .collect();
        init = Some(rest.join(" "));
    }
    Some(Decl { ty: ty.join(" "), name, array, init })
}

fn call_change(added: &[&str], removed: &[&str]) -> bool {
    let call_line = |l: &&str| -> bool {
        let toks = tokenize(l);
        toks.windows(2)
            .any(|w| w[0].is_ident() && w[1].is_punct("("))
    };
    added.iter().any(call_line) || removed.iter().any(call_line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use patch_core::{diff_files, Patch};

    fn patch(before: &str, after: &str) -> Patch {
        Patch::builder("c".repeat(40))
            .file(diff_files("t.c", before, after, 3))
            .build()
    }

    #[test]
    fn detects_bound_check() {
        let p = patch(
            "int f(int i, int n) {\n    buf[i] = 1;\n    return 0;\n}\n",
            "int f(int i, int n) {\n    if (i >= n)\n        return -1;\n    buf[i] = 1;\n    return 0;\n}\n",
        );
        assert_eq!(classify_patch(&p), PatchCategory::BoundCheck);
    }

    #[test]
    fn detects_null_check() {
        let p = patch(
            "void f(struct s *p) {\n    use(p);\n}\n",
            "void f(struct s *p) {\n    if (p == NULL)\n        return;\n    use(p);\n}\n",
        );
        assert_eq!(classify_patch(&p), PatchCategory::NullCheck);
        let q = patch(
            "void f(struct s *p) {\n    use(p);\n}\n",
            "void f(struct s *p) {\n    if (!p)\n        return;\n    use(p);\n}\n",
        );
        assert_eq!(classify_patch(&q), PatchCategory::NullCheck);
    }

    #[test]
    fn detects_sanity_check() {
        let p = patch(
            "int f(size_t len) {\n    go(len);\n    return 0;\n}\n",
            "int f(size_t len) {\n    if (len > LEN_MAX || len == 0)\n        return -1;\n    go(len);\n    return 0;\n}\n",
        );
        assert_eq!(classify_patch(&p), PatchCategory::OtherSanityCheck);
    }

    #[test]
    fn detects_variable_definition_change() {
        let p = patch(
            "int f(void) {\n    int n = get();\n    return n;\n}\n",
            "int f(void) {\n    unsigned int n = get();\n    return n;\n}\n",
        );
        assert_eq!(classify_patch(&p), PatchCategory::VariableDefinition);
        let q = patch(
            "int f(void) {\n    char b[16];\n    fill(b);\n    return 0;\n}\n",
            "int f(void) {\n    char b[64];\n    fill(b);\n    return 0;\n}\n",
        );
        assert_eq!(classify_patch(&q), PatchCategory::VariableDefinition);
    }

    #[test]
    fn detects_variable_value_change() {
        let p = patch(
            "int f(void) {\n    char b[16];\n    fill(b);\n    return 0;\n}\n",
            "int f(void) {\n    char b[16] = {0};\n    fill(b);\n    return 0;\n}\n",
        );
        assert_eq!(classify_patch(&p), PatchCategory::VariableValue);
    }

    #[test]
    fn detects_signature_changes() {
        let p = patch(
            "int f(struct s *p)\n{\n    return 0;\n}\n",
            "static int f(struct s *p)\n{\n    return 0;\n}\n",
        );
        assert_eq!(classify_patch(&p), PatchCategory::FunctionDeclaration);
        let q = patch(
            "int f(struct s *p)\n{\n    return 0;\n}\n",
            "int f(struct s *p, size_t n)\n{\n    return 0;\n}\n",
        );
        assert_eq!(classify_patch(&q), PatchCategory::FunctionParameter);
    }

    #[test]
    fn detects_call_change() {
        let p = patch(
            "void f(char *d, char *s) {\n    strcpy(d, s);\n}\n",
            "void f(char *d, char *s) {\n    strlcpy(d, s, sizeof(d));\n}\n",
        );
        assert_eq!(classify_patch(&p), PatchCategory::FunctionCall);
    }

    #[test]
    fn detects_jump_change() {
        let p = patch(
            "int f(void) {\n    if (err())\n        return -1;\n    work();\n    return 0;\n}\n",
            "int f(void) {\n    if (err())\n        goto fail;\n    work();\n    return 0;\nfail:\n    cleanup();\n    return -1;\n}\n",
        );
        assert_eq!(classify_patch(&p), PatchCategory::JumpStatement);
    }

    #[test]
    fn detects_move() {
        let p = patch(
            "void f(void) {\n    a();\n    b();\n    init();\n}\n",
            "void f(void) {\n    init();\n    a();\n    b();\n}\n",
        );
        assert_eq!(classify_patch(&p), PatchCategory::MoveStatement);
    }

    #[test]
    fn detects_redesign() {
        let before = "int f(void) {\n    a1();\n    a2();\n    a3();\n    a4();\n    a5();\n    a6();\n    return 0;\n}\n";
        let after = "int f(void) {\n    b1();\n    b2();\n    b3();\n    b4();\n    b5();\n    b6();\n    return 1;\n}\n";
        assert_eq!(classify_patch(&patch(before, after)), PatchCategory::Redesign);
    }

    #[test]
    fn falls_back_to_others() {
        let p = patch(
            "int f(int x) {\n    return y[x];\n}\n",
            "int f(int x) {\n    return y[(size_t)x];\n}\n",
        );
        assert_eq!(classify_patch(&p), PatchCategory::Others);
    }

    #[test]
    fn distribution_covers_all_categories() {
        let p = patch("void f(){\n    a();\n}\n", "void f(){\n    b();\n}\n");
        let dist = taxonomy_distribution([&p]);
        assert_eq!(dist.len(), 12);
        let total: f64 = dist.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
