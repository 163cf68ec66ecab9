//! Token vocabulary: maps patch tokens to dense ids with frequency
//! capping and an `<unk>` bucket.

use std::collections::HashMap;


/// Reserved id for padding (unused positions).
pub const PAD: u32 = 0;
/// Reserved id for out-of-vocabulary tokens.
pub const UNK: u32 = 1;
/// Reserved id marking an added line.
pub const MARK_ADD: u32 = 2;
/// Reserved id marking a removed line.
pub const MARK_DEL: u32 = 3;
/// Reserved id marking a context line.
pub const MARK_CTX: u32 = 4;
/// First id available for real tokens.
pub const FIRST_FREE: u32 = 5;

/// A frequency-capped token vocabulary.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    map: HashMap<String, u32>,
}

impl Vocabulary {
    /// Builds a vocabulary from token streams, keeping the `cap` most
    /// frequent tokens (ties broken lexicographically for determinism).
    pub fn build<'a, I>(streams: I, cap: usize) -> Self
    where
        I: IntoIterator<Item = &'a [String]>,
    {
        let mut freq: HashMap<&str, usize> = HashMap::new();
        for s in streams {
            for tok in s {
                *freq.entry(tok.as_str()).or_insert(0) += 1;
            }
        }
        let mut ranked: Vec<(&str, usize)> = freq.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        ranked.truncate(cap);
        let map = ranked
            .into_iter()
            .enumerate()
            .map(|(i, (tok, _))| (tok.to_owned(), FIRST_FREE + i as u32))
            .collect();
        Vocabulary { map }
    }

    /// Total id space (reserved ids + learned tokens); the embedding table
    /// must have at least this many rows.
    pub fn size(&self) -> usize {
        FIRST_FREE as usize + self.map.len()
    }

    /// Maps one token to its id (or [`UNK`]).
    pub fn id(&self, token: &str) -> u32 {
        self.map.get(token).copied().unwrap_or(UNK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streams() -> Vec<Vec<String>> {
        vec![
            vec!["if".into(), "(".into(), "x".into(), ")".into()],
            vec!["if".into(), "(".into(), "y".into(), ")".into()],
        ]
    }

    #[test]
    fn frequent_tokens_win_cap() {
        let s = streams();
        let refs: Vec<&[String]> = s.iter().map(Vec::as_slice).collect();
        let v = Vocabulary::build(refs.iter().copied(), 2);
        assert_eq!(v.size(), FIRST_FREE as usize + 2);
        // `if` and `(` (freq 2) beat `x`/`y` (freq 1); `)` ties `(` at 2 —
        // lexicographic tiebreak keeps `(` and `)`.
        assert_ne!(v.id("("), UNK);
        assert_eq!(v.id("x"), UNK);
    }

    #[test]
    fn deterministic_ids() {
        let s = streams();
        let refs: Vec<&[String]> = s.iter().map(Vec::as_slice).collect();
        let a = Vocabulary::build(refs.iter().copied(), 10);
        let b = Vocabulary::build(refs.iter().copied(), 10);
        assert_eq!(a.id("if"), b.id("if"));
        assert_eq!(a.size(), b.size());
    }

    #[test]
    fn reserved_ids_do_not_collide() {
        let s = streams();
        let refs: Vec<&[String]> = s.iter().map(Vec::as_slice).collect();
        let v = Vocabulary::build(refs.iter().copied(), 10);
        for tok in ["if", "(", ")", "x", "y"] {
            assert!(v.id(tok) >= FIRST_FREE || v.id(tok) == UNK);
        }
    }

    #[test]
    fn empty_vocabulary() {
        let v = Vocabulary::build(std::iter::empty(), 10);
        assert_eq!(v.size(), FIRST_FREE as usize);
        assert_eq!(v.id("anything"), UNK);
    }
}
