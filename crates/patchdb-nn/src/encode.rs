//! Patch → token-id sequence encoding: "the source code of a given patch
//! as a list of tokens including keywords, identifiers, operators, etc."
//! (Section IV-C), with line-kind markers so the model can tell added from
//! removed code.

use clang_lite::tokenize;
use patch_core::{LineKind, Patch};

use crate::vocab::{Vocabulary, MARK_ADD, MARK_CTX, MARK_DEL};

/// A dense token-id sequence ready for the RNN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenSequence {
    ids: Vec<u32>,
}

impl TokenSequence {
    /// Wraps raw ids.
    pub fn new(ids: Vec<u32>) -> Self {
        TokenSequence { ids }
    }

    /// The ids.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Sequence length.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Extracts the raw token texts of a patch, with `⟨add⟩`/`⟨del⟩`/`⟨ctx⟩`
/// sentinel strings prefixed per line; used to build vocabularies.
pub fn patch_token_texts(patch: &Patch) -> Vec<String> {
    let mut out = Vec::new();
    for hunk in patch.hunks() {
        for line in &hunk.lines {
            out.push(
                match line.kind {
                    LineKind::Added => "⟨add⟩",
                    LineKind::Removed => "⟨del⟩",
                    LineKind::Context => "⟨ctx⟩",
                }
                .to_owned(),
            );
            for t in tokenize(&line.content) {
                out.push(t.text);
            }
        }
    }
    out
}

/// Encodes a patch against a vocabulary. Sentinels map to the reserved
/// marker ids rather than going through the vocabulary.
pub fn encode_patch(patch: &Patch, vocab: &Vocabulary) -> TokenSequence {
    let mut ids = Vec::new();
    for hunk in patch.hunks() {
        for line in &hunk.lines {
            ids.push(match line.kind {
                LineKind::Added => MARK_ADD,
                LineKind::Removed => MARK_DEL,
                LineKind::Context => MARK_CTX,
            });
            for t in tokenize(&line.content) {
                ids.push(vocab.id(&t.text));
            }
        }
    }
    TokenSequence { ids }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patch_core::diff_files;

    fn sample_patch() -> Patch {
        Patch::builder("0".repeat(40))
            .file(diff_files(
                "a.c",
                "int f() {\n  return 1;\n}\n",
                "int f() {\n  if (g())\n    return 0;\n  return 1;\n}\n",
                3,
            ))
            .build()
    }

    #[test]
    fn texts_include_markers_and_tokens() {
        let texts = patch_token_texts(&sample_patch());
        assert!(texts.contains(&"⟨add⟩".to_owned()));
        assert!(texts.contains(&"if".to_owned()));
        assert!(texts.contains(&"return".to_owned()));
    }

    #[test]
    fn encode_round_trips_known_tokens() {
        let p = sample_patch();
        let texts = vec![patch_token_texts(&p)];
        let refs: Vec<&[String]> = texts.iter().map(Vec::as_slice).collect();
        let vocab = Vocabulary::build(refs.iter().copied(), 100);
        let seq = encode_patch(&p, &vocab);
        assert!(!seq.is_empty());
        assert!(seq.ids().contains(&MARK_ADD));
        // Every id is in range.
        assert!(seq.ids().iter().all(|&i| (i as usize) < vocab.size()));
    }
}
