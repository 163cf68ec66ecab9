//! Commit identifiers: 20-byte SHA-1-shaped hashes, as used by Git and by
//! the PatchDB paper ("each patch is identified by a 20-byte long hash").

use std::fmt;
use std::str::FromStr;


use crate::error::ParsePatchError;

/// A 20-byte commit identifier rendered as 40 lowercase hex characters.
///
/// The synthetic forge in `patchdb-corpus` mints these deterministically;
/// the parser accepts any 40-hex-digit string on a `commit` header line.
///
/// ```rust
/// use patch_core::CommitId;
/// let id: CommitId = "b84c2cab55948a5ee70860779b2640913e3ee1ed".parse().unwrap();
/// assert_eq!(id.to_string().len(), 40);
/// assert_eq!(id.short(), "b84c2cab");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommitId([u8; 20]);

impl CommitId {
    /// Creates an identifier from its raw 20 bytes.
    pub fn from_bytes(bytes: [u8; 20]) -> Self {
        CommitId(bytes)
    }

    /// Derives a commit id deterministically from a 64-bit seed.
    ///
    /// Used by the synthetic corpus so that regeneration with the same seed
    /// yields byte-identical commit hashes. The expansion is an xorshift-mix
    /// chain, not a cryptographic hash; collisions across distinct seeds are
    /// astronomically unlikely for corpus-scale inputs.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut bytes = [0u8; 20];
        for chunk in bytes.chunks_mut(8) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            for (b, s) in chunk.iter_mut().zip(state.to_le_bytes()) {
                *b = s;
            }
        }
        CommitId(bytes)
    }

    /// Returns the raw bytes of the identifier.
    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Returns the conventional 8-character abbreviated form.
    pub fn short(&self) -> String {
        self.to_string()[..8].to_owned()
    }

    /// Calls `f` with the 40 lowercase hex digits, built on the stack.
    fn with_hex<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut digits = [0u8; 40];
        for (pair, &b) in digits.chunks_exact_mut(2).zip(&self.0) {
            pair[0] = HEX[usize::from(b >> 4)];
            pair[1] = HEX[usize::from(b & 0xf)];
        }
        f(std::str::from_utf8(&digits).expect("hex digits are ASCII"))
    }
}

impl fmt::Display for CommitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_hex(|hex| f.write_str(hex))
    }
}

impl fmt::Debug for CommitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CommitId({self})")
    }
}

impl FromStr for CommitId {
    type Err = ParsePatchError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 40 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(ParsePatchError::InvalidCommitId(s.to_owned()));
        }
        let mut bytes = [0u8; 20];
        for (i, byte) in bytes.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&s[2 * i..2 * i + 2], 16)
                .map_err(|_| ParsePatchError::InvalidCommitId(s.to_owned()))?;
        }
        Ok(CommitId(bytes))
    }
}

impl patchdb_rt::json::ToJson for CommitId {
    fn write_json(&self, w: &mut patchdb_rt::json::Writer) {
        self.with_hex(|hex| w.str(hex));
    }
}

impl patchdb_rt::json::FromJson for CommitId {
    fn from_json(v: &patchdb_rt::json::Json) -> patchdb_rt::json::Result<Self> {
        let s = v
            .as_str()
            .ok_or_else(|| patchdb_rt::json::JsonError::new("expected commit id string"))?;
        s.parse().map_err(|e| patchdb_rt::json::JsonError::new(format!("{e:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let id = CommitId::from_seed(42);
        let text = id.to_string();
        let back: CommitId = text.parse().unwrap();
        assert_eq!(id, back);
    }

    #[test]
    fn from_seed_is_deterministic() {
        assert_eq!(CommitId::from_seed(7), CommitId::from_seed(7));
        assert_ne!(CommitId::from_seed(7), CommitId::from_seed(8));
    }

    #[test]
    fn rejects_bad_hex() {
        assert!("xyz".parse::<CommitId>().is_err());
        assert!("b84c2cab".parse::<CommitId>().is_err()); // too short
        let bad = "g".repeat(40);
        assert!(bad.parse::<CommitId>().is_err());
    }

    #[test]
    fn short_form() {
        let id: CommitId = "b84c2cab55948a5ee70860779b2640913e3ee1ed".parse().unwrap();
        assert_eq!(id.short(), "b84c2cab");
    }

    #[test]
    fn json_round_trip() {
        use patchdb_rt::json::{to_compact_string, FromJson, Json};
        let id = CommitId::from_seed(99);
        let json = to_compact_string(&id);
        assert_eq!(json, format!("\"{id}\""));
        let back = CommitId::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(id, back);
    }
}
