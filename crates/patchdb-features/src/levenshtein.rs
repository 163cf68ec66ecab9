//! Generic Levenshtein edit distance, used by Table I features 49–56 to
//! measure intra-hunk before/after similarity at the token level.

/// Computes the Levenshtein distance between two sequences.
///
/// The common prefix and suffix are stripped first: edit distance does
/// not change under that strip, and the before/after sides of a hunk
/// share their leading and trailing context. What remains goes through
/// the classic two-row dynamic program: O(|a'|·|b'|) time and
/// O(min(|a'|,|b'|)) space over the stripped middles `a'`, `b'`.
///
/// ```rust
/// use patchdb_features::levenshtein;
/// assert_eq!(levenshtein(b"kitten", b"sitting"), 3);
/// assert_eq!(levenshtein::<u8>(&[], &[]), 0);
/// ```
pub fn levenshtein<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[prefix..], &b[prefix..]);
    let suffix = a.iter().rev().zip(b.iter().rev()).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[..a.len() - suffix], &b[..b.len() - suffix]);

    // Keep the shorter sequence as the DP row.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }

    let mut row: Vec<usize> = (0..=short.len()).collect();
    for (i, lv) in long.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, sv) in short.iter().enumerate() {
            let cost = usize::from(lv != sv);
            let next = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[short.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_examples() {
        assert_eq!(levenshtein(b"kitten", b"sitting"), 3);
        assert_eq!(levenshtein(b"flaw", b"lawn"), 2);
        assert_eq!(levenshtein(b"abc", b"abc"), 0);
    }

    #[test]
    fn empty_cases() {
        assert_eq!(levenshtein::<char>(&[], &[]), 0);
        assert_eq!(levenshtein(&[] as &[u8], b"xyz"), 3);
        assert_eq!(levenshtein(b"xyz", &[] as &[u8]), 3);
    }

    #[test]
    fn works_on_token_slices() {
        let a = ["if", "(", "x", ")"];
        let b = ["if", "(", "x", "&&", "y", ")"];
        assert_eq!(levenshtein(&a, &b), 2);
    }

    #[test]
    fn symmetric() {
        assert_eq!(levenshtein(b"abcdef", b"azced"), levenshtein(b"azced", b"abcdef"));
    }

    #[test]
    fn triangle_inequality_spot_check() {
        let (a, b, c) = (b"abcd".as_slice(), b"axcd".as_slice(), b"xycd".as_slice());
        assert!(levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c));
    }
}
