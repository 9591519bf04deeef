//! Ranking and unranking of labels: lexicographic index ↔ label, for
//! permutations (Cayley-graph labels) and multiset arrangements (general
//! IP-graph labels).
//!
//! When an IP graph's node set is the *full* arrangement orbit of its seed
//! multiset (true for star/pancake graphs and, blockwise, for every
//! super-IP family in this workspace), ranking gives an `O(k²)`,
//! allocation-free node-id computation — an alternative to the hash-based
//! interning the generator uses, and the basis for compact routing-table
//! indexing.

/// Number of distinct arrangements of a multiset given per-symbol counts:
/// `(Σc)! / Π cᵢ!`. Panics on u64 overflow (labels ≤ 20 distinct-symbol
/// positions are always safe).
pub fn multiset_count(counts: &[u32]) -> u64 {
    let total: u32 = counts.iter().sum();
    // incremental binomial product avoids intermediate factorial overflow:
    // C(total, c1)·C(total−c1, c2)·…
    let mut remaining = total;
    let mut result: u64 = 1;
    for &c in counts {
        result = result
            .checked_mul(binomial(remaining, c))
            // ipg-analyze: allow(PANIC001) reason="deliberate overflow guard: label spaces past u64 are unsupported"
            .expect("multiset count overflows u64");
        remaining -= c;
    }
    result
}

fn binomial(n: u32, k: u32) -> u64 {
    let k = k.min(n - k.min(n));
    let mut num: u64 = 1;
    for i in 0..k as u64 {
        num = num
            .checked_mul(n as u64 - i)
            // ipg-analyze: allow(PANIC001) reason="deliberate overflow guard: label spaces past u64 are unsupported"
            .expect("binomial overflows u64")
            / (i + 1);
    }
    num
}

/// Lexicographic rank of `label` among all arrangements of its multiset.
///
/// Right to left, keeping `arr`, the arrangement count of the suffix
/// `label[i..]`: adding `s = label[i]` multiplies it by `len / same`
/// (`len` suffix positions, `same` of them holding `s`), and the
/// arrangements that put a smaller symbol at `i` number
/// `arr · smaller / len`. `O(k²)` byte compares and no count table.
/// Exact while the multiset's arrangement count fits in `u64`.
pub fn multiset_rank(label: &[u8]) -> u64 {
    // `a · b / c` for exact quotients whose product may pass u64.
    let mul_div = |a: u64, b: u64, c: u64| match a.checked_mul(b) {
        Some(p) => p / c,
        None => (u128::from(a) * u128::from(b) / u128::from(c)) as u64,
    };
    let (mut rank, mut arr) = (0u64, 1u64);
    for i in (0..label.len()).rev() {
        let s = label[i];
        let suffix = &label[i..];
        let len = suffix.len() as u64;
        let same = suffix.iter().filter(|&&t| t == s).count() as u64;
        let smaller = suffix.iter().filter(|&&t| t < s).count() as u64;
        arr = mul_div(arr, len, same);
        rank += mul_div(arr, smaller, len);
    }
    rank
}

fn arrangements_of(counts: &[u32; 256], total: u32) -> u64 {
    debug_assert_eq!(counts.iter().sum::<u32>(), total);
    let mut remaining = total;
    let mut result: u64 = 1;
    for &c in counts.iter().filter(|&&c| c > 0) {
        result *= binomial(remaining, c);
        remaining -= c;
    }
    result
}

/// Inverse of [`multiset_rank`]: the `rank`-th arrangement (lexicographic)
/// of the multiset given by `counts` (`counts[s]` = multiplicity of symbol
/// `s`). Returns `None` if `rank` is out of range.
pub fn multiset_unrank(counts: &[u32], rank: u64) -> Option<Vec<u8>> {
    assert!(counts.len() <= 256);
    let mut cnt = [0u32; 256];
    cnt[..counts.len()].copy_from_slice(counts);
    let total: u32 = counts.iter().sum();
    if rank >= multiset_count(counts) {
        return None;
    }
    let mut rank = rank;
    let mut out = Vec::with_capacity(total as usize);
    for pos in 0..total {
        let remaining = total - pos;
        let mut placed = false;
        for s in 0..256usize {
            if cnt[s] == 0 {
                continue;
            }
            cnt[s] -= 1;
            let block = arrangements_of(&cnt, remaining - 1);
            if rank < block {
                out.push(s as u8);
                placed = true;
                break;
            }
            rank -= block;
            cnt[s] += 1;
        }
        debug_assert!(placed, "rank exhausted prematurely");
    }
    Some(out)
}

/// Lexicographic rank of a permutation label (all symbols distinct) —
/// the factoradic specialization of [`multiset_rank`], computed as a
/// Lehmer code in `O(k²)` with no allocation and no symbol-count table.
/// Any ordered symbol type works (a [`crate::perm::Perm`] image ranks as
/// is); the rank must fit `u64`, so `k ≤ 20`.
pub fn perm_rank<T: Ord>(label: &[T]) -> u64 {
    debug_assert!(
        label
            .iter()
            .enumerate()
            .all(|(i, s)| !label[i + 1..].contains(s)),
        "perm_rank needs distinct symbols"
    );
    // Horner form of Σ_i c_i·(k−1−i)!, where the Lehmer digit c_i counts
    // the smaller symbols to the right of position i.
    let k = label.len();
    let mut rank = 0u64;
    for (i, s) in label.iter().enumerate() {
        let smaller = label[i + 1..].iter().filter(|t| *t < s).count();
        rank = rank * (k - i) as u64 + smaller as u64;
    }
    rank
}

/// The `rank`-th permutation (lexicographic) of the sorted symbol slice.
pub fn perm_unrank(symbols: &[u8], rank: u64) -> Option<Vec<u8>> {
    let mut counts = [0u32; 256];
    for &s in symbols {
        counts[s as usize] += 1;
    }
    multiset_unrank(&counts, rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        assert_eq!(multiset_count(&[1, 1, 1]), 6); // 3 distinct
        assert_eq!(multiset_count(&[2, 2]), 6); // aabb arrangements
        assert_eq!(multiset_count(&[3]), 1);
        // HCN(2,2)-style label: 2 of each of 4 symbols
        assert_eq!(multiset_count(&[2, 2, 2, 2]), 2520);
    }

    #[test]
    fn rank_first_and_last() {
        assert_eq!(multiset_rank(&[0, 0, 1, 1]), 0);
        assert_eq!(multiset_rank(&[1, 1, 0, 0]), 5);
        assert_eq!(multiset_rank(&[1, 2, 3]), 0);
        assert_eq!(multiset_rank(&[3, 2, 1]), 5);
    }

    #[test]
    fn rank_unrank_roundtrip_multiset() {
        let counts = [2u32, 1, 2];
        let total = multiset_count(&counts);
        assert_eq!(total, 30);
        let mut prev: Option<Vec<u8>> = None;
        for r in 0..total {
            let label = multiset_unrank(&counts, r).unwrap();
            assert_eq!(multiset_rank(&label), r);
            if let Some(p) = &prev {
                assert!(p < &label, "lexicographic order violated at {r}");
            }
            prev = Some(label);
        }
        assert_eq!(multiset_unrank(&counts, total), None);
    }

    #[test]
    fn rank_inverts_unrank_on_assorted_multisets() {
        // gaps in the symbol range, one heavy symbol, all distinct
        for counts in [&[3, 0, 2][..], &[1, 5, 1], &[1; 6], &[2, 2, 2, 1]] {
            for r in 0..multiset_count(counts) {
                let label = multiset_unrank(counts, r).unwrap();
                assert_eq!(multiset_rank(&label), r, "{counts:?} rank {r}");
            }
        }
        // a colour-shifted block ranks like its unshifted copy
        let counts = [1u32, 2, 1, 1, 1, 1, 1];
        for r in (0..multiset_count(&counts)).step_by(7) {
            let label = multiset_unrank(&counts, r).unwrap();
            let shifted: Vec<u8> = label.iter().map(|&s| s + 33).collect();
            assert_eq!(multiset_rank(&shifted), r, "shifted rank {r}");
        }
    }

    #[test]
    fn perm_rank_factoradic() {
        // 4-symbol permutations of 1234: rank of 1234 is 0, of 4321 is 23.
        assert_eq!(perm_rank(&[1, 2, 3, 4]), 0);
        assert_eq!(perm_rank(&[4, 3, 2, 1]), 23);
        assert_eq!(perm_unrank(&[1, 2, 3, 4], 0).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(perm_unrank(&[1, 2, 3, 4], 23).unwrap(), vec![4, 3, 2, 1]);
    }

    #[test]
    fn perm_rank_matches_multiset_rank_exhaustively() {
        // every permutation of length 1..=7, enumerated in rank order
        for k in 1..=7u8 {
            let symbols: Vec<u8> = (0..k).collect();
            let total: u64 = (1..=u64::from(k)).product();
            for r in 0..total {
                let p = perm_unrank(&symbols, r).unwrap();
                assert_eq!(perm_rank(&p), multiset_rank(&p), "{p:?}");
                assert_eq!(perm_rank(&p), r, "{p:?}");
                let wide: Vec<u16> = p.iter().map(|&s| u16::from(s)).collect();
                assert_eq!(perm_rank(&wide), r, "{wide:?}");
            }
            assert_eq!(perm_unrank(&symbols, total), None);
        }
    }

    #[test]
    fn ranks_cover_star_graph() {
        // all 120 labels of the 5-star get distinct ranks < 120
        let ip = crate::spec::IpGraphSpec::star(5).generate().unwrap();
        let mut seen = [false; 120];
        for v in 0..ip.node_count() as u32 {
            let r = perm_rank(ip.label(v).symbols()) as usize;
            assert!(r < 120);
            assert!(!seen[r]);
            seen[r] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn ranks_cover_section2_orbit_subset() {
        // the §2 example's orbit (36 nodes) is a strict subset of its
        // multiset's 90 arrangements; ranks are distinct and < 90.
        let ip = crate::spec::IpGraphSpec::section2_example()
            .generate()
            .unwrap();
        let mut ranks: Vec<u64> = (0..ip.node_count() as u32)
            .map(|v| multiset_rank(ip.label(v).symbols()))
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), 36);
        assert!(*ranks.last().unwrap() < 90);
        assert_eq!(multiset_count(&[0, 2, 2, 2]), 90);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(10, 3), 120);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
    }
}
