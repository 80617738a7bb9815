//! Jaro string similarity and name-based pre-clustering.
//!
//! Sieve warm-starts k-Shape by pre-clustering metrics "according to their
//! name similarity (e.g., Jaro distance)" because developers tend to use
//! naming conventions (`cpu_usage`, `cpu_usage_percentile`, ...) for related
//! metrics (§3.2). The warm start only affects convergence speed, never the
//! final clustering quality.

/// Jaro similarity between two strings, in `[0, 1]` (1 for identical
/// strings, 0 for no matching characters).
///
/// ```
/// let s = sieve_cluster::jaro::jaro_similarity("cpu_usage", "cpu_usage_percentile");
/// assert!(s > 0.8);
/// assert_eq!(sieve_cluster::jaro::jaro_similarity("abc", "abc"), 1.0);
/// ```
pub fn jaro_similarity(a: &str, b: &str) -> f64 {
    Decoded::new(a).similarity(&Decoded::new(b))
}

/// A name as Jaro compares it, decoded once: its bytes when it is ASCII
/// (one byte per character), its `char`s otherwise.
#[derive(Debug, Clone)]
enum Decoded<'a> {
    Ascii(&'a [u8]),
    Chars(Vec<char>),
}

impl<'a> Decoded<'a> {
    fn new(name: &'a str) -> Self {
        if name.is_ascii() {
            Self::Ascii(name.as_bytes())
        } else {
            Self::Chars(name.chars().collect())
        }
    }

    /// Number of characters.
    fn len(&self) -> usize {
        match self {
            Self::Ascii(bytes) => bytes.len(),
            Self::Chars(chars) => chars.len(),
        }
    }

    /// `jaro_similarity(self, other)` over the decoded characters.
    fn similarity(&self, other: &Decoded<'_>) -> f64 {
        let (a_len, b_len) = (self.len(), other.len());
        if a_len == 0 && b_len == 0 {
            return 1.0;
        }
        if a_len == 0 || b_len == 0 {
            return 0.0;
        }
        let (matches, mismatched) = match (self, other) {
            (Self::Ascii(a), Decoded::Ascii(b)) => matching(a, b),
            (Self::Ascii(a), Decoded::Chars(b)) => matching(a, b),
            (Self::Chars(a), Decoded::Ascii(b)) => matching(a, b),
            (Self::Chars(a), Decoded::Chars(b)) => matching(a, b),
        };
        if matches == 0 {
            return 0.0;
        }
        let m = matches as f64;
        let transpositions = mismatched / 2;
        (m / a_len as f64 + m / b_len as f64 + (m - transpositions as f64) / m) / 3.0
    }
}

/// The Jaro matching of two non-empty character sequences: the number of
/// matching characters, and how many of the matched characters of `a`
/// differ from the matched character of `b` of the same rank (the
/// transpositions are half of that, rounded down). Each `a[i]` in turn
/// matches the first unmatched `b[j]` holding the same character within
/// the match window.
///
/// The matched flags are bits in words on the stack (heap words only for
/// names whose flags need more than eight words together), so a call
/// allocates nothing.
fn matching<A: Copy + Into<char>, B: Copy + Into<char>>(a: &[A], b: &[B]) -> (usize, usize) {
    let (a_words, b_words) = (a.len().div_ceil(64), b.len().div_ceil(64));
    let mut stack = [0u64; 8];
    let mut heap = Vec::new();
    let words = if a_words + b_words <= stack.len() {
        &mut stack[..a_words + b_words]
    } else {
        heap.resize(a_words + b_words, 0u64);
        &mut heap[..]
    };
    let (a_matched, b_matched) = words.split_at_mut(a_words);
    let is_set = |flags: &[u64], i: usize| flags[i / 64] >> (i % 64) & 1 == 1;
    let set = |flags: &mut [u64], i: usize| flags[i / 64] |= 1 << (i % 64);

    let match_window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut matches = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(match_window);
        let hi = (i + match_window + 1).min(b.len());
        for (j, &cb) in b.iter().enumerate().take(hi).skip(lo) {
            if cb.into() == ca.into() && !is_set(b_matched, j) {
                set(a_matched, i);
                set(b_matched, j);
                matches += 1;
                break;
            }
        }
    }
    let mut b_matches = (0..b.len()).filter(|&j| is_set(b_matched, j));
    let mut mismatched = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        if is_set(a_matched, i) {
            let j = b_matches.next().expect("as many matched in b as in a");
            mismatched += usize::from(b[j].into() != ca.into());
        }
    }
    (matches, mismatched)
}

/// The Jaro similarity at or above which a name joins a group's leader —
/// the one value every caller of the pre-clustering has used.
const NAME_SIMILARITY_THRESHOLD: f64 = 0.8;

/// The part of the name pre-clustering that does not depend on `k`: the
/// greedy leader grouping of one component's metric names.
///
/// A greedy leader algorithm forms groups of names whose Jaro similarity to
/// the group leader is at least 0.8. That pass — one similarity per name and
/// leader — is nearly the whole cost of a pre-clustering and is the same
/// for every `k`, so the k sweep builds one
/// `NameGroups` per component and asks it for each `k`'s
/// [`assignment`](NameGroups::assignment), which only merges or splits a
/// copy of the groups.
#[derive(Debug, Clone)]
pub struct NameGroups<'a> {
    /// Every name, decoded once for all the similarities it takes part in.
    names: Vec<Decoded<'a>>,
    /// Index of each group's leader in `names`, in order of appearance.
    leaders: Vec<usize>,
    /// Member indices of each group, leader first.
    groups: Vec<Vec<usize>>,
    /// Group indices, largest group first (ties in order of appearance).
    by_size: Vec<usize>,
    /// `leader_similarity[g * leaders.len() + b]` is
    /// `jaro_similarity(names[leaders[g]], names[leaders[b]])`, evaluated
    /// when a merge first asks for it. A cell is only ever filled from its
    /// own argument order (a merge compares a surplus group against a larger
    /// one, never the reverse), so nothing rests on the similarity being
    /// symmetric bit for bit.
    leader_similarity: Vec<Option<f64>>,
}

impl<'a> NameGroups<'a> {
    /// Groups `names`: each name joins the group whose leader it is most
    /// similar to (the first such group on ties) if that similarity is at
    /// least 0.8, and otherwise leads a new group.
    pub fn new(names: &[&'a str]) -> Self {
        let names: Vec<Decoded<'a>> = names.iter().map(|name| Decoded::new(name)).collect();
        let mut leaders: Vec<usize> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let mut best: Option<(usize, f64)> = None;
            for (g, &leader) in leaders.iter().enumerate() {
                let sim = name.similarity(&names[leader]);
                if sim >= NAME_SIMILARITY_THRESHOLD && best.map_or(true, |(_, b)| sim > b) {
                    best = Some((g, sim));
                }
            }
            match best {
                Some((g, _)) => groups[g].push(i),
                None => {
                    leaders.push(i);
                    groups.push(vec![i]);
                }
            }
        }
        let mut by_size: Vec<usize> = (0..groups.len()).collect();
        by_size.sort_by_key(|&g| std::cmp::Reverse(groups[g].len()));
        let leader_similarity = vec![None; leaders.len() * leaders.len()];
        Self {
            names,
            leaders,
            groups,
            by_size,
            leader_similarity,
        }
    }

    /// Adjusts the groups to exactly `k` initial clusters: surplus groups
    /// are merged into their most-similar retained group (the `k` largest
    /// are retained, compared by leader similarity), and missing clusters
    /// are created by splitting the largest groups.
    ///
    /// Returns one cluster index in `0..k` per name (`k` capped at the
    /// number of names). Returns an empty vector when there are no names or
    /// `k == 0`. The stored groups are not changed: any order of calls
    /// yields what a fresh grouping would.
    pub fn assignment(&mut self, k: usize) -> Vec<usize> {
        if self.names.is_empty() || k == 0 {
            return Vec::new();
        }
        let k = k.min(self.names.len());

        // Too many groups: keep the k largest as bases, merge the rest into
        // the most-similar base (by leader similarity).
        let mut groups: Vec<Vec<usize>> = if self.groups.len() > k {
            let (bases, surplus) = self.by_size.split_at(k);
            let mut merged: Vec<Vec<usize>> =
                bases.iter().map(|&g| self.groups[g].clone()).collect();
            let width = self.leaders.len();
            for &g in surplus {
                let mut best = 0usize;
                let mut best_sim = f64::NEG_INFINITY;
                for (bi, &b) in bases.iter().enumerate() {
                    let sim = *self.leader_similarity[g * width + b].get_or_insert_with(|| {
                        self.names[self.leaders[g]].similarity(&self.names[self.leaders[b]])
                    });
                    if sim > best_sim {
                        best_sim = sim;
                        best = bi;
                    }
                }
                merged[best].extend_from_slice(&self.groups[g]);
            }
            merged
        } else {
            self.groups.clone()
        };

        // Too few groups: split the largest group until we have k.
        while groups.len() < k {
            let (largest_idx, _) = groups
                .iter()
                .enumerate()
                .max_by_key(|(_, g)| g.len())
                .expect("at least one group");
            if groups[largest_idx].len() < 2 {
                // Cannot split further; duplicate an empty group (will be fixed
                // by the k-Shape iterations).
                groups.push(Vec::new());
                continue;
            }
            let half = groups[largest_idx].len() / 2;
            let tail = groups[largest_idx].split_off(half);
            groups.push(tail);
        }

        let mut assignment = vec![0usize; self.names.len()];
        for (cluster, group) in groups.iter().enumerate() {
            for &idx in group {
                assignment[idx] = cluster;
            }
        }
        assignment
    }
}

/// Groups metric names into exactly `k` initial clusters by name similarity:
/// a [`NameGroups`] asked for one `k`. A caller that needs several `k` over
/// the same names builds the [`NameGroups`] once.
///
/// Returns one cluster index in `0..k` per input name. Returns an empty
/// vector when `names` is empty or `k == 0`.
pub fn pre_cluster_names(names: &[&str], k: usize) -> Vec<usize> {
    NameGroups::new(names).assignment(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_strings_have_similarity_one() {
        assert_eq!(jaro_similarity("mongodb_queries", "mongodb_queries"), 1.0);
        assert_eq!(jaro_similarity("x", "x"), 1.0);
    }

    #[test]
    fn disjoint_strings_have_similarity_zero() {
        assert_eq!(jaro_similarity("abc", "xyz"), 0.0);
    }

    #[test]
    fn empty_string_cases() {
        assert_eq!(jaro_similarity("", ""), 1.0);
        assert_eq!(jaro_similarity("", "abc"), 0.0);
        assert_eq!(jaro_similarity("abc", ""), 0.0);
    }

    #[test]
    fn known_jaro_values() {
        // Classic textbook examples.
        let s = jaro_similarity("MARTHA", "MARHTA");
        assert!((s - 0.944444).abs() < 1e-4, "got {s}");
        let s = jaro_similarity("DIXON", "DICKSONX");
        assert!((s - 0.766666).abs() < 1e-4, "got {s}");
        let s = jaro_similarity("JELLYFISH", "SMELLYFISH");
        assert!((s - 0.896296).abs() < 1e-4, "got {s}");
    }

    #[test]
    fn similarity_is_symmetric() {
        let pairs = [
            ("cpu_usage", "cpu_usage_total"),
            ("net_rx_bytes", "net_tx_bytes"),
            ("queue_depth", "heap_used"),
        ];
        for (a, b) in pairs {
            assert!((jaro_similarity(a, b) - jaro_similarity(b, a)).abs() < 1e-12);
        }
    }

    #[test]
    fn related_metric_names_are_more_similar_than_unrelated() {
        let related = jaro_similarity("cpu_usage", "cpu_usage_percentile");
        let unrelated = jaro_similarity("cpu_usage", "http_requests_total");
        assert!(related > unrelated);
    }

    #[test]
    fn pre_cluster_groups_similar_names_together() {
        let names = vec![
            "cpu_usage",
            "cpu_usage_system",
            "cpu_usage_user",
            "net_bytes_recv",
            "net_bytes_sent",
            "http_request_latency_mean",
        ];
        let assignment = pre_cluster_names(&names, 3);
        assert_eq!(assignment.len(), names.len());
        assert!(assignment.iter().all(|&c| c < 3));
        // The three cpu_usage* metrics end up together.
        assert_eq!(assignment[0], assignment[1]);
        assert_eq!(assignment[0], assignment[2]);
        // The two net_bytes* metrics end up together.
        assert_eq!(assignment[3], assignment[4]);
    }

    #[test]
    fn pre_cluster_produces_exactly_k_cluster_indices() {
        let names: Vec<String> = (0..20).map(|i| format!("metric_{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        for k in 1..=7 {
            let assignment = pre_cluster_names(&refs, k);
            assert!(assignment.iter().all(|&c| c < k));
            // Every index is within range and at least one cluster is used.
            assert!(!assignment.is_empty());
        }
    }

    #[test]
    fn pre_cluster_handles_more_clusters_than_names() {
        let assignment = pre_cluster_names(&["a", "b"], 10);
        assert_eq!(assignment.len(), 2);
        assert!(assignment.iter().all(|&c| c < 2));
    }

    #[test]
    fn pre_cluster_empty_input() {
        assert!(pre_cluster_names(&[], 3).is_empty());
        assert!(pre_cluster_names(&["a"], 0).is_empty());
    }

    /// The pre-clustering as it was before the `k`-independent part moved
    /// into [`NameGroups`]: one function, everything recomputed per call.
    /// Kept verbatim as the reference the split version must equal.
    fn reference_pre_cluster(names: &[&str], k: usize) -> Vec<usize> {
        if names.is_empty() || k == 0 {
            return Vec::new();
        }
        let k = k.min(names.len());

        // Greedy leader clustering.
        let mut leaders: Vec<usize> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let mut best: Option<(usize, f64)> = None;
            for (g, &leader) in leaders.iter().enumerate() {
                let sim = jaro_similarity(name, names[leader]);
                if sim >= 0.8 && best.map_or(true, |(_, b)| sim > b) {
                    best = Some((g, sim));
                }
            }
            match best {
                Some((g, _)) => groups[g].push(i),
                None => {
                    leaders.push(i);
                    groups.push(vec![i]);
                }
            }
        }

        // Too many groups: keep the k largest as bases, merge the rest into the
        // most-similar base (by leader similarity).
        if groups.len() > k {
            let mut order: Vec<usize> = (0..groups.len()).collect();
            order.sort_by_key(|&g| std::cmp::Reverse(groups[g].len()));
            let bases: Vec<usize> = order[..k].to_vec();
            let mut merged: Vec<Vec<usize>> = bases.iter().map(|&g| groups[g].clone()).collect();
            for &g in &order[k..] {
                let leader = leaders[g];
                let mut best = 0usize;
                let mut best_sim = f64::NEG_INFINITY;
                for (bi, &b) in bases.iter().enumerate() {
                    let sim = jaro_similarity(names[leader], names[leaders[b]]);
                    if sim > best_sim {
                        best_sim = sim;
                        best = bi;
                    }
                }
                let members = groups[g].clone();
                merged[best].extend(members);
            }
            groups = merged;
        }

        // Too few groups: split the largest group until we have k.
        while groups.len() < k {
            let (largest_idx, _) = groups
                .iter()
                .enumerate()
                .max_by_key(|(_, g)| g.len())
                .expect("at least one group");
            if groups[largest_idx].len() < 2 {
                // Cannot split further; duplicate an empty group (will be fixed
                // by the k-Shape iterations).
                groups.push(Vec::new());
                continue;
            }
            let half = groups[largest_idx].len() / 2;
            let tail = groups[largest_idx].split_off(half);
            groups.push(tail);
        }

        let mut assignment = vec![0usize; names.len()];
        for (cluster, group) in groups.iter().enumerate() {
            for &idx in group {
                assignment[idx] = cluster;
            }
        }
        assignment
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// 1..=40 metric-like names: a few shared prefixes, short tails over a
    /// small alphabet (so matches and transpositions are common), duplicates
    /// and empty strings.
    fn random_names(seed: u64) -> Vec<String> {
        const PREFIXES: [&str; 6] = ["cpu_", "net_bytes_", "disk_io_", "http_req_", "", "ab"];
        const ALPHABET: [char; 6] = ['a', 'b', 'c', '_', '0', '1'];
        let mut s = seed;
        let count = 1 + (splitmix(&mut s) % 40) as usize;
        let mut names: Vec<String> = Vec::with_capacity(count);
        for _ in 0..count {
            let name = match splitmix(&mut s) % 10 {
                0 => String::new(),
                1 if !names.is_empty() => {
                    names[(splitmix(&mut s) % names.len() as u64) as usize].clone()
                }
                _ => {
                    let mut name = PREFIXES[(splitmix(&mut s) % 6) as usize].to_string();
                    for _ in 0..splitmix(&mut s) % 7 {
                        name.push(ALPHABET[(splitmix(&mut s) % 6) as usize]);
                    }
                    name
                }
            };
            names.push(name);
        }
        names
    }

    #[test]
    fn one_name_grouping_asked_for_every_k_equals_the_per_k_reference() {
        let (mut merges, mut splits) = (0usize, 0usize);
        for seed in 0..720u64 {
            let names = random_names(seed);
            let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let n = refs.len();
            let expected: Vec<Vec<usize>> = (0..=n + 1)
                .map(|k| reference_pre_cluster(&refs, k))
                .collect();
            let mut ascending = NameGroups::new(&refs);
            let mut descending = ascending.clone();
            let stored = ascending.groups.clone();
            for (k, expected) in expected.iter().enumerate() {
                let ctx = format!("seed {seed} k {k}");
                assert_eq!(&ascending.assignment(k), expected, "ascending, {ctx}");
                merges += usize::from(stored.len() > k && k > 0);
                splits += usize::from(stored.len() < k.min(n));
            }
            for (k, expected) in expected.iter().enumerate().rev() {
                let ctx = format!("seed {seed} k {k}");
                assert_eq!(&descending.assignment(k), expected, "descending, {ctx}");
            }
            assert_eq!(
                ascending.groups, stored,
                "seed {seed}: stored groups changed"
            );
        }
        assert!(
            merges >= 2000 && splits >= 2000,
            "{merges} merges, {splits} splits"
        );
    }

    /// Jaro as it was before names were decoded once: both names collected
    /// into `char` vectors, flags and matched characters in four more.
    /// Kept verbatim as the reference the allocation-free version must
    /// equal bit for bit.
    fn reference_jaro(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let match_window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut a_matched = vec![false; a.len()];
        let mut b_matched = vec![false; b.len()];
        let mut matches = 0usize;

        for (i, ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(match_window);
            let hi = (i + match_window + 1).min(b.len());
            for j in lo..hi {
                if !b_matched[j] && b[j] == *ca {
                    a_matched[i] = true;
                    b_matched[j] = true;
                    matches += 1;
                    break;
                }
            }
        }
        if matches == 0 {
            return 0.0;
        }
        let a_match_chars: Vec<char> = a
            .iter()
            .zip(a_matched.iter())
            .filter(|(_, &m)| m)
            .map(|(c, _)| *c)
            .collect();
        let b_match_chars: Vec<char> = b
            .iter()
            .zip(b_matched.iter())
            .filter(|(_, &m)| m)
            .map(|(c, _)| *c)
            .collect();
        let transpositions = a_match_chars
            .iter()
            .zip(b_match_chars.iter())
            .filter(|(x, y)| x != y)
            .count()
            / 2;

        let m = matches as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
    }

    #[test]
    fn decoded_jaro_equals_the_char_based_reference_bit_for_bit() {
        // A small alphabet, so matches and transpositions are common, with
        // characters of every UTF-8 width.
        const ALPHABET: [char; 10] = ['a', 'b', 'c', '_', '0', '1', 'é', 'ß', '中', '🙂'];
        let mut s = 0x7A60_u64;
        let name = |s: &mut u64, ascii: bool| -> String {
            let len = match splitmix(s) % 8 {
                0 => 0,
                1 => 60 + (splitmix(s) % 80) as usize,
                2 => 250 + (splitmix(s) % 400) as usize,
                _ => (splitmix(s) % 24) as usize,
            };
            let letters = if ascii { 6 } else { ALPHABET.len() };
            (0..len)
                .map(|_| ALPHABET[(splitmix(s) % letters as u64) as usize])
                .collect()
        };
        let (mut kinds, mut long) = ([0usize; 4], 0usize);
        for round in 0..6000u64 {
            let a = name(&mut s, round % 3 != 0);
            let b = if round % 7 == 0 {
                a.clone()
            } else {
                name(&mut s, round % 5 != 0)
            };
            for (x, y) in [(&a, &b), (&b, &a)] {
                assert_eq!(
                    jaro_similarity(x, y).to_bits(),
                    reference_jaro(x, y).to_bits(),
                    "{x:?} vs {y:?}"
                );
            }
            kinds[usize::from(a.is_ascii()) * 2 + usize::from(b.is_ascii())] += 1;
            long += usize::from(a.len() > 64 && b.len() > 64);
        }
        // Every pairing of ASCII and non-ASCII names, and pairs of long
        // names (whose flags spill off the stack beyond 512 characters).
        assert!(kinds.iter().all(|&n| n >= 400), "{kinds:?}");
        assert!(long >= 100, "{long}");
    }

    #[test]
    fn wrappers_are_one_grouping_asked_once() {
        let names = ["cpu_usage", "cpu_usage_user", "net_rx", "net_tx", "heap"];
        for k in 0..=6 {
            assert_eq!(
                pre_cluster_names(&names, k),
                reference_pre_cluster(&names, k)
            );
        }
    }
}
