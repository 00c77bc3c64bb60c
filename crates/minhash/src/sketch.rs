//! Fixed-size minwise sketches (Eqs. 4 & 6).
//!
//! [`MinHasher`] sketches k-mer streams ([`MinHasher::sketch_kmers`])
//! and sequences ([`MinHasher::sketch_sequence`]) with one of three
//! exact kernels, read off `k` and the family (DESIGN.md §5a). A batch
//! of sequences ([`MinHasher::sketch_sequences`]) is one more entry,
//! not a fourth kernel: a hasher that rolls visits the batch in byte
//! order and resumes each sequence from the state its predecessor left
//! at their common prefix, which the rolling kernel's left fold makes
//! exact, so amplicon reads that share a primer-delimited start roll
//! it once.

use std::sync::{Arc, OnceLock};

use mrmc_seqio::alphabet::encode_base;
use mrmc_seqio::encode::KmerIter;
use mrmc_seqio::SeqIoError;

use crate::hash::{HashParams, UniversalHashFamily};

/// A fixed-size minwise sketch: `values[i] = min_{x ∈ I} h_i(x)`.
///
/// `u64::MAX` marks positions for which the feature set was empty
/// (sequence shorter than k); two empty positions never "agree".
///
/// The count of non-empty positions is cached at construction, so the
/// degeneracy check the similarity kernel makes on every pair is O(1)
/// instead of an O(n) rescan. It is a function of the values, which is
/// why equality and hashing can be derived.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Sketch {
    values: Vec<u64>,
    /// Number of positions with a real minwise value (`!= EMPTY_SLOT`).
    non_empty: usize,
}

/// Sentinel for "no feature seen".
pub const EMPTY_SLOT: u64 = u64::MAX;

impl Sketch {
    /// Construct from raw minwise values.
    pub fn from_values(values: Vec<u64>) -> Sketch {
        let non_empty = values.iter().filter(|&&v| v != EMPTY_SLOT).count();
        Sketch { values, non_empty }
    }

    /// Sketch length (the number of hash functions `n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the sketch has no positions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the underlying feature set was empty (cached; O(1)).
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.non_empty == 0
    }

    /// Number of positions holding a real minwise value (cached).
    #[inline]
    pub fn non_empty(&self) -> usize {
        self.non_empty
    }

    /// The minwise values.
    #[inline]
    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

/// Largest feature space (`4^k`) the rank-table kernel covers: k ≤ 7.
/// Set by the table's one-off build cost, which grows as
/// `n · 4^k · log 4^k` against a per-read saving that stays near
/// `n · d` evaluations: at n = 100 the k = 7 table (3.3 MB, 44 ms)
/// repays itself within ~300 long reads, a k = 8 one (13 MB, 185 ms)
/// would need over a thousand (EXPERIMENTS.md "Sketch kernels").
const RANK_TABLE_MAX_SPACE: usize = 1 << 14;

/// Words in a [`Presence`] set.
const PRESENCE_WORDS: usize = RANK_TABLE_MAX_SPACE / 64;

/// Upper limit on the k-mer buffer's up-front reservation: a size hint
/// is the caller's claim, not a measurement, and must not be able to
/// ask for more memory than a long read needs.
const MAX_PRESIZE: usize = 1 << 16;

/// The distinct k-mers of one read at small k, as a `4^k`-bit set on
/// the stack: filled straight off the k-mer stream, it is already the
/// deduplicated, ordered feature set.
struct Presence([u64; PRESENCE_WORDS]);

impl Presence {
    #[inline]
    fn insert(&mut self, x: usize) {
        self.0[x >> 6] |= 1 << (x & 63);
    }

    #[inline]
    fn contains(&self, x: usize) -> bool {
        self.0[x >> 6] >> (x & 63) & 1 != 0
    }

    fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Append the members in increasing order.
    fn append_to(&self, out: &mut Vec<u64>) {
        for (i, &word) in self.0.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                out.push((i as u64) << 6 | u64::from(rest.trailing_zeros()));
                rest &= rest - 1;
            }
        }
    }
}

/// Builds sketches for k-mer feature sets with a shared hash family, so
/// that sketches are comparable across sequences.
#[derive(Debug, Clone)]
pub struct MinHasher {
    family: UniversalHashFamily,
    k: usize,
    /// The rank table, for `4^k ≤ RANK_TABLE_MAX_SPACE` only: per hash
    /// function, all `4^k` k-mers ordered by `(h_i(x), x)`. Built by
    /// the first read dense enough to use it; clones (one per stage,
    /// per session) share the one copy.
    ranks: Option<Arc<OnceLock<Vec<u16>>>>,
    /// The rolling kernel's step constants, for families that allow it
    /// above the rank table's range only (see [`rolling_steps`]); built
    /// with the hasher and shared by its clones.
    rolling: Option<Arc<[u64]>>,
}

impl MinHasher {
    /// A sketcher with `n` hash functions for k-mers of size `k`.
    /// `seed` fixes the hash parameter draws (paper: `a_i, b_i` chosen
    /// uniformly at random once per run).
    pub fn for_kmer_size(k: usize, n: usize, seed: u64) -> MinHasher {
        MinHasher::with_family(k, UniversalHashFamily::for_kmer_size(k, n, seed))
    }

    /// Wrap an existing family (its range must cover the `4^k`
    /// feature space — both the default and the paper-literal
    /// families qualify).
    pub fn with_family(k: usize, family: UniversalHashFamily) -> MinHasher {
        assert!(
            (1..=31).contains(&k),
            "k must be 1..=31 (k-mers pack 2 bits per base into a u64; k = {k} does not fit)"
        );
        assert!(
            family.m >= 1u64 << (2 * k),
            "family range {} too small for 4^{k} features — sized for different k",
            family.m
        );
        let small = 1usize << (2 * k) <= RANK_TABLE_MAX_SPACE;
        let rolling = (!small && rolls(&family)).then(|| rolling_steps(k, &family));
        MinHasher {
            family,
            k,
            ranks: small.then(Arc::default),
            rolling,
        }
    }

    /// k-mer size.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Sketch length `n`.
    #[inline]
    pub fn num_hashes(&self) -> usize {
        self.family.len()
    }

    /// The shared hash family.
    pub fn family(&self) -> &UniversalHashFamily {
        &self.family
    }

    /// Sketch an iterator of packed k-mer features. Duplicates are
    /// harmless (min is idempotent), so callers may feed raw k-mer
    /// streams without deduplicating.
    ///
    /// One of three exact kernels runs, chosen from `k`, the family and,
    /// at small k, the number `d` of distinct features:
    ///
    /// * **Rolling residues** (a family that rolls: both k-mer families
    ///   at k = 8..=15). The stream is folded as it arrives, with no
    ///   buffer, sort or dedup. A k-mer that overlaps the one before it
    ///   by `k − 1` bases — every window of a read after its first —
    ///   steps each residue `(a_i·x + b_i) mod p` from the previous
    ///   k-mer's with the step of [`Self::sketch_sequence`]; any other
    ///   k-mer takes its residues fresh through the word Barrett, and a
    ///   feature outside the `4^k` k-mer space is evaluated as Eq. 5
    ///   writes it.
    /// * **Rank table** (`k ≤ 7` and `d² ≥ 4^k`). The stream sets
    ///   bits in a `4^k`-bit presence set — no buffer, sort or
    ///   dedup — and slot `i` is `h_i` of the first
    ///   present k-mer in the table's `h_i` order: about `4^k/d`
    ///   probes and one evaluation instead of `d` evaluations. Ties in
    ///   `h_i` are harmless: whichever tied k-mer is met first carries
    ///   the same minimum. The two kernels measure equal at
    ///   `d ≈ 2^k/2`; the rule waits for `d = 2^k`, where the table is
    ///   twice as fast, because the first read across it also pays
    ///   for the build.
    /// * **Blocked family walk** (every other stream). The stream is
    ///   first reduced to its sorted distinct features, which then pass
    ///   the hash family in blocks whose running minima live in a small
    ///   stack array, instead of re-touching all `n` sketch slots per
    ///   k-mer.
    ///
    /// All are bit-identical to the textbook per-(k-mer, hash) loop
    /// (`mrmc_testkit::kernels::sketch_kmers`): min is
    /// order-independent and idempotent, so reordering, deduplication
    /// and the order in which the rolling kernel meets its k-mers
    /// cannot change it.
    pub fn sketch_kmers(&self, kmers: impl IntoIterator<Item = u64>) -> Sketch {
        let mut kmers = kmers.into_iter();
        if let Some(steps) = &self.rolling {
            return self.roll_kmers(steps, kmers);
        }
        let mut values = vec![EMPTY_SLOT; self.family.len()];
        let buf = match &self.ranks {
            Some(ranks) => {
                let space = 1usize << (2 * self.k);
                let mut present = Presence([0; PRESENCE_WORDS]);
                // A feature outside the k-mer space (only the public
                // entry point can pass one) ends the small-k route.
                let mut stray = None;
                for x in kmers.by_ref() {
                    if x >= space as u64 {
                        stray = Some(x);
                        break;
                    }
                    present.insert(x as usize);
                }
                let d = present.len();
                if stray.is_none() && d * d >= space {
                    let order = ranks.get_or_init(|| self.build_rank_table());
                    self.fold_ranked(&mut values, order, &present);
                    return Sketch::from_values(values);
                }
                let mut buf = Vec::with_capacity(d);
                present.append_to(&mut buf);
                if let Some(x) = stray {
                    buf.push(x);
                    buf.extend(kmers);
                    buf.sort_unstable();
                    buf.dedup();
                }
                buf
            }
            None => {
                let (lower, upper) = kmers.size_hint();
                let mut buf = Vec::with_capacity(upper.unwrap_or(lower).min(MAX_PRESIZE));
                buf.extend(kmers);
                // Each duplicate dropped here saves `n` hash
                // evaluations; the sort pays for itself whenever the
                // stream has any repetition.
                buf.sort_unstable();
                buf.dedup();
                buf
            }
        };
        // `buf` is sorted: its last element decides for all of them
        // whether Eq. 5 fits a word.
        let family = &self.family;
        if buf.last().is_some_and(|&x| x <= family.word_max) {
            fold_blocked(&mut values, family.params(), &buf, |hp, x| {
                family.eval_word(hp, x)
            });
        } else {
            fold_blocked(&mut values, family.params(), &buf, |hp, x| {
                family.eval(hp, x)
            });
        }
        Sketch::from_values(values)
    }

    /// The rolling kernel over a k-mer stream: residues carried from
    /// k-mer to k-mer while each overlaps the one before it, taken fresh
    /// at any other k-mer; a feature outside the k-mer space is
    /// evaluated and leaves the residues as they were.
    fn roll_kmers(&self, steps: &[u64], kmers: impl Iterator<Item = u64>) -> Sketch {
        let family = &self.family;
        let (n, p, m, k) = (family.len(), family.p, family.m, self.k);
        let shift = m.trailing_zeros();
        let top_shift = 2 * (k - 1);
        let space = 1u64 << (2 * k);
        let suffix = (space >> 2) - 1;
        let mut residues = vec![0; n];
        let mut minima = vec![m; n];
        // The k-mer `residues` hold, once one has been met.
        let mut last: Option<u64> = None;
        for x in kmers {
            if x >= space {
                for (lo, &hp) in minima.iter_mut().zip(family.params()) {
                    *lo = lower(*lo, family.eval(hp, x));
                }
                continue;
            }
            match last {
                Some(prev) if x >> 2 == prev & suffix => {
                    let row = &steps[(4 * (prev >> top_shift) + (x & 3)) as usize * n..][..n];
                    step::<true>(&mut residues, &mut minima, row, p, m, shift);
                }
                _ => {
                    let fresh = residues.iter_mut().zip(&mut minima).zip(family.params());
                    for ((r, lo), &hp) in fresh {
                        *r = family.residue_word(hp, x);
                        *lo = lower(*lo, *r & (m - 1));
                    }
                }
            }
            last = Some(x);
        }
        finish(minima, m)
    }

    /// For each hash function, the ids of all `4^k` k-mers in
    /// increasing `(h_i(x), x)` order, concatenated.
    fn build_rank_table(&self) -> Vec<u16> {
        let space = 1usize << (2 * self.k);
        let mut order = Vec::with_capacity(space * self.family.len());
        let mut keyed: Vec<(u64, u16)> = Vec::with_capacity(space);
        for &hp in self.family.params() {
            keyed.clear();
            keyed.extend((0..space).map(|x| (self.family.eval(hp, x as u64), x as u16)));
            keyed.sort_unstable();
            order.extend(keyed.iter().map(|&(_, x)| x));
        }
        order
    }

    /// The rank-table kernel: slot `i` is `h_i` of the first k-mer of
    /// `order`'s `i`-th run that `present` holds. `present` must be
    /// non-empty.
    fn fold_ranked(&self, values: &mut [u64], order: &[u16], present: &Presence) {
        let space = 1usize << (2 * self.k);
        let runs = order.chunks_exact(space);
        for ((slot, &hp), run) in values.iter_mut().zip(self.family.params()).zip(runs) {
            let first = run
                .iter()
                .find(|&&x| present.contains(usize::from(x)))
                .expect("a non-empty presence set meets every ordering of the k-mer space");
            *slot = self.family.eval(hp, u64::from(*first));
        }
    }

    /// Sketch a DNA sequence directly (k-mer extraction + hashing in
    /// one pass — what the `CalculateMinwiseHash` UDF does per record).
    ///
    /// A hasher whose family allows it (`k ≥ 8`, `m` a power of two
    /// with `5(p − m) < m`, `p < 2^32`: both k-mer families at
    /// k = 8..=15) runs the **rolling kernel**: each base steps every
    /// residue `(a_i·x + b_i) mod p` from the previous k-mer's, with no
    /// k-mer buffer, sort or dedup and no Eq. 5 evaluation at all.
    /// Every other hasher — `k ≤ 7`, `k ≥ 16`, other families — feeds
    /// the k-mer stream to [`Self::sketch_kmers`]. All are
    /// bit-identical to the textbook loop over [`KmerIter`].
    pub fn sketch_sequence(&self, seq: &[u8]) -> Result<Sketch, SeqIoError> {
        match &self.rolling {
            Some(steps) => {
                let mut state = Rolling::new(&self.family);
                state.advance(self, steps, seq);
                Ok(finish(state.minima, self.family.m))
            }
            None => Ok(self.sketch_kmers(KmerIter::new(seq, self.k)?)),
        }
    }

    /// [`Self::sketch_sequence`] of every sequence, in input order.
    ///
    /// A hasher that rolls visits the sequences in byte order and starts
    /// each one from the rolling state its predecessors left at their
    /// common prefix, so a prefix shared by neighbours in that order is
    /// rolled once (DESIGN.md §5a, "Shared prefixes"). Every other
    /// hasher sketches them one by one.
    pub fn sketch_sequences(&self, seqs: &[&[u8]]) -> Result<Vec<Sketch>, SeqIoError> {
        Ok(self.sketch_sequences_counted(seqs)?.0)
    }

    /// [`Self::sketch_sequences`], with the number of bases the kernel
    /// stepped: every base of every sequence for a hasher that does not
    /// roll, and each sequence's bases past the state it resumed from
    /// for one that does.
    ///
    /// The rolling kernel is a left fold over the bytes — the fill-count
    /// reset at a base [`encode_base`] rejects included, and the
    /// sentinel check comes after the fold — so its state after `l`
    /// bytes is a function of those bytes, and two sequences sharing
    /// them share it. In byte order no earlier sequence shares more of
    /// sequence `i`'s prefix than its predecessor does. A stack holds
    /// states of the current sequence's prefix at increasing positions:
    /// sequence `i` pops to the deepest at or before `lcp(i − 1, i)`,
    /// rolls from there, and leaves its state at `lcp(i, i + 1)` when
    /// that lies past its start. The stack keeps its buffers, so a
    /// sequence allocates only its sketch.
    pub fn sketch_sequences_counted(
        &self,
        seqs: &[&[u8]],
    ) -> Result<(Vec<Sketch>, u64), SeqIoError> {
        let Some(steps) = &self.rolling else {
            let sketches = seqs.iter().map(|s| self.sketch_sequence(s));
            let bases = seqs.iter().map(|s| s.len() as u64).sum();
            return Ok((sketches.collect::<Result<_, _>>()?, bases));
        };
        let mut order: Vec<usize> = (0..seqs.len()).collect();
        order.sort_unstable_by_key(|&i| seqs[i]);
        // Empty placeholders: no allocation until each is replaced.
        let mut out = vec![Sketch::from_values(Vec::new()); seqs.len()];
        // The empty prefix sits at the bottom and is never popped.
        let mut saved = vec![(0, Rolling::new(&self.family))];
        let mut depth = 1;
        let mut state = saved[0].1.clone();
        let mut rolled = 0;
        for (rank, &i) in order.iter().enumerate() {
            let seq = seqs[i];
            let shared = rank
                .checked_sub(1)
                .map_or(0, |r| common_prefix_len(seqs[order[r]], seq));
            while saved[depth - 1].0 > shared {
                depth -= 1;
            }
            let start = saved[depth - 1].0;
            state.copy_from(&saved[depth - 1].1);
            let mut at = start;
            if let Some(&next) = order.get(rank + 1) {
                let keep = common_prefix_len(seq, seqs[next]);
                if keep > start {
                    state.advance(self, steps, &seq[start..keep]);
                    if depth == saved.len() {
                        saved.push((keep, state.clone()));
                    } else {
                        saved[depth].0 = keep;
                        saved[depth].1.copy_from(&state);
                    }
                    depth += 1;
                    at = keep;
                }
            }
            state.advance(self, steps, &seq[at..]);
            rolled += (seq.len() - start) as u64;
            out[i] = finish(state.minima.clone(), self.family.m);
        }
        Ok((out, rolled))
    }
}

/// Length of the longest common prefix of `a` and `b`: how much of `b`
/// [`MinHasher::sketch_sequences`] can resume from `a`'s rolling state
/// when `a` precedes it in byte order.
pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// The rolling kernel's state after a prefix of a sequence (see
/// [`rolling_steps`] for the recurrence).
///
/// `x` starts at 0 (`r_i = b_i`) and is the last `k` valid bases
/// packed, with the residues always `(a_i·x + b_i) mod p` for it. A
/// base [`encode_base`] rejects resets only the fill count, exactly
/// where [`KmerIter`] resets: `x` and the residues keep rolling across
/// it, and `k` valid bases later every base before it has been shifted
/// out, so the first window folded is `KmerIter`'s.
#[derive(Debug, Clone)]
struct Rolling {
    x: u64,
    /// Valid bases since the last reset; a window is folded once it
    /// reaches `k`.
    filled: usize,
    residues: Vec<u64>,
    /// Running minima; `m` is above every `h_i`, so it doubles as "no
    /// window yet".
    minima: Vec<u64>,
}

impl Rolling {
    /// The state of the empty prefix.
    fn new(family: &UniversalHashFamily) -> Rolling {
        Rolling {
            x: 0,
            filled: 0,
            residues: family.params().iter().map(|hp| hp.b).collect(),
            minima: vec![family.m; family.len()],
        }
    }

    /// Become `other` without allocating.
    fn copy_from(&mut self, other: &Rolling) {
        self.x = other.x;
        self.filled = other.filled;
        self.residues.copy_from_slice(&other.residues);
        self.minima.copy_from_slice(&other.minima);
    }

    /// Roll the state over `bases`: the one body both
    /// [`MinHasher::sketch_sequence`] and
    /// [`MinHasher::sketch_sequences`] run.
    fn advance(&mut self, hasher: &MinHasher, steps: &[u64], bases: &[u8]) {
        let family = &hasher.family;
        let (n, p, m, k) = (family.len(), family.p, family.m, hasher.k);
        let shift = m.trailing_zeros();
        let top_shift = 2 * (k - 1);
        let window = (1u64 << (2 * k)) - 1;
        let (mut x, mut filled) = (self.x, self.filled);
        let (residues, minima) = (&mut self.residues[..], &mut self.minima[..]);
        for &base in bases {
            let Some(c) = encode_base(base) else {
                filled = 0;
                continue;
            };
            let c = u64::from(c);
            let row = &steps[(4 * (x >> top_shift) + c) as usize * n..][..n];
            x = (x << 2 | c) & window;
            filled += 1;
            if filled < k {
                step::<false>(residues, minima, row, p, m, shift);
            } else {
                step::<true>(residues, minima, row, p, m, shift);
            }
        }
        (self.x, self.filled) = (x, filled);
    }
}

/// The sketch a rolled sequence ends with, from its state's `minima`.
fn finish(mut minima: Vec<u64>, m: u64) -> Sketch {
    // A window fills every slot at once, so slot 0 speaks for all.
    if minima[0] == m {
        minima.fill(EMPTY_SLOT);
    }
    Sketch::from_values(minima)
}

/// Whether `family` admits the rolling step: `m` a power of two, so
/// `s >> log₂m` estimates `⌊s/p⌋` to within one for `s < 5p` (that
/// needs `5(p − m) < m`) and `r & (m − 1)` is `r mod m` (`p < 2m`),
/// and `p < 2^32`, so the quotient estimate times `p` is a 32×32-bit
/// product and `4r + D` fits a word.
fn rolls(family: &UniversalHashFamily) -> bool {
    let (p, m) = (family.p, family.m);
    m.is_power_of_two() && p < 1 << 32 && 5 * (p - m) < m
}

/// The rolling kernel's constants. Appending base `c` to the k-mer `x`
/// whose top base is `t = x >> 2(k−1)` gives `x' = 4x + c − t·4^k`, so
/// with `r = (a_i·x + b_i) mod p`
///
/// `r' = (4r + D_i[t][c]) mod p`, `D_i[t][c] = (a_i·c − 3b_i − a_i·t·4^k) mod p`,
///
/// and a read starts from `x = 0` (`r = b_i`). Row `4t + c` of the
/// result holds `D_i[t][c]` for `i = 0..n`, so one step reads one
/// contiguous row.
fn rolling_steps(k: usize, family: &UniversalHashFamily) -> Arc<[u64]> {
    let params = family.params();
    let n = params.len();
    let p = i128::from(family.p);
    let span = 1i128 << (2 * k);
    (0..16 * n)
        .map(|j| {
            let (row, hp) = (j / n, params[j % n]);
            let (top, c) = ((row / 4) as i128, (row % 4) as i128);
            let (a, b) = (i128::from(hp.a), i128::from(hp.b));
            (a * c - 3 * b - a * top * span).rem_euclid(p) as u64
        })
        .collect()
}

/// One rolling step: each residue moves to the next k-mer's by its
/// constant in `row` (a row of [`rolling_steps`]), and with `FOLD` each
/// minimum is lowered to the new residue's hash. The one step body of
/// both the sequence kernel ([`Rolling::advance`]) and the k-mer stream
/// kernel (`MinHasher::roll_kmers`).
#[inline(always)]
fn step<const FOLD: bool>(
    residues: &mut [u64],
    minima: &mut [u64],
    row: &[u64],
    p: u64,
    m: u64,
    shift: u32,
) {
    if FOLD {
        for ((r, &d), lo) in residues.iter_mut().zip(row).zip(minima.iter_mut()) {
            *r = roll(*r, d, p, shift);
            *lo = lower(*lo, *r & (m - 1));
        }
    } else {
        for (r, &d) in residues.iter_mut().zip(row) {
            *r = roll(*r, d, p, shift);
        }
    }
}

/// `(4r + d) mod p` for `r, d < p`, compare-free. `s = 4r + d < 5p`;
/// `q̂ = s >> log₂m` is `⌊s/p⌋` or one more (see [`rolls`]), so
/// `t = s − q̂·p` is the residue or the residue minus `p`, and its sign
/// bit says which.
#[inline(always)]
fn roll(r: u64, d: u64, p: u64, shift: u32) -> u64 {
    let s = 4 * r + d;
    // q̂ ≤ 5 and p < 2^32: a 32×32→64-bit product.
    let qp = u64::from((s >> shift) as u32) * u64::from(p as u32);
    let t = s.wrapping_sub(qp);
    t.wrapping_add(p & (t >> 63).wrapping_neg())
}

/// `min(lo, h)` for `lo, h < 2^63`, from the sign of `h − lo`.
#[inline(always)]
fn lower(lo: u64, h: u64) -> u64 {
    let d = h.wrapping_sub(lo);
    lo.wrapping_add(d & (d >> 63).wrapping_neg())
}

/// The blocked kernel: min-fold `eval` over `features` into `values`,
/// one block of hash functions at a time so the running minima stay in
/// registers while the (cache-resident) features stream past.
fn fold_blocked(
    values: &mut [u64],
    params: &[HashParams],
    features: &[u64],
    eval: impl Fn(HashParams, u64) -> u64,
) {
    const BLOCK: usize = 8;
    for (vals, hps) in values.chunks_mut(BLOCK).zip(params.chunks(BLOCK)) {
        let mut minima = [EMPTY_SLOT; BLOCK];
        for &x in features {
            for (slot, &hp) in minima.iter_mut().zip(hps) {
                let h = eval(hp, x);
                if h < *slot {
                    *slot = h;
                }
            }
        }
        vals.copy_from_slice(&minima[..vals.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hasher() -> MinHasher {
        MinHasher::for_kmer_size(4, 64, 11)
    }

    #[test]
    fn identical_sequences_identical_sketches() {
        let h = hasher();
        let a = h.sketch_sequence(b"ACGTACGTTTGGCCAA").unwrap();
        let b = h.sketch_sequence(b"ACGTACGTTTGGCCAA").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sketch_invariant_to_kmer_multiplicity_and_order() {
        let h = hasher();
        // Same k-mer set, different multiplicities/order.
        let s1 = h.sketch_kmers([1u64, 2, 3, 3, 3, 2]);
        let s2 = h.sketch_kmers([3u64, 1, 2]);
        assert_eq!(s1, s2);
    }

    #[test]
    fn short_sequence_gives_degenerate_sketch() {
        let h = hasher();
        let s = h.sketch_sequence(b"ACG").unwrap(); // len 3 < k=4
        assert!(s.is_degenerate());
        assert_eq!(s.len(), 64);
    }

    #[test]
    fn sketch_values_below_m() {
        let h = hasher();
        let s = h.sketch_sequence(b"ACGTACGTACGTTTTT").unwrap();
        for &v in s.values() {
            assert!(v < h.family().m);
        }
    }

    #[test]
    fn superset_never_increases_min() {
        let h = hasher();
        let base: Vec<u64> = vec![5, 9, 120];
        let sup: Vec<u64> = vec![5, 9, 120, 7, 200];
        let sb = h.sketch_kmers(base.iter().copied());
        let ss = h.sketch_kmers(sup.iter().copied());
        for (b, s) in sb.values().iter().zip(ss.values()) {
            assert!(s <= b);
        }
    }

    #[test]
    fn with_family_checks_k() {
        let fam = UniversalHashFamily::for_kmer_size(5, 4, 0);
        let h = MinHasher::with_family(5, fam);
        assert_eq!(h.k(), 5);
    }

    #[test]
    #[should_panic(expected = "different k")]
    fn with_family_wrong_k_panics() {
        // A paper-literal k = 5 family (m = 1024) cannot cover k = 16's
        // 4^16 feature space.
        let fam = UniversalHashFamily::for_kmer_size_paper_literal(5, 4, 0);
        MinHasher::with_family(16, fam);
    }

    #[test]
    fn bad_k_propagates_error() {
        let h = MinHasher::for_kmer_size(4, 4, 0);
        // k is fixed at construction; sequence with only ambiguous bases
        // still sketches (degenerate), not an error.
        let s = h.sketch_sequence(b"NNNNNNN").unwrap();
        assert!(s.is_degenerate());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn with_family_oversized_k_rejected() {
        // k = 32 used to overflow the `1 << (2k)` range check; now it
        // is rejected up front with a clear message.
        let fam = UniversalHashFamily::for_kmer_size(5, 4, 0);
        MinHasher::with_family(32, fam);
    }

    #[test]
    fn cached_metadata_consistent() {
        let h = hasher();
        let s = h.sketch_sequence(b"ACGTACGTTTGGCCAA").unwrap();
        assert_eq!(
            s.is_degenerate(),
            s.values().iter().all(|&v| v == EMPTY_SLOT)
        );
        assert_eq!(
            s.non_empty(),
            s.values().iter().filter(|&&v| v != EMPTY_SLOT).count()
        );
        // Degenerate sketch: nothing counted.
        let d = h.sketch_sequence(b"AC").unwrap();
        assert!(d.is_degenerate());
        assert_eq!(d.non_empty(), 0);
    }

    #[test]
    fn rank_table_is_lazy_shared_and_built_once() {
        let hasher = MinHasher::for_kmer_size(5, 100, 3);
        let table = |h: &MinHasher| {
            let ranks = h.ranks.as_ref().expect("k = 5 is in the table's range");
            ranks.get().map(|order| order.as_ptr())
        };
        // Nothing is built at construction, nor by a read too sparse
        // for the table to pay (d² < 4^k).
        assert_eq!(table(&hasher), None);
        hasher.sketch_kmers(0..31);
        assert_eq!(table(&hasher), None);
        // Two threads make first use of one hasher and a clone of it
        // at the same moment: one table, the same sketch.
        let clone = hasher.clone();
        let start = std::sync::Barrier::new(2);
        let dense = |h: &MinHasher| {
            start.wait();
            h.sketch_kmers((0..1024).step_by(3))
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| dense(&hasher));
            let b = s.spawn(|| dense(&clone));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a.values(), b.values());
        // A table built apart from those two threads gives the same sketch.
        let apart = MinHasher::for_kmer_size(5, 100, 3).sketch_kmers((0..1024).step_by(3));
        assert_eq!(a.values(), apart.values());
        assert!(table(&hasher).is_some());
        assert_eq!(table(&hasher), table(&clone));
        // Above the cap there is no table to build.
        assert!(MinHasher::for_kmer_size(8, 4, 3).ranks.is_none());
    }

    #[test]
    fn rolling_constants_follow_k_and_family() {
        let literal = |k| {
            MinHasher::with_family(k, UniversalHashFamily::for_kmer_size_paper_literal(k, 9, 3))
        };
        // `MrMcConfig::sixteen_s().hasher()` is k = 15, n = 50 on the
        // default family; paper-literal k = 8 and 15 roll too.
        let sixteen_s = MinHasher::for_kmer_size(15, 50, 42);
        for h in [&sixteen_s, &literal(8), &literal(15)] {
            assert_eq!(
                h.rolling.as_ref().map(|s| s.len()),
                Some(16 * h.num_hashes())
            );
        }
        // The rank table's range and k = 31 (p > 2^32) do not.
        for k in [1, 5, 7, 16, 31] {
            assert!(
                MinHasher::for_kmer_size(k, 9, 3).rolling.is_none(),
                "k = {k}"
            );
            assert!(literal(k).rolling.is_none(), "literal k = {k}");
        }
        // Clones share one copy and roll to the k-mer path's sketch.
        let clone = sixteen_s.clone();
        let constants = |h: &MinHasher| h.rolling.as_ref().map(|s| s.as_ptr());
        assert_eq!(constants(&clone), constants(&sixteen_s));
        let read = b"GATTACAGGCTTACCGATNNCATGCAAGTCCGATTAGGCTAC";
        let forward = clone.sketch_kmers(KmerIter::new(read, 15).unwrap());
        assert_eq!(clone.sketch_sequence(read).unwrap(), forward);
    }

    #[test]
    fn batch_resumes_shared_prefixes_and_pops_the_stack() {
        // Byte order: short, a, b, b again, c, d. `a` resumes from the
        // state `short` left at 3 and leaves its own at 15; `b` resumes
        // there and leaves one at 20, where its copy ends; `c` shares
        // only 11 with `b`, so both deeper states pop and it resumes at
        // 3; `d` shares nothing and starts from the empty prefix.
        let (a, b) = (b"ACGTACGTTTGGCCAAGGTT", b"ACGTACGTTTGGCCATTTAA");
        let (c, d, short) = (b"ACGTACGTTTGTCCAT", b"GATTACAGATTACA", b"ACG");
        let seqs: [&[u8]; 6] = [c, b, d, short, a, b];
        let h = MinHasher::for_kmer_size(8, 16, 5);
        assert!(h.rolling.is_some());
        let (batch, rolled) = h.sketch_sequences_counted(&seqs).unwrap();
        for (seq, got) in seqs.iter().zip(&batch) {
            assert_eq!(got, &h.sketch_sequence(seq).unwrap());
        }
        assert!(batch[3].is_degenerate());
        // Bases each one rolls, in byte order.
        assert_eq!(rolled, [3, 17, 5, 0, 13, 14].iter().sum());
        assert_eq!(h.sketch_sequences(&seqs).unwrap(), batch);
        // A hasher that does not roll steps every base.
        let every: u64 = seqs.iter().map(|s| s.len() as u64).sum();
        for other in [
            MinHasher::for_kmer_size(5, 16, 5),
            MinHasher::for_kmer_size(16, 16, 5),
        ] {
            let (batch, stepped) = other.sketch_sequences_counted(&seqs).unwrap();
            assert_eq!(stepped, every);
            for (seq, got) in seqs.iter().zip(&batch) {
                assert_eq!(got, &other.sketch_sequence(seq).unwrap());
            }
        }
        assert_eq!(h.sketch_sequences(&[]).unwrap(), Vec::new());
    }
}
