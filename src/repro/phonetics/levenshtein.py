"""Character-level Levenshtein distance, bit-parallel and memoized.

The one edit-distance kernel on strings: literal voting scores phonetic
codes with it (paper Section 4.3), and SplChar masking, the ASR error
taxonomy and the SOTA baseline's value matching reuse it.

The kernel is Myers' bit-vector algorithm (J. ACM 46(3), 1999) in
Hyyrö's Levenshtein form: the vertical deltas of one DP column are
packed into two machine words (``pv``/``mv``), and each character of the
scanned string advances the whole column with a dozen integer
operations.  Python ints are unbounded, so codes of any length take the
same path — there is no 64-character word limit and no fallback.  The
answer is the exact DP distance; the full-table DP survives only in the
test suite, as the parity oracle.

A query re-scores the same (segment, candidate) code pairs many times —
across its n-best alternatives, both literal walks and the runner-up
structures — so results are memoized in one bounded LRU cache.
"""

from __future__ import annotations

from functools import lru_cache

#: Entries kept by the distance memo: one query touches a few hundred
#: distinct pairs, so this covers dozens of queries in a few MB.
CACHE_SIZE = 16384


@lru_cache(maxsize=CACHE_SIZE)
def char_edit_distance(a: str, b: str) -> int:
    """Plain Levenshtein distance (insert/delete/substitute) on strings."""
    if len(a) < len(b):
        a, b = b, a  # bitmask over the longer string, scan the shorter
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, score = mask, 0, len(a)
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # The DP's top row grows by one per column: shift in a +1.
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score
