"""The full-table Levenshtein DP: parity oracle for the production kernel.

This is the textbook O(len(a) * len(b)) dynamic program that literal
voting used before the bit-parallel kernel of
:mod:`repro.phonetics.levenshtein` replaced it.  It stays here, outside
``src``, as the reference the kernel must match distance for distance
(``test_voting_parity.py``, ``benchmarks/bench_literal_voting.py``).
"""

from __future__ import annotations


def char_edit_distance(a: str, b: str) -> int:
    """Plain Levenshtein distance (insert/delete/substitute) on strings."""
    n, m = len(a), len(b)
    if n == 0:
        return m
    if m == 0:
        return n
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i]
        ai = a[i - 1]
        for j in range(1, m + 1):
            if ai == b[j - 1]:
                cur.append(prev[j - 1])
            else:
                cur.append(1 + min(prev[j - 1], prev[j], cur[j - 1]))
        prev = cur
    return prev[m]
