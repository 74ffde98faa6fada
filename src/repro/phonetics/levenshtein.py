"""Character-level Levenshtein distance, bit-parallel, one row at a time.

The one edit-distance kernel on strings: literal voting scores phonetic
codes with it (paper Section 4.3), and SplChar masking, the ASR error
taxonomy and the SOTA baseline's value matching reuse it.

The kernel is Myers' bit-vector algorithm (J. ACM 46(3), 1999) in
Hyyrö's Levenshtein form: the vertical deltas of one DP column are
packed into two integers (``pv``/``mv``), and each character of the
scanned string advances the whole column with a dozen integer
operations.  Python ints are unbounded, so strings of any length take
the same path — there is no 64-character word limit and no fallback.
The answer is the exact DP distance; the full-table DP survives only in
the test suite, as the parity oracle.

Its one form is a *row*.  :class:`PackedTexts` lays the match masks of
several texts side by side in one integer, one lane per text with a
zero guard bit between lanes, so a carry out of one lane's addition
stops in the guard and never reaches the next.  :meth:`PackedTexts.row`
then scans a query once and advances every lane's column together; each
lane's distance is the query length plus its final ``+1`` deltas minus
its ``-1`` deltas.  Literal voting packs each candidate pool once and
scans every segment against it; :func:`char_edit_distance` is the
one-text case.  Nothing here is memoized: voting caches whole rows
(:mod:`repro.literal.voting`).
"""

from __future__ import annotations

from collections.abc import Iterable


class PackedTexts:
    """The Myers match masks of several texts, one lane per text."""

    __slots__ = ("_peq", "_mask", "_low", "_lanes")

    def __init__(self, texts: Iterable[str]) -> None:
        peq: dict[str, int] = {}
        mask = low = offset = 0
        lanes: list[int] = []
        for text in texts:
            lane = ((1 << len(text)) - 1) << offset
            if text:
                low |= 1 << offset
            for bit, ch in enumerate(text, offset):
                peq[ch] = peq.get(ch, 0) | (1 << bit)
            lanes.append(lane)
            mask |= lane
            offset += len(text) + 1  # the lane, then its guard bit
        self._peq = peq
        self._mask = mask  # every lane bit, no guard bit
        self._low = low  # each non-empty lane's first bit
        self._lanes = lanes

    def row(self, query: str) -> list[int]:
        """Levenshtein distance from ``query`` to each text, in order."""
        mask, low = self._mask, self._low
        match = self._peq.get
        pv, mv = mask, 0
        for ch in query:
            eq = match(ch, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (mask & ~(xh | pv))
            mh = pv & xh
            # Each lane's DP top row grows by one per column: shift in
            # a +1 at every lane's first bit.
            ph = ((ph << 1) | low) & mask
            mh = (mh << 1) & mask
            pv = mh | (mask & ~(xv | ph))
            mv = ph & xv
        size = len(query)
        return [
            size + (pv & lane).bit_count() - (mv & lane).bit_count()
            for lane in self._lanes
        ]


def char_edit_distance(a: str, b: str) -> int:
    """Plain Levenshtein distance (insert/delete/substitute) on strings."""
    if len(a) < len(b):
        a, b = b, a  # bitmask over the longer string, scan the shorter
    return PackedTexts((a,)).row(b)[0]
