"""Token vocabulary of the supported SQL subset.

The paper (Section 3.1) observes that only three kinds of tokens arise in
SQL: *Keywords*, *Special Characters* ("SplChars"), and *Literals*.
Keywords and SplChars come from a small closed vocabulary fixed by the
grammar; literals (table names, attribute names, attribute values) have an
effectively unbounded vocabulary.

``KEYWORD_DICT`` and ``SPLCHAR_DICT`` below are verbatim the dictionaries
from the paper:

    KeywordDict: Select, From, Where, Order By, Group By, Natural Join,
    And, Or, Not, Limit, Between, In, Sum, Count, Max, Avg, Min
    SplCharDict: * = < > ( ) . ,

Multi-word keywords ("ORDER BY", "GROUP BY", "NATURAL JOIN") are stored as
their individual words as well, because both the ASR transcription and the
grammar emit them one word at a time.
"""

from __future__ import annotations

import enum
import re

# Single-word form of every keyword in the paper's KeywordDict.  Multi-word
# entries (ORDER BY, GROUP BY, NATURAL JOIN) contribute their component
# words: the structure search operates on word-level tokens.
KEYWORD_DICT: frozenset[str] = frozenset(
    {
        "SELECT",
        "FROM",
        "WHERE",
        "ORDER",
        "GROUP",
        "BY",
        "NATURAL",
        "JOIN",
        "AND",
        "OR",
        "NOT",
        "LIMIT",
        "BETWEEN",
        "IN",
        "SUM",
        "COUNT",
        "MAX",
        "AVG",
        "MIN",
    }
)

SPLCHAR_DICT: frozenset[str] = frozenset({"*", "=", "<", ">", "(", ")", ".", ","})

#: Aggregate function keywords (the paper's SEL_OP set).
AGGREGATE_KEYWORDS: frozenset[str] = frozenset({"AVG", "SUM", "MAX", "MIN", "COUNT"})

#: The "prime superset" used by Diversity-Aware Pruning (Appendix D.3):
#: branches differing only in one of these tokens may be pruned.
PRIME_SUPERSET: frozenset[str] = frozenset(
    AGGREGATE_KEYWORDS | {"AND", "OR"} | {"=", "<", ">"}
)

#: Keywords the INV inverted index posts (Appendix D.3): every keyword
#: except SELECT, FROM and WHERE, which occur in virtually every
#: structure, so their postings are useless for narrowing.
INVERTED_KEYWORDS: frozenset[str] = KEYWORD_DICT - {"SELECT", "FROM", "WHERE"}

#: Placeholder token used for masked literals in SQL structures.
LITERAL_PLACEHOLDER = "x"


class TokenClass(enum.Enum):
    """The three token classes of the paper (Section 2)."""

    KEYWORD = "keyword"
    SPLCHAR = "splchar"
    LITERAL = "literal"


def is_keyword(token: str) -> bool:
    """Return True if ``token`` is a SQL keyword of the supported subset."""
    return token.upper() in KEYWORD_DICT


def is_splchar(token: str) -> bool:
    """Return True if ``token`` is a supported special character."""
    return token in SPLCHAR_DICT


def classify_token(token: str) -> TokenClass:
    """Classify a token as keyword, splchar, or literal.

    Classification is case-insensitive for keywords, exact for splchars;
    everything else — identifiers, numbers, dates, quoted strings — is a
    literal.
    """
    if is_keyword(token):
        return TokenClass.KEYWORD
    if is_splchar(token):
        return TokenClass.SPLCHAR
    return TokenClass.LITERAL


_TOKEN_RE = re.compile(
    r"""
    '[^']*'            # single-quoted string literal
  | "[^"]*"            # double-quoted string literal
  | [A-Za-z_][\w$#-]*  # identifier / keyword (allows CUSTID_1729A, d002)
  | \d{4}-\d{2}-\d{2}  # ISO date
  | \d+(?:\.\d+)?      # number
  | [*=<>().,]         # special characters
    """,
    re.VERBOSE,
)


def tokenize_sql(text: str) -> list[str]:
    """Tokenize a SQL string into word-level tokens.

    Quoted string literals are kept as single tokens with their quotes
    stripped, matching the paper's token-multiset evaluation where the
    token is the literal value itself.

    >>> tokenize_sql("SELECT AVG ( salary ) FROM Salaries")
    ['SELECT', 'AVG', '(', 'salary', ')', 'FROM', 'Salaries']
    """
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        token = match.group(0)
        if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
            token = token[1:-1]
        if token:
            tokens.append(token)
    return tokens


def normalize_token(token: str) -> str:
    """Canonical form used for multiset comparison: keywords uppercased,
    splchars as-is, literals lowercased (ASR output is caseless)."""
    cls = classify_token(token)
    if cls is TokenClass.KEYWORD:
        return token.upper()
    if cls is TokenClass.SPLCHAR:
        return token
    return token.lower()
