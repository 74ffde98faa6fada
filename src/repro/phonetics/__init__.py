"""Phonetic algorithms and the database phonetic index.

The paper's literal determination disambiguates ASR output by comparing
*phonetic representations*: it uses the Metaphone algorithm ("16 consonant
sounds describing a large number of sounds used in many English words")
to index table names, attribute names, and string attribute values.

- :mod:`repro.phonetics.metaphone`: the original Metaphone algorithm,
  implemented from scratch (validated against the paper's examples:
  Employees→EMPLYS, Salaries→SLRS, FirstName→FRSTNM, FROMDATE→FRMTT...).
- :mod:`repro.phonetics.soundex`: classic Soundex, provided as an
  alternative encoder for ablation.
- :mod:`repro.phonetics.phonetic_index`: the pre-computed phonetic
  dictionary over a database catalog (Figure 2's "Phonetic
  Representation" box).
"""

from repro.phonetics.metaphone import metaphone
from repro.phonetics.soundex import soundex
from repro.phonetics.nysiis import nysiis
from repro.phonetics.dmetaphone import double_metaphone, dmetaphone_primary
from repro.phonetics.phonetic_index import (
    CandidatePool,
    PhoneticEntry,
    PhoneticIndex,
)

__all__ = [
    "metaphone",
    "soundex",
    "nysiis",
    "double_metaphone",
    "dmetaphone_primary",
    "CandidatePool",
    "PhoneticEntry",
    "PhoneticIndex",
]
