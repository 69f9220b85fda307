"""Mixed Mandarin/English text to IPA phoneme sequences.

The pipeline has three stages: script-aware tokenization by one regular
expression (:func:`tokenize` states its rule), lookup of language-dependent
phonemes (ARPABET for English words, one Pinyin syllable per hanzi), and
decomposition of each language-dependent phoneme into IPA symbols.  The
number of IPA symbols a phoneme decomposes into is its phoneme length;
downstream aggregation relies on these lengths, so out-of-vocabulary input
is a hard error rather than a silent fallback.
Text is NFKC-normalised first, so full-width Latin reads as ASCII; only
the characters in :data:`PUNCTUATION` are skipped, and any other character
without a pronunciation (a digit, say) is an :class:`OOVError`.

Lexicon files hold one ``KEY<TAB>SYM1 SYM2 ...`` entry per line (line
rules in :mod:`xling.textio`).  The IPA mapping file keys entries as
``EN:K`` / ``CN:hao`` so one file covers both languages.  Stress digits
(EN) and tone digits (CN) live in ``LDPSymbol.meta``, never in the label,
and the IPA mapping ignores them.
"""

from __future__ import annotations

import re
import string
import unicodedata
from dataclasses import dataclass, field
from importlib import resources

from .errors import LengthMismatchError, OOVError, ParseError, UnmappedLDPError
from .regulator import as_counts
from .textio import cast, records, write_records

HAN = "Han"
LATIN = "Latin"
PUNCT = "Punct"

EN = "EN"
CN = "CN"

# The token rule, one character class each; the named group is the script.
_HAN_CLASS = "一-鿿"
_LATIN_CLASS = "A-Za-z'"
_TOKEN = re.compile(
    rf"(?P<{HAN}>[{_HAN_CLASS}])"
    rf"|(?P<{LATIN}>[{_LATIN_CLASS}]+)"
    rf"|(?P<{PUNCT}>[^\s{_HAN_CLASS}{_LATIN_CLASS}]+)"
)

# Characters the frontend may skip: ASCII and CJK punctuation (after NFKC,
# full-width forms such as "，" and "！" are already ASCII).
PUNCTUATION = frozenset(string.punctuation + "、。〈〉《》「」『』【】〔〕〖〗〜・·‘’“”–—…")


@dataclass(frozen=True)
class Token:
    surface: str
    script: str
    span: tuple

    def __post_init__(self):
        assert self.span[0] < self.span[1], "token span must be non-empty"


@dataclass(frozen=True)
class LDPSymbol:
    """One language-dependent phoneme; meta holds the stress/tone digit."""

    label: str
    language: str
    meta: int | None = None


@dataclass(frozen=True)
class PhonemeSequence:
    """Parallel LDP / IPA / phoneme-length views of one utterance."""

    ldp: tuple
    ipa: tuple
    lengths: tuple

    def __post_init__(self):
        lengths = tuple(as_counts(self.lengths, 1, "phoneme lengths").tolist())
        object.__setattr__(self, "lengths", lengths)
        if len(self.ldp) != len(lengths):
            raise LengthMismatchError("one length per language-dependent phoneme required")
        if sum(lengths) != len(self.ipa):
            raise LengthMismatchError("lengths must sum to the IPA symbol count")

    def __len__(self):
        return len(self.ldp)

    def ipa_segments(self):
        """Slice the IPA sequence at cumulative phoneme-length boundaries."""
        out, pos = [], 0
        for n in self.lengths:
            out.append(self.ipa[pos : pos + n])
            pos += n
        return out


def _strip_digits(symbol: str) -> tuple[str, int | None]:
    """The label less its ASCII digits, and those digits as the stress or tone.

    Any other digit (``¹``, ``³``) stays in the label, which then maps to no
    IPA entry.
    """
    digits = "".join(c for c in symbol if c in string.digits)
    label = "".join(c for c in symbol if c not in string.digits)
    return label, (int(digits) if digits else None)


def _parse_dict_file(path):
    """Yield (key, symbols, line_no); both sides of the tab hold text."""
    for line_no, (key, rhs) in records(path, "\t", 1, n_fields=2):
        yield key, rhs.split(), line_no


@dataclass(frozen=True)
class Lexicon:
    """Immutable pronunciation tables; safe to share across threads."""

    en_entries: dict = field(repr=False)
    cn_entries: dict = field(repr=False)
    ipa_entries: dict = field(repr=False)
    inventory: frozenset = field(repr=False)

    @classmethod
    def load(cls, en_path, cn_path, ipa_path, inventory_path) -> "Lexicon":
        inventory = load_inventory(inventory_path)

        en_entries = {}
        for key, symbols, _ in _parse_dict_file(en_path):
            word = key.upper()
            if word not in en_entries:  # duplicate keys: first entry wins
                phonemes = []
                for s in symbols:
                    label, stress = _strip_digits(s)
                    phonemes.append(LDPSymbol(label, EN, stress))
                en_entries[word] = tuple(phonemes)

        cn_entries = {}
        for key, symbols, line_no in _parse_dict_file(cn_path):
            match = _TOKEN.fullmatch(key)
            if match is None or match.lastgroup != HAN:
                raise ParseError(f"key {key!r} is not a single hanzi",
                                 path=cn_path, line=line_no)
            if len(symbols) != 1:
                raise ParseError("expected exactly one Pinyin syllable",
                                 path=cn_path, line=line_no)
            if key not in cn_entries:
                label, tone = _strip_digits(symbols[0])
                cn_entries[key] = (LDPSymbol(label, CN, tone),)

        ipa_entries = {}
        for key, symbols, line_no in _parse_dict_file(ipa_path):
            if ":" not in key:
                raise ParseError(f"key {key!r} lacks a LANG: prefix",
                                 path=ipa_path, line=line_no)
            language, label = key.split(":", 1)
            if language not in (EN, CN):
                raise ParseError(f"unknown language {language!r}",
                                 path=ipa_path, line=line_no)
            missing = [s for s in symbols if s not in inventory]
            if missing:
                raise ParseError(f"symbols {missing} not in IPA inventory",
                                 path=ipa_path, line=line_no)
            ipa_entries.setdefault((label, language), tuple(symbols))

        return cls(en_entries, cn_entries, ipa_entries, inventory)

    @classmethod
    def load_default(cls) -> "Lexicon":
        """Load the dictionaries bundled with the package."""
        return cls.load(*default_paths())


def default_paths() -> tuple:
    """The bundled files, in :meth:`Lexicon.load` argument order."""
    base = resources.files("xling").joinpath("data")
    return (
        base / "en_arpabet.dict",
        base / "cn_pinyin.dict",
        base / "ldp_to_ipa.dict",
        base / "ipa_inventory.txt",
    )


def load_inventory(path) -> frozenset:
    """The IPA symbols of an inventory file, one symbol per line."""
    return frozenset(symbol for _, (symbol,) in records(path, n_fields=1))


def tokenize(text: str) -> list:
    """Split text into tokens by the pattern ``_TOKEN``, left to right.

    The pattern matches one of three alternatives, named after the script:
    a single hanzi (U+4E00-U+9FFF) is Han; a run of ASCII letters and
    apostrophes is Latin, or Punct when it is all apostrophes; a run of
    any other characters except whitespace is Punct, digits included.
    Whitespace (``str.isspace``) separates tokens and is never emitted, so
    token surfaces plus the skipped whitespace reconstruct the input
    exactly.  :func:`text_to_phoneme_sequence` skips only the Punct runs
    made of :data:`PUNCTUATION`.
    """
    tokens = []
    for match in _TOKEN.finditer(text):
        surface, script = match.group(), match.lastgroup
        if script == LATIN and not surface.strip("'"):
            script = PUNCT
        tokens.append(Token(surface, script, match.span()))
    return tokens


def lookup_ldp(token: Token, lexicon: Lexicon) -> tuple:
    """Return the language-dependent phonemes for one Han or Latin token."""
    if token.script == LATIN:
        entry = lexicon.en_entries.get(token.surface.upper())
        if entry is None:
            raise OOVError(token.surface, EN, offset=token.span[0])
        return entry
    if token.script == HAN:
        entry = lexicon.cn_entries.get(token.surface)
        if entry is None:
            raise OOVError(token.surface, CN, offset=token.span[0])
        return entry
    raise ValueError(f"no phonemes for {token.script} token {token.surface!r}")


def ldp_to_ipa(ldp: LDPSymbol, lexicon: Lexicon) -> tuple:
    """Return (IPA symbols, phoneme length) for one LDP; pure lookup."""
    symbols = lexicon.ipa_entries.get((ldp.label, ldp.language))
    if symbols is None:
        raise UnmappedLDPError(ldp.label, ldp.language)
    return symbols, len(symbols)


def inventory_ids(lexicon) -> dict:
    """Stable symbol -> id mapping: sorted inventory order.

    ``lexicon`` is a :class:`Lexicon` or an inventory from :func:`load_inventory`.
    """
    inventory = lexicon.inventory if isinstance(lexicon, Lexicon) else lexicon
    return {symbol: i for i, symbol in enumerate(sorted(inventory))}


def dump_phoneme_sequence(ps: PhonemeSequence, path) -> None:
    """One LDP per line: label, language, meta (- if none), length, IPA."""
    rows = [
        (sym.label, sym.language, "-" if sym.meta is None else str(sym.meta),
         str(len(ipa)), " ".join(ipa))
        for sym, ipa in zip(ps.ldp, ps.ipa_segments())
    ]
    write_records(path, rows, "\t", header="label\tlanguage\tmeta\tlength\tipa")


def load_phoneme_sequence(path) -> PhonemeSequence:
    ldp, ipa, lengths = [], [], []
    for line_no, (label, language, meta, length, symbols) in records(path, "\t", n_fields=5):
        if language not in (EN, CN):
            raise ParseError(f"unknown language {language!r}", path=path, line=line_no)
        n = cast(int, length, path, line_no)
        symbol_list = symbols.split()
        if n != len(symbol_list):
            raise ParseError(
                f"length {n} does not match {len(symbol_list)} IPA symbols",
                path=path,
                line=line_no,
            )
        meta = None if meta == "-" else cast(int, meta, path, line_no)
        ldp.append(LDPSymbol(label, language, meta))
        ipa.extend(symbol_list)
        lengths.append(n)
    return PhonemeSequence(tuple(ldp), tuple(ipa), tuple(lengths))


def text_to_phoneme_sequence(text: str, lexicon: Lexicon) -> PhonemeSequence:
    """Full frontend: text in, parallel LDP/IPA/length sequences out.

    The text is NFKC-normalised before tokenizing, and error offsets index
    the normalised text.  A Punct token whose characters are not all in
    :data:`PUNCTUATION` raises :class:`OOVError` at the first such character.
    """
    ldp_out, ipa_out, lengths = [], [], []
    for token in tokenize(unicodedata.normalize("NFKC", text)):
        if token.script == PUNCT:
            for i, ch in enumerate(token.surface):
                if ch not in PUNCTUATION:
                    raise OOVError(ch, None, offset=token.span[0] + i)
            continue
        for ldp in lookup_ldp(token, lexicon):
            try:
                symbols, length = ldp_to_ipa(ldp, lexicon)
            except UnmappedLDPError as exc:
                raise UnmappedLDPError(
                    ldp.label, ldp.language, offset=token.span[0]
                ) from exc
            ldp_out.append(ldp)
            ipa_out.extend(symbols)
            lengths.append(length)
    return PhonemeSequence(tuple(ldp_out), tuple(ipa_out), tuple(lengths))
