import re
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xling.errors import LengthMismatchError, OOVError, ParseError, UnmappedLDPError
from xling.lexicon import (
    CN,
    EN,
    HAN,
    LATIN,
    PUNCT,
    PUNCTUATION,
    LDPSymbol,
    Lexicon,
    PhonemeSequence,
    ldp_to_ipa,
    lookup_ldp,
    text_to_phoneme_sequence,
    tokenize,
)


def bundled_file_entries(name):
    """Parse a bundled dict file directly, independent of Lexicon.load."""
    from importlib import resources

    text = (resources.files("xling") / "data" / name).read_text("utf-8")
    entries = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, rhs = line.split("\t", 1)
        entries.setdefault(key, rhs.split())
    return entries


def reference_tokenize(text):
    """The token rule as a character-by-character scanner, giving
    ``(surface, script, span)`` triples: the oracle for ``tokenize``."""
    latin = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ'")

    def is_han(ch):
        return "一" <= ch <= "鿿"

    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif is_han(ch):
            tokens.append((ch, HAN, (i, i + 1)))
            i += 1
        elif ch in latin:
            j = i
            while j < n and text[j] in latin:
                j += 1
            surface = text[i:j]
            script = LATIN if any(c.isalpha() for c in surface) else PUNCT
            tokens.append((surface, script, (i, j)))
            i = j
        else:
            j = i
            while j < n and not (text[j].isspace() or is_han(text[j]) or text[j] in latin):
                j += 1
            tokens.append((text[i:j], PUNCT, (i, j)))
            i = j
    return tokens


# Letters, apostrophes and digits; whitespace that ``str.isspace`` and ``\s``
# must agree on (U+001C-U+001F, U+0085, U+00A0, U+3000); the Han range's
# edges inside and out; CJK and full-width punctuation; controls and
# full-width letters that are not whitespace; an astral character.
TOKEN_ALPHABET = (
    "abzAMZ'0179"
    " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"
    "\u4dff\u4e00\u9fff\ua000"
    "，。、「」！？（）　…—"
    "\x00\x1b\u200bＡｚ"
    "\U0001f600"
)


class TestTokenize:
    def test_single_latin_word(self):
        tokens = tokenize("hello")
        assert [(t.surface, t.script) for t in tokens] == [("hello", LATIN)]

    def test_han_one_token_per_codepoint(self):
        tokens = tokenize("你好")
        assert [(t.surface, t.script) for t in tokens] == [("你", HAN), ("好", HAN)]

    def test_mixed_sentence(self):
        tokens = tokenize("我 在 用 mixed")
        assert [(t.surface, t.script) for t in tokens] == [
            ("我", HAN),
            ("在", HAN),
            ("用", HAN),
            ("mixed", LATIN),
        ]

    def test_punctuation_and_digits_become_punct(self):
        tokens = tokenize("hi, 你123!")
        kinds = [(t.surface, t.script) for t in tokens]
        assert kinds == [("hi", LATIN), (",", PUNCT), ("你", HAN), ("123!", PUNCT)]

    def test_apostrophe_only_run_is_punct(self):
        (tok,) = tokenize("''")
        assert tok.script == PUNCT

    def test_apostrophe_inside_word(self):
        (tok,) = tokenize("don't")
        assert tok.surface == "don't" and tok.script == LATIN

    @given(st.text(max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_totality_and_reconstruction(self, text):
        tokens = tokenize(text)
        # spans are in order, non-empty, within bounds, and cover exactly
        # the non-whitespace characters
        pos = 0
        for tok in tokens:
            start, end = tok.span
            assert 0 <= start < end <= len(text)
            assert start >= pos
            assert text[pos:start].isspace() or text[pos:start] == ""
            assert text[start:end] == tok.surface
            pos = end
        assert text[pos:].isspace() or text[pos:] == ""

    @given(st.text(alphabet=TOKEN_ALPHABET, max_size=40))
    @settings(max_examples=1000, deadline=None)
    def test_same_tokens_as_the_scanner(self, text):
        got = [(t.surface, t.script, t.span) for t in tokenize(text)]
        assert got == reference_tokenize(text)


class TestLookupLdp:
    def test_mixed_matches_bundled_file(self, lexicon):
        raw = bundled_file_entries("en_arpabet.dict")["MIXED"]
        assert raw == ["M", "IH1", "K", "S", "T"]
        (tok,) = tokenize("mixed")
        got = lookup_ldp(tok, lexicon)
        assert [s.label for s in got] == ["M", "IH", "K", "S", "T"]
        assert [s.meta for s in got] == [None, 1, None, None, None]
        assert all(s.language == EN for s in got)

    def test_case_insensitive(self, lexicon):
        (tok,) = tokenize("MiXeD")
        assert [s.label for s in lookup_ldp(tok, lexicon)] == ["M", "IH", "K", "S", "T"]

    def test_hanzi_matches_bundled_file(self, lexicon):
        raw = bundled_file_entries("cn_pinyin.dict")["好"]
        assert raw == ["hao3"]
        (tok,) = tokenize("好")
        (sym,) = lookup_ldp(tok, lexicon)
        assert sym == LDPSymbol("hao", CN, 3)

    def test_oov_is_hard_error(self, lexicon):
        (tok,) = tokenize("zzxqv")
        with pytest.raises(OOVError) as exc_info:
            lookup_ldp(tok, lexicon)
        assert exc_info.value.offset == 0

    def test_labels_carry_no_digits(self, lexicon):
        for entry in list(lexicon.en_entries.values()) + list(lexicon.cn_entries.values()):
            for sym in entry:
                assert not any(c.isdigit() for c in sym.label)
                assert sym.label


class TestLdpToIpa:
    def test_en_k(self, lexicon):
        raw = bundled_file_entries("ldp_to_ipa.dict")["EN:K"]
        symbols, length = ldp_to_ipa(LDPSymbol("K", EN), lexicon)
        assert list(symbols) == raw == ["k"]
        assert length == 1

    def test_cn_hao_decomposes(self, lexicon):
        symbols, length = ldp_to_ipa(LDPSymbol("hao", CN, 3), lexicon)
        assert length == len(symbols) >= 2

    def test_length_equals_count_for_all_entries(self, lexicon):
        for (label, language), symbols in lexicon.ipa_entries.items():
            got, length = ldp_to_ipa(LDPSymbol(label, language), lexicon)
            assert got == symbols and length == len(symbols) >= 1

    def test_all_symbols_in_inventory(self, lexicon):
        for symbols in lexicon.ipa_entries.values():
            assert all(s in lexicon.inventory for s in symbols)

    def test_unmapped_is_hard_error(self, lexicon):
        with pytest.raises(UnmappedLDPError):
            ldp_to_ipa(LDPSymbol("QQQ", EN), lexicon)


class TestTextToPhonemeSequence:
    def test_empty_text(self, lexicon):
        ps = text_to_phoneme_sequence("", lexicon)
        assert len(ps.ldp) == len(ps.ipa) == len(ps.lengths) == 0

    def test_mixed_word(self, lexicon):
        ps = text_to_phoneme_sequence("mixed", lexicon)
        assert len(ps.ldp) == 5
        assert all(n >= 1 for n in ps.lengths)
        assert sum(ps.lengths) == len(ps.ipa)

    def test_punctuation_contributes_nothing(self, lexicon):
        assert text_to_phoneme_sequence("好,好!", lexicon) == text_to_phoneme_sequence(
            "好好", lexicon
        )

    def test_oov_error_carries_offset(self, lexicon):
        with pytest.raises(OOVError) as exc_info:
            text_to_phoneme_sequence("好 zzxqv", lexicon)
        assert exc_info.value.offset == 2

    def test_determinism(self, lexicon):
        text = "你好 world 我 在 用 mixed speech"
        assert text_to_phoneme_sequence(text, lexicon) == text_to_phoneme_sequence(
            text, lexicon
        )

    def test_invariants_on_random_sentences(self, lexicon):
        rng = np.random.default_rng(123)
        en_words = sorted(lexicon.en_entries)
        cn_chars = sorted(lexicon.cn_entries)
        for _ in range(100):
            parts = []
            for _ in range(int(rng.integers(1, 10))):
                if rng.random() < 0.5:
                    parts.append(str(rng.choice(en_words)).lower())
                else:
                    parts.append(str(rng.choice(cn_chars)))
            text = " ".join(parts)
            ps = text_to_phoneme_sequence(text, lexicon)
            assert len(ps.lengths) == len(ps.ldp)
            assert sum(ps.lengths) == len(ps.ipa)
            assert all(n >= 1 for n in ps.lengths)

    def test_roundtrip_segmentation(self, lexicon):
        # re-looking-up each LDP must reproduce its IPA slice exactly
        rng = np.random.default_rng(321)
        cn_chars = sorted(lexicon.cn_entries)
        words = sorted(lexicon.en_entries)
        for _ in range(50):
            text = " ".join(
                str(rng.choice(words)).lower() if rng.random() < 0.5 else str(rng.choice(cn_chars))
                for _ in range(int(rng.integers(1, 8)))
            )
            ps = text_to_phoneme_sequence(text, lexicon)
            for sym, segment in zip(ps.ldp, ps.ipa_segments()):
                symbols, length = ldp_to_ipa(sym, lexicon)
                assert tuple(segment) == symbols
                assert length == len(segment)


class TestPhonemeSequenceInvariants:
    def test_lengths_must_sum(self):
        with pytest.raises(LengthMismatchError):
            PhonemeSequence((LDPSymbol("K", EN),), ("k", "k"), (1,))

    def test_zero_length_rejected(self):
        with pytest.raises(LengthMismatchError):
            PhonemeSequence((LDPSymbol("K", EN),), (), (0,))


class TestLexiconLoading:
    def test_parse_error_without_tab(self, tmp_path):
        (tmp_path / "en.dict").write_text("HELLO HH AH0\n", encoding="utf-8")
        (tmp_path / "cn.dict").write_text("好\thao3\n", encoding="utf-8")
        (tmp_path / "map.dict").write_text("EN:HH\th\n", encoding="utf-8")
        (tmp_path / "inv.txt").write_text("h\n", encoding="utf-8")
        with pytest.raises(ParseError):
            Lexicon.load(
                tmp_path / "en.dict",
                tmp_path / "cn.dict",
                tmp_path / "map.dict",
                tmp_path / "inv.txt",
            )

    def test_symbol_outside_inventory_rejected(self, tmp_path):
        (tmp_path / "en.dict").write_text("HI\tHH AY1\n", encoding="utf-8")
        (tmp_path / "cn.dict").write_text("好\thao3\n", encoding="utf-8")
        (tmp_path / "map.dict").write_text("EN:HH\th\nEN:AY\tbogus\n", encoding="utf-8")
        (tmp_path / "inv.txt").write_text("h\n", encoding="utf-8")
        with pytest.raises(ParseError):
            Lexicon.load(
                tmp_path / "en.dict",
                tmp_path / "cn.dict",
                tmp_path / "map.dict",
                tmp_path / "inv.txt",
            )

    def test_only_ascii_digits_are_stress_or_tone(self, tmp_path):
        (tmp_path / "en.dict").write_text("HI\tHH AY1\nHELLO\tHH AH0 L OW\u00b9\n",
                                          encoding="utf-8")
        (tmp_path / "cn.dict").write_text("你\tni3\n好\thao\u00b3\n", encoding="utf-8")
        (tmp_path / "map.dict").write_text("EN:HH\th\n", encoding="utf-8")
        (tmp_path / "inv.txt").write_text("h\n", encoding="utf-8")
        lexicon = Lexicon.load(tmp_path / "en.dict", tmp_path / "cn.dict",
                               tmp_path / "map.dict", tmp_path / "inv.txt")
        assert lexicon.en_entries["HI"][1] == LDPSymbol("AY", EN, 1)
        assert lexicon.en_entries["HELLO"][3] == LDPSymbol("OW\u00b9", EN, None)
        assert lexicon.cn_entries["你"] == (LDPSymbol("ni", CN, 3),)
        assert lexicon.cn_entries["好"] == (LDPSymbol("hao\u00b3", CN, None),)


def fullwidth(text):
    return "".join(chr(ord(c) + 0xFEE0) if "!" <= c <= "~" else c for c in text)


class TestNothingSilentlyDropped:
    def test_digits_raise_with_offset(self, lexicon):
        with pytest.raises(OOVError) as exc_info:
            text_to_phoneme_sequence("你好 2021 world", lexicon)
        assert exc_info.value.offset == 3 and exc_info.value.surface == "2"
        assert exc_info.value.language is None

    def test_fullwidth_latin_reads_as_ascii(self, lexicon):
        ps = text_to_phoneme_sequence(fullwidth("hello"), lexicon)
        assert len(ps) > 0 and ps == text_to_phoneme_sequence("hello", lexicon)

    @pytest.mark.parametrize("text, plain", [
        ("你好，world！", "你好 world"),
        ("你好。「world」", "你好 world"),
        ("《你好》、world…", "你好 world"),
        ("你好 —— world; (world)", "你好 world world"),
    ])
    def test_ascii_and_cjk_punctuation_are_skipped(self, lexicon, text, plain):
        assert text_to_phoneme_sequence(text, lexicon) == text_to_phoneme_sequence(
            plain, lexicon
        )

    @pytest.mark.parametrize("text, offset", [
        ("好 ☃", 2), ("world ½", 6), ("好€", 1), ("好́", 1),
    ])
    def test_other_symbols_raise(self, lexicon, text, offset):
        with pytest.raises(OOVError) as exc_info:
            text_to_phoneme_sequence(text, lexicon)
        assert exc_info.value.offset == offset

    @given(data=st.data())
    @settings(max_examples=300)
    def test_every_spoken_character_yields_a_phoneme_or_raises(self, lexicon, data):
        words = sorted(lexicon.en_entries)
        hanzi = sorted(lexicon.cn_entries)
        piece = st.one_of(
            st.sampled_from(words).map(str.lower),
            st.sampled_from(words).map(fullwidth),
            st.sampled_from(hanzi),
            st.sampled_from(sorted(PUNCTUATION)),
            st.sampled_from(list("0123456789０１２，！？　 \t")),
            st.characters(),
        )
        pieces = data.draw(st.lists(piece, max_size=12))
        text = data.draw(st.sampled_from(["", " "])).join(pieces)
        norm = unicodedata.normalize("NFKC", text)
        try:
            ps = text_to_phoneme_sequence(text, lexicon)
        except OOVError as exc:
            assert norm[exc.offset : exc.offset + len(exc.surface)] == exc.surface
            assert any(not c.isspace() and c not in PUNCTUATION for c in exc.surface)
            return
        han = [c for c in norm if "一" <= c <= "鿿"]
        latin_runs = re.findall(r"[A-Za-z']*[A-Za-z][A-Za-z']*", norm)
        assert all(
            c.isspace() or c in PUNCTUATION or c in han or c.isascii() and c.isalpha()
            for c in norm
        )
        assert sum(s.language == CN for s in ps.ldp) == len(han)
        assert sum(s.language == EN for s in ps.ldp) >= len(latin_runs)


class TestErrorsCrossProcessPools:
    @pytest.mark.parametrize("exc", [
        OOVError("zzxqv", "EN", 3),
        OOVError("7", None),
        UnmappedLDPError("ABC", "CN", 0),
    ])
    def test_pickle_round_trip_keeps_type_code_fields_and_message(self, exc):
        import pickle

        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert (back.code, str(back)) == (exc.code, str(exc))
        assert vars(back) == vars(exc)
