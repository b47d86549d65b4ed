"""Caption decomposition: matching rules, article handling, conservation."""

import json
import re
from collections import Counter

import numpy as np
import pytest

from stylecat.backbone import words_of
from stylecat.captions import (
    ARTICLES,
    CaptionsError,
    CategoryLexicon,
    LexiconError,
    batch_decompose,
    decompose,
)
from stylecat.cli import main
from stylecat.datagen import SyntheticSpec, generate_classification_dataset


@pytest.fixture
def lexicon():
    return CategoryLexicon.from_words(["cat", "dog"])


class TestDecompose:
    def test_reference_caption(self):
        lex = CategoryLexicon.from_words(["cat"])
        d = decompose("A photo of Pokemon style cat", lex)
        assert d.style_text == "A photo of Pokemon style"
        assert d.category_text == "cat"

    def test_empty_caption(self, lexicon):
        d = decompose("", lexicon)
        assert d.style_text == "" and d.category_text == ""

    def test_no_match_keeps_everything_in_style(self, lexicon):
        d = decompose("sunset over mountains", lexicon)
        assert d.style_text == "sunset over mountains"
        assert d.category_text == ""

    def test_plural_trailing_s(self, lexicon):
        d = decompose("three cats running", lexicon)
        assert d.category_text == "cats"
        assert d.style_text == "three running"

    def test_explicit_plural_entries(self):
        lex = CategoryLexicon.from_words(["mouse", "mice"])
        d = decompose("two mice and a mouse", lex)
        assert d.category_text == "mice mouse"
        assert d.style_text == "two and"

    def test_article_before_match_is_dropped(self, lexicon):
        d = decompose("a painting of the dog", lexicon)
        assert d.style_text == "a painting of"
        assert d.category_text == "dog"

    def test_article_not_before_match_is_kept(self, lexicon):
        d = decompose("a sunset and the sea", lexicon)
        assert d.style_text == "a sunset and the sea"

    def test_case_insensitive_match_preserves_original_case(self, lexicon):
        d = decompose("The CAT sat", lexicon)
        assert d.category_text == "CAT"
        assert d.style_text == "sat"

    def test_punctuation_is_a_separator(self, lexicon):
        d = decompose("neon-style, dog!", lexicon)
        assert d.category_text == "dog"
        assert d.style_text == "neon style"

    def test_determinism(self, lexicon):
        caption = "a dog, a cat and a sketch"
        assert decompose(caption, lexicon) == decompose(caption, lexicon)


class TestWordConservation:
    """style words + category words + dropped articles == caption words."""

    def check(self, caption, lexicon):
        d = decompose(caption, lexicon)
        got = Counter(w.casefold() for w in words_of(d.style_text))
        got += Counter(w.casefold() for w in words_of(d.category_text))
        want = Counter(w.casefold() for w in words_of(caption))
        dropped = want - got
        assert got - want == Counter(), "decomposition invented words"
        assert set(dropped) <= ARTICLES, f"dropped non-article words: {dropped}"
        for w in words_of(d.style_text) + words_of(d.category_text):
            assert want[w.casefold()] > 0

    def test_thousand_random_captions(self):
        rng = np.random.default_rng(42)
        lex = CategoryLexicon.from_words(["cat", "dog", "car", "tree", "kite"])
        vocab = ["a", "an", "the", "cat", "dogs", "neon", "style", "of", "CARS",
                 "Tree", "kite", "running", "sketch,", "misty!", "walls"]
        for _ in range(1000):
            n = rng.integers(0, 12)
            caption = " ".join(rng.choice(vocab, size=n))
            self.check(caption, lex)

    def test_generated_captions_recover_category_noun(self):
        spec = SyntheticSpec()
        lex = CategoryLexicon.from_words(spec.category_names)
        train, test = generate_classification_dataset(spec)
        for s in train + test:
            d = decompose(s.caption, lex)
            assert d.category_text == spec.category_names[s.category]


class TestLexicon:
    def test_empty_rejected(self):
        with pytest.raises(LexiconError, match="empty"):
            CategoryLexicon(frozenset())

    def test_whitespace_entry_rejected(self):
        with pytest.raises(LexiconError):
            CategoryLexicon(frozenset({"two words"}))

    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("Cat\ndog\n\n tree \n", encoding="utf-8")
        lex = CategoryLexicon.from_file(p)
        assert lex.words == frozenset({"cat", "dog", "tree"})

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("\n\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="no entries"):
            CategoryLexicon.from_file(p)

    def test_unicode_casefold(self):
        lex = CategoryLexicon.from_words(["straße"])
        assert lex.matches("STRASSE")

    def test_bad_file_entry_names_file_and_line(self, tmp_path, capsys):
        """``decompose`` on a lexicon whose third line holds two words exits 1 naming that file and line, counted
        as an editor counts them: a form feed ends no line."""
        lexicon = tmp_path / "lx.txt"
        lexicon.write_bytes(b"cat\r\n\x0c\nbig dog\n")
        message = f"lexicon file {lexicon}, line 3: lexicon entry must be lowercase without whitespace: 'big dog'"
        with pytest.raises(LexiconError, match=f"^{re.escape(message)}$"):
            CategoryLexicon.from_file(lexicon)
        (tmp_path / "caps.txt").write_text("a neon cat\n", encoding="utf-8")
        assert main(["decompose", "--captions", str(tmp_path / "caps.txt"), "--lexicon", str(lexicon),
                     "--out", str(tmp_path / "out.jsonl")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out.jsonl").exists()


class TestBatchDecompose:
    def test_three_lines_three_records(self, tmp_path, lexicon):
        src = tmp_path / "caps.txt"
        src.write_text("a neon cat\nplain landscape\nthe dogs\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert batch_decompose(src, lexicon, out) == 3
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        rec = json.loads(lines[0])
        assert rec == {"caption": "a neon cat", "style_text": "a neon", "category_text": "cat"}

    def test_rerun_is_byte_identical(self, tmp_path, lexicon):
        src = tmp_path / "caps.txt"
        src.write_text("a neon cat\nthe dog runs\n", encoding="utf-8")
        out1, out2 = tmp_path / "o1.jsonl", tmp_path / "o2.jsonl"
        batch_decompose(src, lexicon, out1)
        batch_decompose(src, lexicon, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_any_newline_convention_ends_a_line(self, tmp_path, lexicon):
        src = tmp_path / "caps.txt"
        src.write_bytes(b"a neon cat\r\nthe dog\rplain landscape")
        out = tmp_path / "out.jsonl"
        assert batch_decompose(src, lexicon, out) == 3
        captions = [json.loads(line)["caption"] for line in out.read_text(encoding="utf-8").splitlines()]
        assert captions == ["a neon cat", "the dog", "plain landscape"]

    def test_non_utf8_captions_raise_naming_file_and_line(self, tmp_path, lexicon):
        src = tmp_path / "caps.txt"
        src.write_bytes(b"a neon cat\nthe d\xffg\n")
        with pytest.raises(CaptionsError, match=rf"captions file {re.escape(str(src))}, line 2: not UTF-8"):
            batch_decompose(src, lexicon, tmp_path / "out.jsonl")
        assert not (tmp_path / "out.jsonl").exists()

    def test_non_utf8_captions_exit_one_and_leave_out_untouched(self, tmp_path, capsys):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("cat\ndog\n", encoding="utf-8")
        src = tmp_path / "caps.txt"
        src.write_bytes(b"a neon cat\nthe d\xffg runs\n")
        out = tmp_path / "out.jsonl"
        out.write_bytes(b'{"caption": "from an earlier run"}\n')
        before = out.read_bytes()
        assert main(["decompose", "--captions", str(src), "--lexicon", str(lexicon), "--out", str(out)]) == 1
        assert f"error: captions file {src}, line 2: not UTF-8 text" in capsys.readouterr().err
        assert out.read_bytes() == before
