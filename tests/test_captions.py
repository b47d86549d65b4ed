"""Caption decomposition: matching rules, article handling, conservation."""

from collections import Counter

import numpy as np
import pytest

from stylecat.backbone import words_of
from stylecat.captions import ARTICLES, CategoryLexicon, decompose
from stylecat.checkpoint import ConfigError
from stylecat.datagen import SyntheticSpec, generate_classification_dataset


@pytest.fixture
def lexicon():
    return CategoryLexicon.from_words(["cat", "dog"])


class TestDecompose:
    def test_reference_caption(self):
        lex = CategoryLexicon.from_words(["cat"])
        assert decompose("A photo of Pokemon style cat", lex) == ("A photo of Pokemon style", "cat")

    def test_empty_caption(self, lexicon):
        with pytest.raises(ConfigError, match="^caption '' does not decompose into non-empty style and category text$"):
            decompose("", lexicon)

    def test_no_match_has_no_category_text(self, lexicon):
        with pytest.raises(ConfigError, match="^caption 'sunset over mountains' does not decompose"):
            decompose("sunset over mountains", lexicon)

    def test_only_matches_have_no_style_text(self, lexicon):
        """A dropped article leaves no style word behind."""
        with pytest.raises(ConfigError, match="^caption 'the dogs' does not decompose"):
            decompose("the dogs", lexicon)

    def test_plural_trailing_s(self, lexicon):
        assert decompose("three cats running", lexicon) == ("three running", "cats")

    def test_explicit_plural_entries(self):
        lex = CategoryLexicon.from_words(["mouse", "mice"])
        assert decompose("two mice and a mouse", lex) == ("two and", "mice mouse")

    def test_article_before_match_is_dropped(self, lexicon):
        assert decompose("a painting of the dog", lexicon) == ("a painting of", "dog")

    def test_article_not_before_match_is_kept(self, lexicon):
        assert decompose("a sunset and the sea cat", lexicon) == ("a sunset and the sea", "cat")

    def test_case_insensitive_match_preserves_original_case(self, lexicon):
        assert decompose("The CAT sat", lexicon) == ("sat", "CAT")

    def test_punctuation_is_a_separator(self, lexicon):
        assert decompose("neon-style, dog!", lexicon) == ("neon style", "dog")

    def test_determinism(self, lexicon):
        caption = "a dog, a cat and a sketch"
        assert decompose(caption, lexicon) == decompose(caption, lexicon)


class TestWordConservation:
    """style words + category words + dropped articles == caption words."""

    def check(self, caption, lexicon):
        """Whether ``caption`` splits; if it does, its words are conserved, and if not, it lacks a style or a
        category word."""
        try:
            style_text, category_text = decompose(caption, lexicon)
        except ConfigError:
            # only an article is ever dropped, so a caption with a category word and a word that is neither
            # a category word nor an article splits
            categories = [w for w in words_of(caption) if lexicon.matches(w)]
            styles = [w for w in words_of(caption) if not lexicon.matches(w) and w.casefold() not in ARTICLES]
            assert not categories or not styles, f"{caption!r} has both halves but did not split"
            return False
        got = Counter(w.casefold() for w in words_of(style_text))
        got += Counter(w.casefold() for w in words_of(category_text))
        want = Counter(w.casefold() for w in words_of(caption))
        dropped = want - got
        assert got - want == Counter(), "decomposition invented words"
        assert set(dropped) <= ARTICLES, f"dropped non-article words: {dropped}"
        for w in words_of(style_text) + words_of(category_text):
            assert want[w.casefold()] > 0
        return True

    def test_thousand_random_captions(self):
        rng = np.random.default_rng(42)
        lex = CategoryLexicon.from_words(["cat", "dog", "car", "tree", "kite"])
        vocab = ["a", "an", "the", "cat", "dogs", "neon", "style", "of", "CARS",
                 "Tree", "kite", "running", "sketch,", "misty!", "walls"]
        split = 0
        for _ in range(1000):
            n = rng.integers(0, 12)
            caption = " ".join(rng.choice(vocab, size=n))
            split += self.check(caption, lex)
        assert 0 < split < 1000  # both branches of ``check`` ran

    def test_generated_captions_recover_category_noun(self):
        spec = SyntheticSpec()
        lex = CategoryLexicon.from_words(spec.category_names)
        train, test = generate_classification_dataset(spec)
        for s in train + test:
            assert decompose(s.caption, lex)[1] == spec.category_names[s.category]


class TestLexicon:
    def test_unicode_casefold(self):
        lex = CategoryLexicon.from_words(["straße"])
        assert lex.matches("STRASSE")
