"""Caption decomposition: matching rules, article handling, conservation."""

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

    def test_only_the_article_directly_before_a_match_is_dropped(self):
        """With articles stacked before consecutive matches, only the one right before the first match goes."""
        lex = CategoryLexicon.from_words(["cat", "car"])
        assert decompose("a a cat CARS", lex) == ("a", "cat CARS")
        assert decompose("the a cat", lex) == ("the", "cat")

    def test_case_insensitive_match_preserves_original_case(self, lexicon):
        assert decompose("The CAT sat", lexicon) == ("sat", "CAT")

    def test_punctuation_is_a_separator(self, lexicon):
        assert decompose("neon-style, dog!", lexicon) == ("neon style", "dog")

    def test_determinism(self, lexicon):
        caption = "a dog, a cat and a sketch"
        assert decompose(caption, lexicon) == decompose(caption, lexicon)


class TestWordConservation:
    """A caption splits as the docstring's rule says: each category word goes to the category text, each
    other word to the style text, except an article directly before a category word, which is dropped."""

    @staticmethod
    def rule(caption, lexicon):
        """(style text, category text) by that rule, or None where one of them is empty."""
        words = words_of(caption)
        category = [w for w in words if lexicon.matches(w)]
        style = [w for w, after in zip(words, words[1:] + [""])
                 if not lexicon.matches(w) and not (w.casefold() in ARTICLES and lexicon.matches(after))]
        return (" ".join(style), " ".join(category)) if style and category else None

    def test_thousand_random_captions(self):
        rng = np.random.default_rng(42)
        lex = CategoryLexicon.from_words(["cat", "dog", "car", "tree", "kite"])
        vocab = ["a", "an", "the", "cat", "dogs", "neon", "style", "of", "CARS",
                 "Tree", "kite", "running", "sketch,", "misty!", "walls"]
        split = 0
        for _ in range(1000):
            n = rng.integers(0, 12)
            caption = " ".join(rng.choice(vocab, size=n))
            want = self.rule(caption, lex)
            if want is None:
                with pytest.raises(ConfigError, match="does not decompose"):
                    decompose(caption, lex)
            else:
                assert decompose(caption, lex) == want, caption
                split += 1
        assert 0 < split < 1000  # both branches ran

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
