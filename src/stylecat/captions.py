"""Split captions into style-related and category-related text.

Category words are matched case-insensitively against a noun lexicon
(including a trailing-s plural rule); everything else is style text. An
article directly before a matched noun is dropped rather than left
dangling in the style text.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backbone import words_of
from .checkpoint import ConfigError

ARTICLES = frozenset({"a", "an", "the"})


@dataclass(frozen=True)
class CategoryLexicon:
    """Set of category nouns, casefolded; ``SyntheticSpec`` checks the names it is built from."""

    words: frozenset

    @classmethod
    def from_words(cls, words) -> "CategoryLexicon":
        return cls(frozenset(w.casefold() for w in words))

    def matches(self, token: str) -> bool:
        t = token.casefold()
        if t in self.words:
            return True
        return t.endswith("s") and t[:-1] in self.words


def decompose(caption: str, lexicon: CategoryLexicon) -> tuple[str, str]:
    """(style text, category text) of a caption; ConfigError unless both are non-empty.

    Word order is preserved within each output; articles immediately
    preceding a matched category word are dropped entirely.
    """
    style: list[str] = []
    category: list[str] = []
    after_article = False  # whether the previous caption word is an article, the last of ``style``
    for tok in words_of(caption):
        if lexicon.matches(tok):
            if after_article:
                style.pop()
            category.append(tok)
            after_article = False
        else:
            style.append(tok)
            after_article = tok.casefold() in ARTICLES
    if not style or not category:
        raise ConfigError(f"caption {caption!r} does not decompose into non-empty style and category text")
    return " ".join(style), " ".join(category)
