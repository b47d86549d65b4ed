"""Split captions into style-related and category-related text.

Category words are matched case-insensitively against a noun lexicon
(including a trailing-s plural rule); everything else is style text. An
article directly before a matched noun is dropped rather than left
dangling in the style text.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path

from .backbone import words_of
from .checkpoint import ConfigError

ARTICLES = frozenset({"a", "an", "the"})


class LexiconError(ValueError):
    """Invalid or empty category lexicon."""


class CaptionsError(ValueError):
    """A captions file that is not UTF-8 text; the message names the file and the line."""


def _check_entry(w: str, where: str = "") -> None:
    """LexiconError, its message led by ``where``, unless ``w`` is a non-empty lowercase word without whitespace."""
    if not w or w != w.casefold() or any(ch.isspace() for ch in w):
        raise LexiconError(f"{where}lexicon entry must be lowercase without whitespace: {w!r}")


@dataclass(frozen=True)
class CategoryLexicon:
    """Set of category nouns (lowercase, no whitespace)."""

    words: frozenset

    def __post_init__(self):
        if not self.words:
            raise LexiconError("category lexicon is empty")
        for w in self.words:
            _check_entry(w)

    @classmethod
    def from_words(cls, words) -> "CategoryLexicon":
        return cls(frozenset(w.casefold() for w in words))

    @classmethod
    def from_file(cls, path) -> "CategoryLexicon":
        try:
            lines = Path(path).read_text(encoding="utf-8").split("\n")  # "\r\n" and "\r" read as "\n"
        except UnicodeDecodeError as e:
            raise LexiconError(f"lexicon file {path} is not UTF-8 text: {e}") from e
        entries = [(lineno, ln.strip().casefold()) for lineno, ln in enumerate(lines, start=1) if ln.strip()]
        if not entries:
            raise LexiconError(f"lexicon file {path} contains no entries")
        for lineno, w in entries:
            _check_entry(w, f"lexicon file {path}, line {lineno}: ")
        return cls(frozenset(w for _, w in entries))

    def matches(self, token: str) -> bool:
        t = token.casefold()
        if t in self.words:
            return True
        return t.endswith("s") and t[:-1] in self.words


@dataclass(frozen=True)
class DecomposedCaption:
    style_text: str
    category_text: str


def decompose(caption: str, lexicon: CategoryLexicon) -> DecomposedCaption:
    """Route each caption word to style or category text.

    Word order is preserved within each output; articles immediately
    preceding a matched category word are dropped entirely.
    """
    tokens = words_of(caption)
    style: list[str] = []
    category: list[str] = []
    for tok in tokens:
        if lexicon.matches(tok):
            if style and style[-1].casefold() in ARTICLES:
                style.pop()
            category.append(tok)
        else:
            style.append(tok)
    return DecomposedCaption(" ".join(style), " ".join(category))


def split_caption(caption: str, lexicon: CategoryLexicon) -> tuple[str, str]:
    """(style text, category text) of a caption; ConfigError unless both are non-empty."""
    d = decompose(caption, lexicon)
    if not d.style_text or not d.category_text:
        raise ConfigError(f"caption {caption!r} does not decompose into non-empty style and category text")
    return d.style_text, d.category_text


def batch_decompose(captions_path, lexicon: CategoryLexicon, out_path) -> int:
    """Decompose a captions file (one per line, any newline convention) into JSON-lines records.

    The whole input is read and decoded before ``out_path`` is opened, so a
    captions file that is not UTF-8 (``CaptionsError``) leaves it as it was.
    Returns the number of records written. Output bytes are a pure
    function of the input, so re-runs are byte-identical.
    """
    raw = Path(captions_path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise CaptionsError(f"captions file {captions_path}, line {line}: not UTF-8 text ({e.reason})") from e
    records = []
    for line in io.StringIO(text, newline=None):
        caption = line.rstrip("\n")
        d = decompose(caption, lexicon)
        record = {"caption": caption, "style_text": d.style_text, "category_text": d.category_text}
        records.append(json.dumps(record, ensure_ascii=False) + "\n")
    with open(out_path, "w", encoding="utf-8") as dst:
        dst.writelines(records)
    return len(records)
