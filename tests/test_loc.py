"""``tools/loc.py``: all lines and lines of code of a small module, and the table it prints."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc_tool", TOOL)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# 16 lines. Code: the import, the def, the three lines of the call, the string
# assignment (a string that is no docstring) and the return -- 7 lines; the rest
# are the module and function docstrings, comments and blank lines.
MODULE = '''"""A module docstring
over two lines."""

import math  # a trailing comment leaves its line code

# a comment line


def f(x):
    """A function docstring."""
    # an indented comment
    y = math.hypot(x,
                   x,
                   x)
    s = """not a docstring"""
    return y + len(s)
'''


def test_counts_all_lines_and_code_lines(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(MODULE, encoding="utf-8")
    assert loc.count(path) == (16, 7)


def test_table_totals_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    assert loc.main(["loc.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "16", "7"], ["b.py", "3", "1"], ["total", "19", "8"]]
