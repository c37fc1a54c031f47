"""The code-line counter of tests/code_lines.py on a snippet counted by
hand."""
from code_lines import code_lines

SNIPPET = '''"""Module docstring,
two lines."""
import math  # a comment on a code line counts

# a comment line


def f(x):
    """One-line docstring."""
    total = (x
             + math.pi)   # a continued expression: two lines
    text = """a string that
spans lines"""
    return total, text


class C:
    """Class docstring."""

    value = 1
'''


def test_code_lines_counts_a_snippet(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET, encoding="utf-8")
    # import, def, two of the assignment, two of the string, return, class,
    # value
    assert code_lines(path) == 9
