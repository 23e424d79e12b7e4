"""The code-line counter in ``tools/code_lines.py``: tokens count, comments, docstrings and blank lines do not."""

import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import code_lines  # noqa: E402  (tools/ is not a package)

SNIPPET = textwrap.dedent('''\
    """Module docstring
    over two lines."""

    import os  # a trailing comment

    # a whole-line comment


    def f(a,
          b):
        """Function docstring."""
        x = [
            a,  # trailing
            b,
        ]
        s = """a string
    that is code"""
        return x, s


    class C:
        \'\'\'Class docstring.\'\'\'

        y = 1
        "a string after the first statement is not a docstring"
''')


def test_counts_code_lines_only():
    # import; def f(a, / b):; x = [ / a, / b, / ]; s = """ / that is code"""; return;
    # class C:; y = 1; the late string.
    assert code_lines.code_lines(SNIPPET) == 13


def test_empty_and_docstring_only_sources_have_no_code():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"    13 {tmp_path / 'a.py'}", f"     1 {tmp_path / 'b.py'}", "    14 total",
    ]
