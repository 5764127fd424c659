import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment keeps the line

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string that
        is not a docstring"""
        return (text,
                os.sep)
'''


def test_counts_code_not_blanks_comments_or_docstrings():
    # import, class, def, the 2-line assignment, the 2-line return
    assert code_lines.code_lines(SOURCE) == 7


def test_main_prints_each_module_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "b.py").write_text('"""doc"""\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[0] for ln in lines] == ["2", "1", "3"]
    assert lines[-1].split()[1] == "total"
