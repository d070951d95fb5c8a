"""``tools/code_lines.py``, the code-line counter of the source tree."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

PLANTED = '''\
"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class Box:
    """Class docstring."""

    size = 2

    def area(self,
             scale):
        """Function docstring,

        with a blank line inside."""
        # the body
        text = """a string that is
not a docstring"""
        return self.size * scale, text


async def wait():
    \'\'\'Async docstring.\'\'\'
    return os.sep
'''


def test_counts_code_lines_and_skips_docstrings_comments_and_blanks(
        tmp_path, capsys):
    sub = tmp_path / "pkg"
    sub.mkdir()
    (sub / "planted.py").write_text(PLANTED)
    (tmp_path / "one.py").write_text("x = 1\n\n# only a comment\n")
    # import, class, size, def area (2 lines), text (2 lines), return,
    # async def, return
    assert code_lines.code_lines(sub / "planted.py") == 10
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "total 11"
    assert [line.split()[0] for line in lines[:-1]] == ["1", "10"]
