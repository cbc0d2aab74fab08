"""tools/code_lines.py: the code-line count reported for the package."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

MODULE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line

# a comment line


class Box:
    """Class docstring."""

    size = 1


def area(a,
         b):
    """Function docstring
    over two lines.
    """
    text = """a string that is
    not a docstring"""
    return max(  # the call spans three lines
        a * b,
        len(text))
'''


def test_counts_tokens_outside_comments_and_docstrings():
    # import, class, size, def (2 lines), text (2 lines), return (3 lines)
    assert code_lines.code_lines(MODULE) == 10


def test_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "big.py").write_text(MODULE)
    (tmp_path / "small.py").write_text('"""Only a docstring."""\nx = 1\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    done = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                          check=True, capture_output=True, text=True)
    assert done.stdout == "big       10\nsmall      1\ntotal     11\n"


def test_usage_exits_two():
    done = subprocess.run([sys.executable, str(SCRIPT), "a", "b"], capture_output=True, text=True)
    assert done.returncode == 2 and "PACKAGE_DIR" in done.stderr
