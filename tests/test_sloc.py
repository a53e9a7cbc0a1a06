import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sloc = runpy.run_path(str(ROOT / "tools" / "sloc.py"), run_name="sloc")


def test_code_lines_skip_blanks_comments_and_docstrings():
    text = ('"""Module doc.\n\nSecond paragraph."""\n'
            "import os  # a trailing comment\n"
            "\n"
            "# a comment line\n"
            "def f():\n"
            '    """Function doc."""\n'
            "    return (1,\n"
            "            2)\n")
    assert sloc["count"](text) == (10, 4)


def test_totals_match_the_files(capsys):
    assert sloc["main"]() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    *modules, total = rows
    files = sorted((ROOT / "src" / "bpre").glob("*.py"))
    assert [name for _, _, name in modules] == [f.name for f in files]
    lines = [len(f.read_text(encoding="utf-8").splitlines()) for f in files]
    assert [int(n) for n, _, _ in modules] == lines
    code = [int(c) for _, c, _ in modules]
    assert all(0 < c < n for c, n in zip(code, lines))
    assert total == [str(sum(lines)), str(sum(code)), "total"]
