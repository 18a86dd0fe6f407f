"""tools/code_lines.py: the code lines of Python and C sources."""

import os
import sys

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
sys.path.insert(0, TOOLS)

import code_lines  # noqa: E402


def test_c_lines_skip_comments_and_blanks():
    source = (
        "/* a header\n"
        " * of two lines */\n"
        "\n"
        "int a; /* trailing */\n"
        "/* opens\n"
        "   closes */ int b;\n"
        "// a line comment\n"
        'const char *s = "/* not a comment */";\n'
        "char c = '/'; // and a tail\n"
        "   \n"
    )
    assert code_lines.c_code_lines(source) == 4


def test_python_and_c_totals_are_apart(tmp_path, capsys):
    (tmp_path / "m.py").write_text('"""Doc."""\n\nx = 1  # one\n')
    (tmp_path / "k.c").write_text("/* k */\nint k;\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["1", "1", "1", "1"]
    assert lines[1].endswith(" total") and lines[3].endswith(" C total")
