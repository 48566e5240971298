"""The README's terminal sessions are replayed through the CLI, so the
transcripts it shows stay what the program prints, and its Python examples
are run, so they follow the library's API."""
import pathlib
import shlex

from loccforge.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def readme_python_blocks():
    """The text of every fenced block of README.md opened with ```python."""
    blocks, block = [], None
    for line in (ROOT / "README.md").read_text().splitlines():
        if block is None and line == "```python":
            block = []
        elif block is not None and line.startswith("```"):
            blocks.append("\n".join(block))
            block = None
        elif block is not None:
            block.append(line)
    return blocks


def readme_sessions():
    """(command line, printed lines) for every `$ loccforge ...` line in a
    fenced block of README.md; the printed lines run to the next `$` line or
    the end of the block."""
    sessions = []
    block = None
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            block = [] if block is None else None
        elif block is not None and line.startswith("$ "):
            block = [line[2:]]
            sessions.append((block[0], block))
        elif block:
            block.append(line)
    return [(cmd, lines[1:]) for cmd, lines in sessions]


def test_readme_sessions_match_the_cli(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("LOCCFORGE_CONFIG", raising=False)
    sessions = readme_sessions()
    assert len(sessions) >= 2
    for cmd, expected in sessions:
        argv = shlex.split(cmd)
        assert argv[0] == "loccforge", cmd
        main(argv[1:])
        assert capsys.readouterr().out.splitlines() == expected, cmd


def test_readme_python_blocks_run(capsys, monkeypatch):
    """Each ```python block runs from the checkout root and prints."""
    monkeypatch.chdir(ROOT)
    blocks = readme_python_blocks()
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
        assert capsys.readouterr().out, code
