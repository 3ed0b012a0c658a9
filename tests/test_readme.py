"""Every `hambucket ...` line in README.md's sh blocks must run and exit 0."""

import contextlib
import re
import shlex
from pathlib import Path

from hambucket import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = (line.strip() for block in blocks for line in block.splitlines())
    return [shlex.split(line, comments=True) for line in lines if line.startswith("hambucket ")]


def test_readme_commands_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        out = None
        if ">" in argv:
            k = argv.index(">")
            argv, out = argv[:k], argv[k + 1]
        with contextlib.ExitStack() as stack:
            if out is not None:
                fh = stack.enter_context(open(out, "w", encoding="ascii"))
                stack.enter_context(contextlib.redirect_stdout(fh))
            code = cli.main(argv[1:])
        assert code == 0, " ".join(argv)
