"""README's shell examples and metric names match the code.

Every ``python -m repro.{api,cluster,serve,obs}`` line in a fenced block
of ``README.md`` (``\\`` continuations joined) is checked against the
help of the command it runs: the module's ``main`` is called with the
line's leading words plus ``--help``, and every ``--flag`` on the line
must appear in what it prints.  A flag a CLI drops therefore fails here
until the README stops passing it.  Likewise every ``repro_...`` metric
family the README names must be registered in ``src``, and every family
``src`` registers must be named in the README.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
COMMAND = re.compile(r"python -m (repro\.(?:api|cluster|serve|obs))\b(.*)")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
SHELL_OPERATORS = {">", ">>", "<", "|", "&", "&&", ";"}


def _fenced_lines(text):
    """The lines inside fenced blocks, ``\\`` continuations joined."""
    lines, fenced, pending = [], False, ""
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            continue
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        lines.append(pending + line)
        pending = ""
    return lines


def readme_commands():
    """``(module, leading words, flags)`` of every CLI line in the README."""
    commands = []
    for line in _fenced_lines(README.read_text(encoding="utf-8")):
        match = COMMAND.search(line)
        if match is None:
            continue
        rest = match.group(2).split("#", 1)[0]
        words = []
        for token in rest.split():
            if token.startswith("-") or token in SHELL_OPERATORS:
                break
            words.append(token)
        commands.append((match.group(1), words, FLAG.findall(rest)))
    return commands


def _help_flags(module, words, capsys):
    main = importlib.import_module(f"{module}.__main__").main
    with pytest.raises(SystemExit) as done:
        main([*words, "--help"])
    assert done.value.code == 0, (module, words)
    return set(FLAG.findall(capsys.readouterr().out))


def test_readme_commands_pass_only_flags_their_cli_accepts(capsys):
    commands = readme_commands()
    assert {module for module, _, _ in commands} == {
        "repro.api",
        "repro.cluster",
        "repro.serve",
        "repro.obs",
    }
    unknown = []
    for module, words, flags in commands:
        accepted = _help_flags(module, words, capsys)
        unknown += [
            f"python -m {module} {' '.join(words)} {flag}"
            for flag in flags
            if flag not in accepted
        ]
    assert unknown == []


FAMILY = re.compile(r"repro_[a-z0-9_]+")


def registered_families():
    """Every string literal in ``src`` that is a ``repro_...`` family name."""
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and FAMILY.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def test_readme_names_exactly_the_metric_families_src_registers():
    # A wildcard such as ``repro_store_*`` reads as ``repro_store_``,
    # which names no family: the README lists every family in full.
    named = set(re.findall(r"\brepro_[a-z0-9_]*", README.read_text(encoding="utf-8")))
    registered = registered_families()
    assert len(registered) > 20
    assert sorted(named - registered) == []
    assert sorted(registered - named) == []
