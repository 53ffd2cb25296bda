"""README against the code: the module table, the config keys, the command line and
the word budget, so README cannot drift from what it describes."""

import importlib
import re
from pathlib import Path

import pytest

from drasim import cli, config
from drasim.verification import VERIFY_BUDGETS

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()
MODULE_ROW = re.compile(r"^\| `drasim\.(\w+)` \| (.*) \|$", re.M)
WORD_BUDGET = 2500


def _first_sentence(text: str) -> str:
    return re.match(r"(.*?\.)(?:\s|$)", " ".join(text.split())).group(1)


def _names(name: str) -> bool:
    """Whether README names `name` as a whole token, not as part of a longer one."""
    return re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", README) is not None


def test_readme_has_one_row_per_module_and_each_is_its_docstrings_first_sentence():
    rows = MODULE_ROW.findall(README)
    modules = sorted(p.stem for p in (ROOT / "src" / "drasim").glob("*.py")
                     if not p.stem.startswith("_"))
    assert sorted(name for name, _ in rows) == modules
    for name, text in rows:
        assert text == _first_sentence(importlib.import_module(f"drasim.{name}").__doc__), name


def test_readme_names_every_config_key_and_verify_budget():
    missing = [key for key in sorted(config._TOP_KEYS | VERIFY_BUDGETS.keys())
               if f"`{key}`" not in README and f'"{key}"' not in README]
    assert not missing


def test_readme_names_every_command_and_every_flag_of_the_help(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--help"])
    assert exit_info.value.code == 0
    flags = set(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", capsys.readouterr().out))
    assert {"--help", "--config", "--out", "--samples", "--seed"} <= flags
    assert [flag for flag in sorted(flags) if not _names(flag)] == []
    assert [command for command in sorted(cli._COMMANDS)
            if f"drasim {command}" not in README] == []


def test_readme_names_every_exit_code_and_refusal_class():
    for code in range(4):
        assert re.search(rf"^\| `{code}` \|", README, re.M), code
    refusals = re.findall(r"\((\w+Error)\b", cli.__doc__.split("The refusals", 1)[1])
    assert refusals == ["QuadratureError", "FloatingPointError"]
    assert all(_names(name) for name in refusals)


def test_readme_stays_under_its_word_budget():
    assert len(README.split()) < WORD_BUDGET
