"""The package and the CLI load a kernel module only when a caller uses it."""

import ast
import importlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regretgames
from regretgames import errors

SRC = Path(__file__).resolve().parent.parent / "src"

KERNELS = ("bidding", "dominance", "repeated", "solver", "trading")

#: Every public name of the package, by the submodule that defines it: the
#: table ``__all__`` must match, so an export is added or dropped here too.
EXPORTED = {
    "errors": ("AssumptionError", "ContractError", "InputError", "RegretGamesError",
               "SizeError"),
    "game": ("DEFAULT_DENSE_CAP", "Game", "Restriction", "game_from_json", "game_to_json",
             "load_game", "make_dense_game", "save_game"),
    "solver": ("RegretReport", "all_player_reports", "minimax_regret"),
    "dominance": ("RationalSet", "iterated_rational_sets", "rational_restriction",
                  "rational_set"),
    "bidding": ("BiddingSpec", "ClaimPrediction", "DivergenceReport", "bidding_utility",
                "closed_form_competitive", "closed_form_rational", "make_bidding_game",
                "verify_claims"),
    "repeated": ("ExpandedGame", "FolkReport", "GameSequence", "RandomGameSpec",
                 "SequenceAnalysis", "decision_points", "expand_sequence", "folk_strategy",
                 "random_realizations", "verify_folk_theorem"),
    "trading": ("PASS", "TAKE", "SingleAgentAudit", "SweepResult", "TradingOutcome",
                "TradingSpec", "TradingStrategy", "audit_single_agent",
                "competitive_trading_strategy", "minimal_regret_sweep",
                "rational_trading_strategy", "reference_strategy", "simulate",
                "single_agent_threshold", "trading_oracle", "trading_oracle_report",
                "trading_payoff"),
}


def run_fresh(script: str, cwd: Path, report: str):
    """Run ``script`` in a fresh interpreter; returns the value of ``report`` then."""
    tail = f"\nimport json, sys, types\nprint(json.dumps({report}))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script + tail], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def loaded_after(script: str, cwd: Path) -> set[str]:
    """The kernel modules whose bodies ran once ``script`` has run.

    A registered module stays a lazy subclass of ``ModuleType`` until its body
    runs; ``type()`` reads that without running it.
    """
    return set(run_fresh(script, cwd, f"[m for m in {KERNELS!r} if type(sys.modules.get("
                                      f"'regretgames.' + m)) is types.ModuleType]"))


def test_importing_the_package_registers_every_kernel(tmp_path):
    names = run_fresh("import regretgames", tmp_path,
                      "sorted(k for k in sys.modules if k.startswith('regretgames.'))")
    assert names == sorted(f"regretgames.{m}" for m in KERNELS)


def test_importing_the_package_and_the_cli_loads_no_kernel(tmp_path):
    assert loaded_after("import regretgames", tmp_path) == set()
    assert loaded_after("import regretgames.cli\nregretgames.cli.build_parser()",
                        tmp_path) == set()


def test_a_subcommand_loads_only_its_own_modules(tmp_path):
    audit = ("from regretgames import cli\n"
             "assert cli.run(['trading', '--audit-single', '--m1', '2', '--M1', '6', "
             "'--t', '3', '--output', 'audit.json']) == 0")
    assert loaded_after(audit, tmp_path) == {"trading"}

    stage = {"players": 2, "strategy_counts": [2, 2],
             "payoffs": [[[10, 9], [0, 0]], [[1, 3], [2, 1]]]}
    (tmp_path / "stage.json").write_text(json.dumps(stage))
    (tmp_path / "seq.json").write_text(json.dumps({"stages": ["stage.json", "stage.json"]}))
    repeated = ("from regretgames import cli\n"
                "assert cli.run(['repeated', '--sequence', 'seq.json', "
                "'--output', 'folk.json']) == 0")
    assert loaded_after(repeated, tmp_path) == {"dominance", "repeated", "solver"}


def test_the_package_imports_only_itself_and_the_standard_library():
    """No runtime dependencies. Importing the package in a test cannot show a
    stray third-party import when that package is installed, so the sources
    are parsed: every import names the package or a standard-library module."""
    imported = set()  # (file, top-level module)
    for path in sorted((SRC / "regretgames").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:  # level > 0: relative
                imported.add((path.name, node.module.split(".")[0]))
    allowed = sys.stdlib_module_names | {"regretgames"}
    assert {"json", "fractions"} < {module for _, module in imported}
    assert {(name, module) for name, module in imported if module not in allowed} == set()


def test_every_exported_name_resolves_to_its_submodule_object():
    assert sorted(regretgames.__all__) == sorted(itertools.chain(*EXPORTED.values()))
    for module, names in EXPORTED.items():
        source = importlib.import_module(f"regretgames.{module}")
        for name in names:
            namespace = {}
            exec(f"from regretgames import {name}", namespace)
            assert namespace[name] is getattr(source, name), name
            assert name in dir(regretgames), name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        regretgames.no_such_name  # noqa: B018
    assert regretgames.__version__ == "0.1.0"


def test_cap_defaults_live_next_to_the_size_check():
    from regretgames import bidding, game, repeated, trading

    assert game.DEFAULT_DENSE_CAP is bidding.DEFAULT_DENSE_CAP is errors.DEFAULT_DENSE_CAP
    assert repeated.DEFAULT_REALIZATION_CAP is errors.DEFAULT_REALIZATION_CAP == 4096
    assert trading.DEFAULT_ENUM_CAP is errors.DEFAULT_ENUM_CAP == 250_000
    assert errors.DEFAULT_DENSE_CAP == 10**6


def test_the_readme_quickstart_runs_and_loads_what_it_says(tmp_path):
    """README's "Library quickstart" block runs as printed, in a fresh
    interpreter, and loads the kernels the text after it names."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```python\n")[1:]
    assert len(blocks) == 1
    quickstart = blocks[0].split("```", 1)[0]
    assert loaded_after(quickstart, tmp_path) == {"bidding", "dominance", "repeated", "solver"}
