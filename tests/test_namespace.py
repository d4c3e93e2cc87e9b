"""The package namespace: the names it has always exported, each loaded
from its submodule on first use; and the CLI, whose commands each load only
the submodules they run."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import cantor_toolkit

# Every public name of the package, with the submodule that defines it, as
# listed by dir(cantor_toolkit) when the package imported all of them eagerly.
EXPORTED = {
    "_rat": ["Q", "dec_str", "dec_to_rational", "rat_str", "to_rational"],
    "coding": [
        "GreedyExpansion", "MembershipResult", "Verdict", "greedy_expansion", "lex_compare",
        "membership", "unique_coding",
    ],
    "dimension": [
        "DimensionEstimate", "LocalDimensionPoint", "ZeroRunCount", "box_dimension",
        "dim_lower_formula", "dim_lower_formula_bounds", "dimension_of_parameter", "gamma_j",
        "local_dimension_scan", "sft_count",
    ],
    "errors": [
        "CantorToolkitError", "DomainError", "EmptyWindowError", "HullViolationError",
        "NoRootError", "NotAdmissibleError", "PrecisionExhaustedError",
    ],
    "exact_arith": [
        "DEFAULT_TOL", "Bracket", "Code", "Ordering", "Tail", "compare_bracket_values",
        "compare_brackets", "eval_pi", "refine", "solve_lambda",
    ],
    "lambda_set": [
        "BasicInterval", "CoverLevel", "admissible_words", "basic_interval", "cover",
        "cover_sequence", "hull_of", "is_admissible",
    ],
    "thickness": [
        "EkSystem", "InterleavePair", "IntersectionReport", "ThetaEntry", "ThicknessReport",
        "certify_expansion_separation", "certify_gap_width_bound", "certify_interval_width_bound",
        "dim_lower_from_tau", "ek_basic_interval", "ek_hulls", "ek_system",
        "find_interleaved_pairs", "intersection_report", "meets_thickness_threshold",
        "reverify_pair", "size_ratio_bound", "tau_estimate", "theta_sequence",
    ],
}
NAMES = sorted(name for names in EXPORTED.values() for name in names)


def _env() -> dict:
    src = os.path.dirname(os.path.dirname(cantor_toolkit.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def loaded_after(statement: str) -> list:
    """The package's submodules a fresh interpreter holds after `statement`."""
    script = (
        "import json, sys\n%s\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cantor_toolkit.'))))"
        % statement
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def imported_by(*args, cwd=None) -> set:
    """Every module a fresh `python -X importtime *args` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=cwd,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    rows = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {row.rsplit("|", 1)[1].strip() for row in rows[1:]}  # rows[0] is the header


def test_import_loads_no_submodule():
    assert loaded_after("import cantor_toolkit") == []


def test_cover_loads_neither_thickness_nor_dimension():
    loaded = loaded_after("import cantor_toolkit; cantor_toolkit.cover")
    assert "cantor_toolkit.lambda_set" in loaded
    assert "cantor_toolkit.thickness" not in loaded
    assert "cantor_toolkit.dimension" not in loaded


def test_every_name_is_its_submodule_attribute():
    assert len(NAMES) == 66
    for module, names in EXPORTED.items():
        owner = importlib.import_module("cantor_toolkit." + module)
        for name in names:
            assert getattr(cantor_toolkit, name) is getattr(owner, name), name
            assert name in vars(cantor_toolkit)  # cached after the first lookup


def test_star_import_binds_every_name():
    namespace = {}
    exec("from cantor_toolkit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    assert sorted(cantor_toolkit.__all__) == NAMES


def test_dir_lists_every_name_and_nothing_else_resolves():
    assert set(NAMES) <= set(dir(cantor_toolkit))
    assert not hasattr(cantor_toolkit, "simplest_between")


# ---------------------------------------------------------------------------
# what each CLI command loads

# The README's commands at the benchmark's cli-readme sizes.
README_COMMANDS = {
    "cover_svg": "cover --m 2 --x 1/2 --depth 4 --format svg --out cover.svg",
    "cover_json": "cover --m 2 --x 1/2 --depth 2 --format json",
    "thickness": "thickness --m 2 --x 1/2 --kmax 3 --depth 2",
    "intersect": "intersect --m 2 --x 1/2 --y 2/5 --kmax 3 --depth 2",
    "dimension": "dimension --m 2 --x 1/2 --at 1/m --deltas 1/8,1/16,1/32 --depth 4 --grid-depth 16",
    "membership": "membership --m 2 --x 1/2 --lambda 2/5",
}
CLI_BASE = {"cantor_toolkit", "cantor_toolkit._rat", "cantor_toolkit.errors"}
MEMBERSHIP = {"cantor_toolkit.output", "cantor_toolkit.exact_arith", "cantor_toolkit.coding"}
COVER = MEMBERSHIP | {"cantor_toolkit.lambda_set"}
# `python -m` runs cli.py as __main__, so cantor_toolkit.cli itself is never imported
COMMAND_MODULES = {
    "cover_svg": CLI_BASE | COVER,
    "cover_json": CLI_BASE | COVER,
    "thickness": CLI_BASE | COVER | {"cantor_toolkit.thickness"},
    "intersect": CLI_BASE | COVER | {"cantor_toolkit.thickness"},
    "dimension": CLI_BASE | COVER | {"cantor_toolkit.dimension"},
    "membership": CLI_BASE | MEMBERSHIP,
}


@pytest.fixture(scope="module")
def startup_modules():
    """What the interpreter imports on its own, before any package code."""
    return imported_by("-c", "pass")


def test_cli_import_loads_only_parsing_modules(startup_modules):
    imported = imported_by("-c", "import cantor_toolkit.cli") - startup_modules
    package = {m for m in imported if m.startswith("cantor_toolkit")}
    assert package == CLI_BASE | {"cantor_toolkit.cli"}
    assert "logging" not in imported


@pytest.mark.parametrize("label", sorted(README_COMMANDS))
def test_cli_command_loads_only_what_it_runs(label, startup_modules, tmp_path):
    argv = README_COMMANDS[label].split()
    imported = imported_by("-m", "cantor_toolkit.cli", *argv, cwd=tmp_path) - startup_modules
    package = {m for m in imported if m.startswith("cantor_toolkit")}
    assert package == COMMAND_MODULES[label]
    assert "logging" not in imported
    assert ("cantor_toolkit.dimension" in package) == (label == "dimension")
