"""Load locsemi from the checkout's ``src/`` and expose only its public API.

The benchmark reaches the library through one namespace, ``api``, built here
from names in ``locsemi.__all__`` plus the command-line module's ``run``.
Private helpers (``_iter_tables``, ``_table_flags``, ``_canonical_code``
and the like) are never imported, so a rewrite of the library's internals
cannot break the benchmark.  ``self_check`` enforces this on the
benchmark's own source before every run.
"""

from __future__ import annotations

import ast
import importlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

# Every library name the benchmark touches.  Each must be in locsemi.__all__.
API_NAMES = (
    # modules, used to find the public functions the traced run wraps
    "magma", "checks", "enumeration", "constructions", "quiver", "predicates",
    # structures and verdicts
    "FinitePartialMagma", "Witness", "ClassReport", "NotAssociative",
    "parse_magma", "serialize_magma", "parse_semigroup_with_zero",
    # checkers
    "classify", "replay_witness", "render_verdict",
    "is_locality_semigroup", "is_strong_locality_semigroup",
    "is_refined_locality_semigroup", "is_partial_semigroup", "is_transitive",
    "find_identities", "find_zeros",
    # enumeration
    "scan_flags", "decode_magma", "encode_magma", "search_space_size",
    # constructions
    "adjoin_identity", "adjoin_zero", "complete_to_semigroup_with_zero",
    "is_strong_semigroup_with_zero",
    # quivers
    "Quiver", "materialize_path_magma", "serialize_quiver",
    # predicate structures
    "coprime_with_zero", "natural_multiplication", "coprime_magma",
    "bounded_magma", "sampled_classify", "powerset_magma",
    # bundled examples
    "fixture_names", "fixture_kind", "fixture_text",
)
# The one name outside __all__: the command-line module, for ``cli.run``.
CLI_ATTR = "cli"

FORBIDDEN = frozenset({"_iter_tables", "_table_flags", "_canonical_code"})


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, API drift, self-check)."""


def load(root: Path) -> SimpleNamespace:
    """Import locsemi afresh from ``root/src`` and return the API namespace.

    Any locsemi modules already imported are dropped first, so each call
    pays the full import cost; set-up timing relies on this.
    """
    src = root / "src"
    package = src / "locsemi"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no locsemi sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "locsemi" or m.startswith("locsemi.")]:
        del sys.modules[name]
    locsemi = importlib.import_module("locsemi")
    cli = importlib.import_module("locsemi.cli")
    if Path(locsemi.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported locsemi from {locsemi.__file__}, not from {package}")
    missing = [n for n in API_NAMES if n not in locsemi.__all__]
    if missing:
        raise BenchError(f"names missing from locsemi.__all__: {missing}")
    api = SimpleNamespace(**{n: getattr(locsemi, n) for n in API_NAMES})
    setattr(api, CLI_ATTR, cli)
    return api


def call_cli(api: SimpleNamespace, argv: list[str]) -> tuple[int, str, str]:
    """Run ``locsemi <argv>`` in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = api.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def self_check(bench_dir: Path) -> None:
    """Fail unless the benchmark's sources touch locsemi only through ``api``.

    Rules: only this module imports locsemi; every ``api.X`` names an entry
    of API_NAMES (or ``api.cli.run``); no attribute, name or string in the
    benchmark spells one of the private enumeration helpers.
    """
    problems = []
    allowed = set(API_NAMES) | {CLI_ATTR}
    for path in sorted(bench_dir.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "loader.py":
                mods = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
                if any(m == "locsemi" or m.startswith("locsemi.") for m in mods):
                    problems.append(f"{where}: imports locsemi outside loader.py")
            spelled = (node.attr if isinstance(node, ast.Attribute)
                       else node.id if isinstance(node, ast.Name)
                       else node.value if isinstance(node, ast.Constant) and isinstance(node.value, str)
                       else None)
            if spelled in FORBIDDEN and path.name != "loader.py":  # FORBIDDEN spells them
                problems.append(f"{where}: uses private helper {spelled}")
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "api":
                if node.attr not in allowed:
                    problems.append(f"{where}: api.{node.attr} is not in API_NAMES")
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name) and node.value.value.id == "api"
                    and node.value.attr == CLI_ATTR and node.attr != "run"):
                problems.append(f"{where}: api.cli.{node.attr} is not api.cli.run")
    if problems:
        raise BenchError("API self-check failed:\n  " + "\n  ".join(problems))
