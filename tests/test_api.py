"""The package's public surface: every export resolves, the scalar string-id
oracles live only in ``tests/oracles.py``, every definition in ``src/fdrec``
is used there, and no module of ``src/fdrec`` or ``tests`` imports a name it
never uses."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import fdrec
from fdrec.dataio import InteractionLog

MODULES = ["fdrec"] + sorted(f"fdrec.{m.name}" for m in pkgutil.iter_modules(fdrec.__path__))

# defined in tests/oracles.py and nowhere in the package
ORACLES = (
    "reprec_forward", "_cosine_rows", "exprec_score", "encode_history",
    "condition_user", "collaborative_embedding", "fusion_weights", "trigger_fusion",
    "_history_codes", "_mix_weights_np", "_ACTIVATIONS_NP", "_situation_np",
    "predict_intent", "combine", "CombinedSlate", "IntentEstimate", "hispop_score",
    "sonly_score", "ScoredSlate", "rank_metrics", "RankResult",
    "situation_similarity", "store_similarity", "preference_vector",
    "_union_pearson", "collaborative_users", "Interaction", "SituationFeatures",
    "top_neighbors_loop", "neighbor_weights", "pearson", "historical_influence_loop",
    "collaborative_influence_loop", "per_user", "sequences_loop", "repeat_ratio_loop",
    "explored_store_counts_loop", "to_json", "gru_cell", "zero_grads",
    "finite_difference_check", "padded_window", "padded_gru_sequence",
    "reprec_query_padded", "collab_trigger_dense", "exprec_query_dense",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_no_oracle_is_defined_or_exported_by_the_package(name):
    module = importlib.import_module(name)
    exported = set(getattr(module, "__all__", ()))
    left = [attr for attr in ORACLES if hasattr(module, attr) or attr in exported]
    assert not left, f"{name} still has {left}"


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_alone(name):
    """A module that only imports in some orders has an import cycle."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fdrec.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", f"import {name}"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_interaction_log_has_no_string_id_views():
    assert not [a for a in ("interaction", "situation", "__iter__") if hasattr(InteractionLog, a)]


ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fdrec").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _exports(tree: ast.Module) -> set[str]:
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads; ``__all__`` entries count as read."""
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", "") != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exports(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, f"{path.name} imports unused {unused}"


def dead_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """Functions, classes and methods that no code in ``trees`` names outside
    their own body, as ``file:line name``; ``np.name`` and ``numpy.name``
    name numpy's, not the package's.  Dunders and names in their module's
    ``__all__`` are exempt."""
    refs = [(path, node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Name) or isinstance(node, ast.Attribute)
            and not (isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))]
    dead = []
    for path, tree in trees.items():
        exempt = _exports(tree)
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    or node.name in exempt
                    or node.name.startswith("__") and node.name.endswith("__")):
                continue
            if not any(name == node.name
                       and not (where == path and node.lineno <= line <= node.end_lineno)
                       for where, name, line in refs):
                dead.append(f"{path}:{node.lineno} {node.name}")
    return dead


def test_every_definition_in_the_package_is_used_there():
    """Code only tests call belongs in ``tests/``, code nothing calls nowhere."""
    package = ROOT / "src" / "fdrec"
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(package.glob("*.py"))}
    assert not dead_definitions(trees)


def test_dead_definition_scan_sees_attributes_exports_and_own_bodies():
    trees = {"m.py": ast.parse(
        "__all__ = ['exported']\n"
        "def exported(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def helper(): pass\n"
        "class Box:\n"
        "    def __len__(self): return 0\n"
        "    def method(self): return helper()\n"
        "    def unused(self): pass\n"
        "Box().method()\n"
        "def matmul(a, b): pass\n"
        "def take(a): pass\n"
        "np.matmul(1, 2), numpy.take(3), Box().take\n"
    )}
    assert dead_definitions(trees) == ["m.py:3 recursive", "m.py:10 matmul", "m.py:8 unused"]
