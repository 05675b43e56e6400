"""The package's public surface: every export resolves, the scalar string-id
oracles live only in ``tests/oracles.py``, and no module of ``src/fdrec`` or
``tests`` imports a name it never uses."""

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
    "collaborative_influence_loop",
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


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads; ``__all__`` entries count as read."""
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", "") != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, f"{path.name} imports unused {unused}"
