"""The package's public surface: every export resolves, and the scalar
string-id oracles live only in ``tests/oracles.py``."""

import importlib
import pkgutil

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


def test_interaction_log_has_no_string_id_views():
    assert not [a for a in ("interaction", "situation", "__iter__") if hasattr(InteractionLog, a)]
