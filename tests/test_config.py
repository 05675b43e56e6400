import dataclasses
import os

import pytest

from fdrec import baselines, cli, config, dataio, ensemble, exprec, reprec
from fdrec.config import ConfigError, load_config, write_config
from fdrec.dataio import SECONDS_PER_DAY, SynthConfig
from fdrec.exprec import TRIGGERS
from fdrec.training import TrainSettings


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_written_defaults_roundtrip(tmp_path):
    path = str(tmp_path / "run.cfg")
    write_config(path)
    cfg = load_config(path)
    assert cfg.data.out == "runs"
    assert cfg.data.min_orders == 10
    assert cfg.data.valid_window_days == 4.0
    assert cfg.synth.n_users == 1000
    assert cfg.synth.repeat_prob == 0.55
    assert cfg.model.dim == 64
    assert cfg.model.repeat_window == 50
    assert cfg.model.history_window == 20
    assert cfg.model.k_neighbors == 10
    assert cfg.model.attn_dim == 32
    assert cfg.model.budget == 30
    assert cfg.model.ablate == ()
    assert cfg.train.lr == 0.01
    assert cfg.train.batch_size == 256
    assert cfg.eval.k == 3
    assert cfg.eval.max_cases == 0


def test_partial_file_fills_remaining_defaults(tmp_path):
    path = write(tmp_path, "[train]\nlr = 0.2\n")
    cfg = load_config(path)
    assert cfg.train.lr == 0.2
    assert cfg.train.batch_size == 256
    assert cfg.model.dim == 64


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "absent.cfg"))


def test_malformed_ini_is_config_error(tmp_path):
    path = write(tmp_path, "lr = 0.2\n")  # key before any section header
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "[bogus]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "[train]\nlearning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="unknown key 'learning_rate'"):
        load_config(path)


def test_bad_value_type_rejected(tmp_path):
    path = write(tmp_path, "[train]\nlr = fast\n")
    with pytest.raises(ConfigError, match="not a valid float"):
        load_config(path)
    path = write(tmp_path, "[model]\ndim = 4.5\n", name="b.cfg")
    with pytest.raises(ConfigError, match="not a valid int"):
        load_config(path)


@pytest.mark.parametrize(
    "body,needle",
    [
        ("[train]\nlr = 0\n", "lr must be positive"),
        ("[train]\npatience = 0\n", "patience"),
        ("[model]\nbudget = 1\n", "budget must be >= 2"),
        ("[model]\nablate = nonsense\n", "unknown triggers"),
        ("[model]\nablate = situation history user collab\n", "all four"),
        ("[synth]\nrepeat_prob = 1.5\n", "within"),
        ("[data]\nmin_orders = 0\n", "min_orders"),
        ("[data]\nvalid_window_days = 0\n", "positive"),
        ("[eval]\nk = 0\n", "k must be >= 1"),
    ],
)
def test_validation_errors(tmp_path, body, needle):
    path = write(tmp_path, body)
    with pytest.raises(ConfigError, match=needle):
        load_config(path)


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("section, key", [
    (name, f.name) for name, cls in config._SECTIONS.items()
    for f in dataclasses.fields(cls) if isinstance(f.default, float)
])
def test_a_non_finite_float_is_rejected_naming_its_key(tmp_path, section, key, value):
    """Every float key: ``inf`` would otherwise fail later without naming
    the key (a window of days cast to int, or a loss that is not finite)."""
    path = write(tmp_path, f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {key} must be finite$"):
        load_config(path)


def test_hash_ignores_formatting_but_not_values(tmp_path):
    a = load_config(write(tmp_path, "[train]\nlr = 0.2\nseed = 1\n", "a.cfg"))
    b = load_config(write(
        tmp_path,
        "# a comment\n[train]\nseed = 1\n\nlr = 0.200\n",
        "b.cfg",
    ))
    c = load_config(write(tmp_path, "[train]\nlr = 0.3\nseed = 1\n", "c.cfg"))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    h = a.config_hash()
    assert len(h) == 12 and all(ch in "0123456789abcdef" for ch in h)


def test_hash_is_independent_of_file_location(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    a = load_config(write(tmp_path, "[eval]\nk = 5\n", "a.cfg"))
    b = load_config(write(sub, "[eval]\nk = 5\n", "b.cfg"))
    assert a.config_hash() == b.config_hash()


def test_resolve_relative_to_config_directory(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    cfg = load_config(write(sub, "[data]\ninteractions = x.tsv\n"))
    assert cfg.resolve("x.tsv") == str(sub / "x.tsv")
    assert cfg.resolve("/abs/x.tsv") == "/abs/x.tsv"


def test_run_dir_combines_hash_and_seed(tmp_path):
    cfg = load_config(write(tmp_path, "[train]\nseed = 7\n"))
    want = os.path.join(str(tmp_path), "runs",
                        f"{cfg.config_hash()}-s7")
    assert cfg.run_dir() == want


def test_ablate_accepts_commas_and_whitespace(tmp_path, small_data):
    a = load_config(write(tmp_path, "[model]\nablate = situation, collab\n",
                          "a.cfg"))
    b = load_config(write(tmp_path, "[model]\nablate = situation collab\n",
                          "b.cfg"))
    assert a.model.ablate == b.model.ablate == ("situation", "collab")
    flags = exprec.exprec_build(small_data, a.model, seed=0).meta["ablate"]
    assert flags == [True, False, False, True]
    assert len(flags) == len(TRIGGERS)
    plain = load_config(write(tmp_path, "[model]\ndim = 8\n", "c.cfg"))
    assert exprec.exprec_build(small_data, plain.model, seed=0).meta["ablate"] == [False] * 4


def test_write_config_applies_overrides(tmp_path):
    path = str(tmp_path / "run.cfg")
    write_config(path, {"synth": {"n_users": 42, "seed": 5},
                        "model": {"ablate": ("history",)}})
    cfg = load_config(path)
    assert cfg.synth.n_users == 42
    assert cfg.synth.seed == 5
    assert cfg.model.ablate == ("history",)
    with pytest.raises(ConfigError, match="unknown section"):
        write_config(path, {"bogus": {}})
    with pytest.raises(ConfigError, match="unknown key"):
        write_config(path, {"train": {"typo": 1}})


def test_derived_settings(tmp_path):
    cfg = load_config(write(
        tmp_path, "[data]\nvalid_window_days = 1.5\ntest_window_days = 2\n"
    ))
    assert cfg.valid_window_s() == int(round(1.5 * SECONDS_PER_DAY))
    assert cfg.test_window_s() == 2 * SECONDS_PER_DAY


# The default write_config() output.  Run directories are named by its hash,
# so a changed default, key or key order renames every one of them.
DEFAULT_CONFIG = """\
[data]
interactions = 
stores = 
out = runs
tz_offset_minutes = 0
min_orders = 10
valid_window_days = 4.0
test_window_days = 4.0

[synth]
n_users = 1000
n_stores = 200
n_orders_per_user = 15
repeat_prob = 0.55
situation_coupling = 0.0
collab_coupling = 0.0
n_locations = 20
n_brands = 40
n_cuisines = 12
span_days = 28
start_time = 1600041600
modes_per_user = 3
n_clusters = 8
seed = 0

[model]
dim = 64
repeat_window = 50
history_window = 20
k_neighbors = 10
attn_dim = 32
budget = 30
intent_weight = 1.0
ablate = 

[train]
lr = 0.01
weight_decay = 0.0
batch_size = 256
patience = 10
max_epochs = 100
seed = 0
max_instances = 20000
val_max_cases = 2000

[eval]
k = 3
seed = 0
max_cases = 0

"""


def test_default_config_bytes_and_hash_are_pinned(tmp_path):
    path = tmp_path / "run.cfg"
    write_config(str(path))
    assert path.read_bytes() == DEFAULT_CONFIG.encode()
    assert load_config(str(path)).config_hash() == "534867ef8af3"


def test_every_synth_and_train_key_reaches_the_generator_and_trainers(
    tmp_path, monkeypatch
):
    synth = {"n_users": 31, "n_stores": 17, "n_orders_per_user": 9, "repeat_prob": 0.4,
             "situation_coupling": 0.3, "collab_coupling": 0.2, "n_locations": 5,
             "n_brands": 6, "n_cuisines": 4, "span_days": 11, "start_time": 86400,
             "modes_per_user": 2, "n_clusters": 3, "seed": 9}
    train = {"lr": 0.2, "weight_decay": 0.1, "batch_size": 7, "patience": 3,
             "max_epochs": 4, "seed": 5, "max_instances": 11, "val_max_cases": 13}
    assert set(synth) == {f.name for f in dataclasses.fields(SynthConfig)}
    assert set(train) == {f.name for f in dataclasses.fields(TrainSettings)}
    path = str(tmp_path / "run.cfg")
    write_config(path, {"synth": synth, "train": train})

    seen = []

    def generator(cfg):
        seen.append(cfg)
        raise RuntimeError("stop after the call")

    monkeypatch.setattr(dataio, "generate_synthetic", generator)
    assert cli.main(["synth", "--out", str(tmp_path / "d"), "--config", path]) == 1
    assert seen == [SynthConfig(**synth)]

    monkeypatch.setattr(cli, "_load_checkpoint", lambda cfg, model, data: model)
    for module, name in ((baselines, "sonly_train"), (reprec, "reprec_train"),
                         (exprec, "exprec_train"), (ensemble, "ensemble_train")):
        monkeypatch.setattr(module, name, lambda *args, **kwargs: args)
    for model in cli.TRAINABLE:
        got = cli._train_one(load_config(path), model, "data")
        assert got[1] == TrainSettings(**train)
        assert got[2] == load_config(path).model


CLAIMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "configs", "claims.cfg")


def test_claims_config_sets_exactly_the_claims_values(tmp_path):
    claims = load_config(CLAIMS)
    want = {
        "synth": {"n_users": 220, "situation_coupling": 0.6, "collab_coupling": 0.6},
        "model": {"dim": 64},
        "train": {"max_epochs": 40, "patience": 5, "max_instances": 2000,
                  "val_max_cases": 300},
        "eval": {"max_cases": 0},
    }
    path = str(tmp_path / "claims.cfg")
    write_config(path, want)
    assert claims.to_dict() == load_config(path).to_dict()


def test_to_dict_is_json_friendly(tmp_path):
    cfg = load_config(write(tmp_path, "[model]\nablate = user\n"))
    d = cfg.to_dict()
    assert d["model"]["ablate"] == ["user"]
    assert "path" not in d  # location must not leak into the hashed payload
