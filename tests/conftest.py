"""Shared fixtures: small deterministic datasets reused across test modules."""

import dataclasses

import numpy as np
import pytest

from fdrec import dataio, features

DAY = dataio.SECONDS_PER_DAY


def make_log(records, catalog=None, tz_offset_minutes=0):
    """Build a log from (user, store, time, location) tuples; optional catalog."""
    if catalog is None:
        stores = sorted({r[1] for r in records})
        catalog = {
            s: dataio.StoreMeta(s, f"b{i % 3}", f"c{i % 2}", f"sl{i % 4}")
            for i, s in enumerate(stores)
        }
    return dataio.InteractionLog.from_records(
        records, tz_offset_minutes=tz_offset_minutes, catalog=catalog
    )


@pytest.fixture(scope="session")
def small_split():
    """~1k-interaction synthetic split with planted couplings."""
    cfg = dataio.SynthConfig(
        n_users=90,
        n_stores=30,
        n_orders_per_user=12,
        situation_coupling=0.6,
        collab_coupling=0.6,
        n_locations=6,
        n_brands=10,
        n_cuisines=5,
        seed=11,
    )
    log, _ = dataio.generate_synthetic(cfg)
    return dataio.split_global_timeline(
        log, test_window_s=4 * DAY, valid_window_s=4 * DAY
    )


@pytest.fixture(scope="session")
def small_data(small_split):
    return features.Dataset(small_split)


@pytest.fixture(scope="session")
def small_seqs(small_data):
    return small_data.seqs, small_data.vocabs


@pytest.fixture(scope="session")
def tiny_split():
    """Hand-sized split for brute-force oracle comparisons."""
    cfg = dataio.SynthConfig(
        n_users=12,
        n_stores=10,
        n_orders_per_user=8,
        situation_coupling=0.5,
        collab_coupling=0.5,
        n_locations=4,
        n_brands=5,
        n_cuisines=3,
        span_days=21,
        seed=5,
    )
    log, _ = dataio.generate_synthetic(cfg)
    return dataio.split_global_timeline(
        log, test_window_s=4 * DAY, valid_window_s=4 * DAY
    )


@pytest.fixture(scope="session")
def tiny_data(tiny_split):
    return features.Dataset(tiny_split)


# Logs that stress how each user's history is laid out, for the parity tests
# against the per-user loops in ``oracles``.
LAYOUT_RECORDS = {
    "timestamp-ties": [(f"u{u}", f"s{(u + k * k) % 4}", 100 * k, "l")
                       for k in range(1, 9) for u in range(4)],
    "one-order": [("u1", s, 100 * k, "l") for k, s in enumerate("abacbdab", 1)]
    + [("u2", "b", 450, "l"), ("u3", "c", 800, "l")],
    "one-store": [("u1", "a", 100 * k, "l1") for k in range(1, 9)]
    + [("u2", s, 100 * k + 50, "l2") for k, s in enumerate("abcabcd", 1)],
}


@pytest.fixture(params=["conftest", "coupled", *LAYOUT_RECORDS])
def layout_split(request):
    """The session split, a strongly coupled synthetic split and the
    hand-made :data:`LAYOUT_RECORDS` splits."""
    if request.param == "conftest":
        return request.getfixturevalue("small_split")
    if request.param == "coupled":
        cfg = dataio.SynthConfig(n_users=40, n_stores=20, n_orders_per_user=10,
                                 situation_coupling=0.9, collab_coupling=0.9, seed=4)
        log, _ = dataio.generate_synthetic(cfg)
        return dataio.split_global_timeline(log, test_window_s=4 * DAY,
                                            valid_window_s=4 * DAY)
    log = make_log(LAYOUT_RECORDS[request.param])
    quarter = (int(log.times[-1]) - int(log.times[0])) // 4
    return dataio.split_global_timeline(log, test_window_s=quarter, valid_window_s=quarter)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


CASE_ROWS = ("position", "user", "target", "cand", "length", "n_prior", "tcol")


def take(cases, rows):
    """The cases of an ``evalharness.CaseSet`` at ``rows``, same column count."""
    return dataclasses.replace(cases, **{f: getattr(cases, f)[rows] for f in CASE_ROWS})
