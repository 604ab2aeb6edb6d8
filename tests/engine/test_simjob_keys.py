"""Golden pins and a differential property test for simulation-job keys.

A :class:`SimulationJob` key names a stored record: ``--resume`` and the
in-call dedupe match jobs to store rows by it.  The pins below are literal
``key()``/``cell_key()`` values, so any change to how a job's key payload is
built that moves a single byte fails here before it can orphan a store.
The property test checks the documented formula — ``key()`` is the SHA-256
prefix of ``json.dumps(job_spec(), sort_keys=True, separators=(",", ":"))``
— on generated parameters.

Print the current values (to review a deliberate key change) with
``PYTHONPATH=src python -m tests.engine.test_simjob_keys``.
"""

import dataclasses
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import SimulationBatch, SimulationJob
from repro.errors import ConfigurationError
from repro.scenarios import default_registry

INF = float("inf")

#: Explicit static-replay schedule for G3 (all 15 tasks, every column
#: used), as ``run_simulation_suite`` hands the offline anchor over.
G3_SEQUENCE = [f"T{i}" for i in range(1, 16)]
G3_COLUMNS = {f"T{i}": (i - 1) % 5 for i in range(1, 16)}


def _cases():
    """``(pin id, job)`` for every pinned job, built from the catalogue."""
    registry = default_registry()
    g3 = registry.get("g3")
    jitter = registry.get("g3-jitter10")
    noisy = registry.get("tour-g3-rakhmatov-j10-noisy")
    optimized = dataclasses.replace(jitter, name="g3-jitter10-fused", optimize="cull+fuse")
    replay = {"sequence": G3_SEQUENCE, "columns": G3_COLUMNS}
    replay_inf = dict(replay, horizon=INF, floor=-INF)
    return [
        ("deterministic-greedy-r0", SimulationJob(spec=g3, policy="greedy-energy")),
        (
            "deterministic-slack-r99",
            SimulationJob(spec=g3, policy="deadline-slack", replication=99),
        ),
        ("stochastic-greedy-r0", SimulationJob(spec=jitter, policy="greedy-energy")),
        (
            "stochastic-reactive-seed7-r99",
            SimulationJob(spec=jitter, policy="battery-reactive", seed=7, replication=99),
        ),
        (
            "stochastic-slack-deadline",
            SimulationJob(spec=jitter, policy="deadline-slack", evaluate_at="deadline"),
        ),
        ("imode-noisy-greedy-r0", SimulationJob(spec=noisy, policy="greedy-energy")),
        (
            "imode-noisy-reactive-params-r99",
            SimulationJob(
                spec=noisy,
                policy="battery-reactive",
                params={"soc_reserve": 0.4},
                replication=99,
            ),
        ),
        ("optimize-greedy-seed7", SimulationJob(spec=optimized, policy="greedy-energy", seed=7)),
        (
            "replay-explicit-r0",
            SimulationJob(spec=jitter, policy="static-replay", params=replay),
        ),
        (
            "replay-explicit-inf-seed7-r99",
            SimulationJob(
                spec=jitter,
                policy="static-replay",
                params=replay_inf,
                seed=7,
                replication=99,
            ),
        ),
        (
            "replay-algorithm-deadline",
            SimulationJob(
                spec=jitter,
                policy="static-replay",
                params={"algorithm": "annealing", "algorithm_params": {"seed": 7}},
                evaluate_at="deadline",
            ),
        ),
        (
            "deterministic-replay-explicit-r99",
            SimulationJob(spec=g3, policy="static-replay", params=replay, replication=99),
        ),
    ]


#: pin id -> (key(), cell_key()), generated before the key payload was
#: restructured; the values must never move.
GOLDEN_KEYS = {
    "deterministic-greedy-r0": ("dbc3397f8999f26cc9f62b40", "4abe712b87298654590c3f08"),
    "deterministic-slack-r99": ("74e11e689bf7c68da173859d", "fe3145c0061fc06b38a7f49a"),
    "stochastic-greedy-r0": ("1418151f8ee6f434935af81b", "250865b4716887e2b32385be"),
    "stochastic-reactive-seed7-r99": ("f9dc5bb0ac0050e47a31e6d2", "b7e86c25e49502ed49c5e080"),
    "stochastic-slack-deadline": ("f4967c0643bb8bb3b48cc106", "dd8b29c919ecde990e8caff1"),
    "imode-noisy-greedy-r0": ("7390f7e11a974294b88cc500", "727ab4b9a7bc3c4c3413d24c"),
    "imode-noisy-reactive-params-r99": ("cadbd23b79459c847669399a", "ab5ede84edb0e1512ef1fb09"),
    "optimize-greedy-seed7": ("39f5a10c4092cff567f98c20", "beba9a9a2b599c1ae4529ea9"),
    "replay-explicit-r0": ("828de10f1f7d855fd0087931", "89c2e716e4873b74392fc396"),
    "replay-explicit-inf-seed7-r99": ("b96bef2e83f575e571c41d92", "08743fc73964d233d0584460"),
    "replay-algorithm-deadline": ("a2a31773f14a018ffdf22cb3", "b2c874e06a4749823ab12bdd"),
    "deterministic-replay-explicit-r99": ("3e3abfa4aa72bfef00c1c07f", "bc946f5c707be484748e0001"),
}


CASES = _cases()


@pytest.mark.parametrize("name,job", CASES, ids=[name for name, _ in CASES])
def test_key_matches_golden_pin(name, job):
    assert (job.key(), job.cell_key()) == GOLDEN_KEYS[name]


def test_pins_cover_every_case():
    assert sorted(GOLDEN_KEYS) == sorted(name for name, _ in CASES)


def _reference_key(spec_dict):
    payload = json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


@pytest.mark.parametrize("name,job", CASES, ids=[name for name, _ in CASES])
def test_key_follows_documented_formula(name, job):
    spec = job.job_spec()
    assert job.key() == _reference_key(spec)
    del spec["replication"]
    assert job.cell_key() == _reference_key(spec)


# ----------------------------------------------------------------------
# differential: the stem-built keys against the documented formula
# ----------------------------------------------------------------------
SPECS = [default_registry().get(name) for name in ("g3", "g3-jitter10", "tour-g3-rakhmatov-j10-noisy")]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.sampled_from([float("inf"), -float("inf")]),
    st.text(max_size=8),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=24,
)
params_strategy = st.dictionaries(st.text(max_size=6), values, max_size=5)


@given(
    spec=st.sampled_from(SPECS),
    policy=st.sampled_from(["static-replay", "greedy-energy", "battery-reactive"]),
    params=params_strategy,
    seed=st.integers(min_value=0, max_value=2**32),
    replication=st.integers(min_value=0, max_value=120),
    evaluate_at=st.sampled_from(["completion", "deadline"]),
)
@settings(max_examples=150, deadline=None)
def test_stem_keys_equal_reference_and_construction_path(
    spec, policy, params, seed, replication, evaluate_at
):
    fields = dict(spec=spec, policy=policy, params=params, seed=seed, evaluate_at=evaluate_at)
    alone = SimulationJob(replication=replication, **fields)
    spec_dict = alone.job_spec()
    assert alone.key() == _reference_key(spec_dict)
    del spec_dict["replication"]
    assert alone.cell_key() == _reference_key(spec_dict)

    cell = SimulationJob(**fields).replications(replication + 1)
    sibling = cell[replication]
    assert sibling == alone
    assert (sibling.key(), sibling.cell_key()) == (alone.key(), alone.cell_key())


class TestReplications:
    def test_cell_members_share_one_stem(self):
        cell = SimulationJob(spec=SPECS[1], policy="greedy-energy", seed=3).replications(4)
        assert [job.replication for job in cell] == [0, 1, 2, 3]
        assert all(job._stem is cell[0]._stem for job in cell)
        assert len({job.key() for job in cell}) == 4
        assert len({job.cell_key() for job in cell}) == 1

    def test_source_replication_and_cached_key_do_not_leak(self):
        source = SimulationJob(spec=SPECS[1], policy="greedy-energy", replication=7)
        source.key()
        cell = source.replications(2)
        assert [job.replication for job in cell] == [0, 1]
        assert cell[0] == SimulationJob(spec=SPECS[1], policy="greedy-energy")
        assert cell[0].key() == SimulationJob(spec=SPECS[1], policy="greedy-energy").key()
        assert source.replication == 7

    def test_counts(self):
        job = SimulationJob(spec=SPECS[0], policy="greedy-energy")
        assert job.replications(0) == ()
        with pytest.raises(ConfigurationError):
            job.replications(-1)

    def test_pickled_batch_ships_the_stem_once(self):
        replay = {"sequence": G3_SEQUENCE, "columns": G3_COLUMNS}
        fields = dict(spec=SPECS[1], policy="static-replay", params=replay)
        shared = SimulationBatch(jobs=SimulationJob(**fields).replications(50))
        separate = SimulationBatch(
            jobs=tuple(SimulationJob(replication=r, **fields) for r in range(50))
        )
        shared_bytes = pickle.dumps(shared)
        assert len(shared_bytes) * 3 < len(pickle.dumps(separate))
        restored = pickle.loads(shared_bytes)
        assert [job.key() for job in restored.jobs] == [job.key() for job in separate.jobs]

    def test_unserialisable_params_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="params"):
            SimulationJob(spec=SPECS[0], policy="greedy-energy", params={"x": object()})


if __name__ == "__main__":
    for name, job in CASES:
        print(f'    "{name}": ("{job.key()}", "{job.cell_key()}"),')
