"""Rank pools against the configuration-list pools they replaced.

A finite space samples enumeration ranks (``DesignSpace.sample_ranks``) and
its encoded pool is a lazy view over them.  Each test here builds the same
pool both ways, ``build_encoded_pool`` and
:func:`oracles.encoded_pool_reference` (``build_pool`` over the
per-configuration sampling loop, then ``space.encode``), and compares the
configurations in order, the ``X`` bytes, every row's ``position()``, the
position of non-members and the generator state left behind.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from repro.core.parameters import (
    BooleanParameter,
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
)
from repro.core.sampling import EncodedPool, build_encoded_pool
from repro.core.space import Configuration, DesignSpace, EnumeratedConfigs
from repro.slambench.parameters import elasticfusion_design_space, kfusion_design_space

#: CI reruns the drawn cases with ``HYPOTHESIS_PROFILE=oracle-harness``
#: (1,500 derandomized examples).
settings.register_profile(
    "oracle-harness", max_examples=1500, deadline=None, derandomize=True, print_blob=True
)
ORACLE_SETTINGS = (
    settings(settings.get_profile("oracle-harness"))
    if os.environ.get("HYPOTHESIS_PROFILE") == "oracle-harness"
    else settings(max_examples=100, deadline=None)
)


def _spelled(configs):
    """Values with their types, so ``64`` and ``64.0`` differ."""
    return [repr(tuple(c[n] for n in c)) for c in configs]


def _assert_same_pool(space, pool_size, seed, include=(), non_members=()):
    rng_new = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    pool = build_encoded_pool(space, pool_size, rng=rng_new, include=include)
    configs, X, index = oracles.encoded_pool_reference(space, pool_size, rng_ref, include)
    assert len(pool) == len(configs)
    assert _spelled(pool.configs) == _spelled(configs)
    assert pool.X.tobytes() == X.tobytes()
    assert [pool.position(c) for c in configs] == [index[c] for c in configs]
    for c in non_members:
        assert pool.position(c) == index.get(c)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return pool


def _outsiders(space, pool, rng, count=50):
    """Configurations of ``space`` missing from ``pool``, plus two strangers."""
    drawn = oracles.sample_reference(space, count, rng)
    members = set(pool.configs)
    out = [c for c in drawn if c not in members]
    names = space.parameter_names
    out.append(Configuration(names, [object()] + [c for c in drawn[0].values_tuple[1:]]))
    out.append(Configuration(["not", "these"], [1, 2]))
    return out


class TestSlamSpacePools:
    @pytest.mark.parametrize(
        "space_fn, pool_size",
        [(kfusion_design_space, 3_000), (kfusion_design_space, 50_000), (elasticfusion_design_space, 2_000)],
    )
    def test_matches_configuration_list_pool(self, space_fn, pool_size):
        space = space_fn()
        bootstrap = oracles.sample_reference(space, 40, np.random.default_rng(1))
        include = bootstrap + [space.default_configuration()]
        pool = _assert_same_pool(space, pool_size, 7, include)
        assert isinstance(pool.configs, EnumeratedConfigs)
        assert pool._index == {}  # no config→row dictionary
        non_members = _outsiders(space, pool, np.random.default_rng(2))
        for c in non_members:
            assert pool.position(c) is None

    def test_design_space_sample_matches_reference(self):
        space = kfusion_design_space()
        for distinct in (True, False):
            a, b = np.random.default_rng(3), np.random.default_rng(3)
            got = space.sample(4_000, rng=a, distinct=distinct)
            assert _spelled(got) == _spelled(oracles.sample_reference(space, 4_000, b, distinct))
            assert a.bit_generator.state == b.bit_generator.state


class TestSmallSpaces:
    @pytest.fixture
    def small(self):
        # 24 configurations: a 20-row pool needs second and later attempts.
        return DesignSpace(
            [
                OrdinalParameter("a", [1, 2, 4]),
                BooleanParameter("b"),
                CategoricalParameter("c", ["x", "y", "z", "w"]),
            ],
            name="small",
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_later_attempts(self, small, seed):
        _assert_same_pool(small, 20, seed)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert small.sample(23, rng=a) == oracles.sample_reference(small, 23, b)
        assert a.bit_generator.state == b.bit_generator.state

    def test_includes_inside_outside_and_beyond_the_space(self, small):
        members = oracles.sample_reference(small, 20, np.random.default_rng(4))
        taken = set(members)
        absent = [c for c in small.enumerate() if c not in taken]
        beyond = Configuration(small.parameter_names, [3, True, "x"])
        include = [members[3], absent[0], absent[0], members[3], absent[1]]
        # Inside and outside the pool: appended by rank, in order, once.
        pool = _assert_same_pool(small, 20, 4, include, non_members=absent[2:])
        assert isinstance(pool.configs, EnumeratedConfigs)
        # Beyond the space: the configuration-list pool.
        pool = _assert_same_pool(small, 20, 4, include + [beyond, beyond], non_members=absent[2:])
        assert not isinstance(pool.configs, EnumeratedConfigs)
        assert pool.position(beyond) == len(pool) - 1

    def test_include_spelled_differently_keeps_its_spelling(self, small):
        members = oracles.sample_reference(small, 20, np.random.default_rng(5))
        taken = set(members)
        absent = next(c for c in small.enumerate() if c not in taken)
        respelled = absent.replace(a=float(absent["a"]))
        pool = _assert_same_pool(small, 20, 5, [respelled])
        assert repr(pool.configs[len(pool) - 1]["a"]) == repr(float(absent["a"]))

    @pytest.mark.parametrize("pool_size", [24, 25, 1_000, None])
    def test_pool_size_at_least_the_cardinality(self, small, pool_size):
        pool = _assert_same_pool(small, pool_size, 0, [small.default_configuration()])
        assert len(pool) == 24

    def test_wide_integer_domain_is_never_materialized(self):
        space = DesignSpace(
            [IntegerParameter("k", 0, 10**12), OrdinalParameter("m", [0.5, 1.5])], name="wide"
        )
        _assert_same_pool(space, 500, 6, [space.default_configuration()])

    def test_space_larger_than_int64_ranks(self):
        space = DesignSpace(
            [OrdinalParameter(f"p{i}", list(range(10))) for i in range(25)], name="huge"
        )
        pool = _assert_same_pool(space, 300, 8, [space.default_configuration()])
        assert pool.configs._ranks.dtype == object

    def test_training_rows_gather_the_pool(self, small):
        pool = build_encoded_pool(small, 20, rng=np.random.default_rng(1))
        rows = np.array([3, 0, 3, 19])
        X, binned = pool.training_rows(small, [pool.configs[int(i)] for i in rows], rows)
        assert X.tobytes() == pool.X[rows].tobytes()
        assert binned.tobytes() == pool.binned[rows].tobytes()


@st.composite
def _spaces(draw):
    params = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["ordinal", "integer", "categorical", "boolean"]))
        name = f"p{i}"
        if kind == "ordinal":
            values = draw(
                st.one_of(
                    st.lists(st.integers(-5, 5), min_size=1, max_size=5, unique=True),
                    st.lists(
                        st.sampled_from([0.25, 0.5, 1.0, 2.0, 8.0]), min_size=1, max_size=5, unique=True
                    ),
                    st.lists(st.sampled_from(["lo", "mid", "hi", "max"]), min_size=1, unique=True),
                )
            )
            params.append(OrdinalParameter(name, values))
        elif kind == "integer":
            lower = draw(st.integers(-3, 3))
            params.append(IntegerParameter(name, lower, lower + draw(st.integers(0, 6))))
        elif kind == "categorical":
            params.append(CategoricalParameter(name, ["a", "b", "c"][: draw(st.integers(1, 3))]))
        else:
            params.append(BooleanParameter(name))
    return DesignSpace(params, name="drawn")


def _strangers(space):
    """Encodable configurations outside ``space``: one number out of a domain."""
    default = space.default_configuration()
    out = []
    for p in space.parameters:
        if isinstance(p, (IntegerParameter, BooleanParameter)) or (
            isinstance(p, OrdinalParameter) and p._numeric
        ):
            out.append(default.replace(**{p.name: 97}))
    return out


class TestDrawnSpaces:
    @ORACLE_SETTINGS
    @given(_spaces(), st.integers(0, 10**6), st.data())
    def test_matches_configuration_list_pool(self, space, seed, data):
        card = int(space.cardinality)
        pool_size = data.draw(st.integers(0, card + 2))
        members = oracles.sample_reference(space, data.draw(st.integers(0, 4)), np.random.default_rng(seed))
        include = members + [space.default_configuration()]
        strangers = _strangers(space)
        if strangers and data.draw(st.booleans()):
            include.append(strangers[0])
        _assert_same_pool(space, pool_size, seed, include, non_members=space.enumerate() + strangers)
        # Plain samples, with and without rejecting duplicates.
        n, distinct = data.draw(st.integers(0, card + 2)), data.draw(st.booleans())
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = space.sample(n, rng=a, distinct=distinct)
        assert _spelled(got) == _spelled(oracles.sample_reference(space, n, b, distinct))
        assert a.bit_generator.state == b.bit_generator.state


def test_list_pools_keep_their_dictionary():
    space = DesignSpace([OrdinalParameter("a", [1, 2, 3])], name="list")
    configs = space.enumerate()
    pool = EncodedPool(configs=configs, X=space.encode(configs))
    assert pool._index == {c: i for i, c in enumerate(configs)}
