"""Tests for the L1 cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.l1cache import CacheConfig, L1Cache
from repro.cache.mesi import MesiState


def test_default_geometry_matches_paper():
    config = CacheConfig()
    assert config.total_size == 64 * 1024
    assert config.line_size == 64
    assert config.associativity == 2
    assert config.num_sets == 512


def test_line_address_alignment():
    config = CacheConfig()
    assert config.line_address(0) == 0
    assert config.line_address(63) == 0
    assert config.line_address(64) == 64
    assert config.line_address(130) == 128


def test_absent_line_reads_invalid():
    cache = L1Cache()
    assert cache.state_of(0x1000) is MesiState.INVALID


def test_install_and_state():
    cache = L1Cache()
    cache.install(0x1000, MesiState.EXCLUSIVE)
    assert cache.state_of(0x1000) is MesiState.EXCLUSIVE
    # Same line covers the full 64-byte block.
    assert cache.state_of(0x1001) is MesiState.EXCLUSIVE
    assert cache.state_of(0x1040) is MesiState.INVALID


def test_set_state_and_invalidate():
    cache = L1Cache()
    cache.install(0x2000, MesiState.MODIFIED)
    cache.set_state(0x2000, MesiState.SHARED)
    assert cache.state_of(0x2000) is MesiState.SHARED
    cache.invalidate(0x2000)
    assert cache.state_of(0x2000) is MesiState.INVALID


def test_lru_eviction_within_set():
    config = CacheConfig(total_size=256, line_size=64, associativity=2)
    # 2 sets of 2 ways.  Lines 0, 256, 512 all map to set 0.
    cache = L1Cache(config=config)
    cache.install(0, MesiState.EXCLUSIVE)
    cache.install(256, MesiState.EXCLUSIVE)
    cache.touch(0)  # 256 becomes LRU
    evicted = cache.install(512, MesiState.EXCLUSIVE)
    assert evicted == 256
    assert cache.state_of(0) is MesiState.EXCLUSIVE
    assert cache.state_of(256) is MesiState.INVALID
    assert cache.state_of(512) is MesiState.EXCLUSIVE
    assert cache.eviction_count == 1


def test_reinstall_does_not_evict():
    config = CacheConfig(total_size=256, line_size=64, associativity=2)
    cache = L1Cache(config=config)
    cache.install(0, MesiState.EXCLUSIVE)
    assert cache.install(0, MesiState.MODIFIED) is None
    assert cache.state_of(0) is MesiState.MODIFIED


def test_flush_empties_cache():
    cache = L1Cache()
    cache.install(0x3000, MesiState.SHARED)
    cache.flush()
    assert cache.state_of(0x3000) is MesiState.INVALID
    assert list(cache.resident_lines()) == []


def test_degenerate_config_rejected():
    with pytest.raises(ValueError):
        CacheConfig(total_size=0).num_sets


_SMALL = CacheConfig(total_size=512, line_size=64, associativity=2)
_addresses = st.integers(min_value=0, max_value=255).map(lambda n: n * 16)
_states = st.sampled_from(list(MesiState))
_ops = st.lists(st.one_of(
    st.tuples(st.just("install"), _addresses, _states),
    st.tuples(st.just("set_state"), _addresses, _states),
    st.tuples(st.just("touch"), _addresses),
    st.tuples(st.just("invalidate"), _addresses),
    st.tuples(st.just("flush")),
), max_size=80)


def _snapshot(cache):
    return (cache.eviction_count,
            [(line.line_address, line.state, line.last_use)
             for line in cache.resident_lines()])


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_lazy_sets_behave_like_eager_sets(ops):
    """Sets created on first install give the same evictions, flushes
    and resident_lines() order as a cache whose sets all exist up
    front."""
    lazy = L1Cache(config=_SMALL)
    eager = L1Cache(config=_SMALL)

    def make_eager():
        eager._sets = [{} for _ in range(_SMALL.num_sets)]

    make_eager()
    for op in ops:
        name, args = op[0], op[1:]
        assert getattr(lazy, name)(*args) == getattr(eager, name)(*args)
        if name == "flush":
            make_eager()
        assert _snapshot(lazy) == _snapshot(eager)
    # The shared stand-in for untouched sets never gains a line.
    assert list(L1Cache(config=_SMALL).resident_lines()) == []
