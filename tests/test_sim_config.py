"""Tests for simulator configuration validation and helpers."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.sim.config import (
    AdminConfig,
    CacheWorkerConfig,
    DiskConfig,
    ExecutorConfig,
    NetworkConfig,
    ShuffleConfig,
    SimConfig,
)


def test_default_config_validates():
    SimConfig().validate()


def test_network_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        NetworkConfig(nic_bandwidth=0).validate()


def test_network_rejects_inverted_setup_latencies():
    with pytest.raises(ValueError):
        NetworkConfig(conn_setup_base=0.5, conn_setup_congested=0.1).validate()


def test_network_rejects_bad_retx_cap():
    with pytest.raises(ValueError):
        NetworkConfig(retx_cap=1.5).validate()


def test_network_rejects_zero_parallelism():
    with pytest.raises(ValueError):
        NetworkConfig(conn_parallelism=0).validate()


def test_disk_rejects_bad_values():
    with pytest.raises(ValueError):
        DiskConfig(sequential_bandwidth=-1).validate()
    with pytest.raises(ValueError):
        DiskConfig(disks_per_machine=0).validate()


def test_cache_worker_rejects_bad_values():
    with pytest.raises(ValueError):
        CacheWorkerConfig(memory_capacity=0).validate()
    with pytest.raises(ValueError):
        CacheWorkerConfig(spill_chunk_bytes=0).validate()


def test_cache_worker_capacity_is_whole_bytes():
    with pytest.raises(ValueError):
        CacheWorkerConfig(memory_capacity=4e6).validate()
    with pytest.raises(ValueError):
        CacheWorkerConfig(memory_capacity=2.5 * 1024**3).validate()
    CacheWorkerConfig(memory_capacity=4_000_000).validate()


def test_cache_pressure_perturbation_keeps_capacity_whole():
    from repro.chaos.campaign import CACHE_FACTORS, Perturbations

    for factor in CACHE_FACTORS:
        config = Perturbations(cache_factor=factor).apply(SimConfig())
        capacity = config.cache_worker.memory_capacity
        assert isinstance(capacity, int)
        assert capacity == int(SimConfig().cache_worker.memory_capacity * factor)
        config.validate()


def test_shuffle_thresholds_must_be_ordered():
    ShuffleConfig(direct_threshold=10, local_threshold=20).validate()
    with pytest.raises(ValueError):
        ShuffleConfig(direct_threshold=20, local_threshold=10).validate()
    with pytest.raises(ValueError):
        ShuffleConfig(direct_threshold=0, local_threshold=10).validate()


def test_shuffle_production_thresholds():
    cfg = ShuffleConfig()
    assert cfg.direct_threshold == 10_000
    assert cfg.local_threshold == 90_000


def test_admin_heartbeat_interval_by_scale():
    cfg = AdminConfig()
    assert cfg.heartbeat_interval(100) == 5.0
    assert cfg.heartbeat_interval(500) == 5.0
    assert cfg.heartbeat_interval(501) == 10.0
    assert cfg.heartbeat_interval(5_000) == 10.0
    assert cfg.heartbeat_interval(50_000) == 15.0


def test_admin_rejects_negative_processing_time():
    with pytest.raises(ValueError):
        AdminConfig(event_processing_time=-1).validate()


def test_admin_rejects_empty_heartbeat_table():
    with pytest.raises(ValueError):
        AdminConfig(heartbeat_intervals=()).validate()


def test_executor_rejects_negative_overheads():
    with pytest.raises(ValueError):
        ExecutorConfig(prelaunched_overhead=-0.1).validate()
    with pytest.raises(ValueError):
        ExecutorConfig(coldstart_mean=1.0, coldstart_jitter=2.0).validate()


def test_sim_config_rejects_bad_top_level():
    cfg = SimConfig()
    cfg.task_processing_rate = 0
    with pytest.raises(ValueError):
        cfg.validate()


def _numeric_fields(config: object, path: tuple = ()) -> list[tuple[str, ...]]:
    """The path of every ``int``/``float`` field reachable from ``config``."""
    out = []
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            out.extend(_numeric_fields(value, path + (field.name,)))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out.append(path + (field.name,))
    return out


def _set_field(config: SimConfig, path: tuple[str, ...], value: object) -> None:
    for name in path[:-1]:
        config = getattr(config, name)
    setattr(config, path[-1], value)


NUMERIC_PATHS = _numeric_fields(SimConfig())


def test_every_numeric_field_is_walked():
    assert len(NUMERIC_PATHS) > 30
    assert ("network", "rtt") in NUMERIC_PATHS and ("seed",) in NUMERIC_PATHS


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1], ids=repr)
@pytest.mark.parametrize("path", NUMERIC_PATHS, ids=".".join)
def test_sim_config_rejects_nan_inf_and_negative_numbers(path, bad):
    config = SimConfig()
    _set_field(config, path, bad)
    with pytest.raises(ValueError):
        config.validate()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1], ids=repr)
@pytest.mark.parametrize("slot", [0, 1])
def test_sim_config_rejects_bad_heartbeat_entries(slot, bad):
    config = SimConfig()
    entry = [500, 5.0]
    entry[slot] = bad
    config.admin.heartbeat_intervals = (tuple(entry),)
    with pytest.raises(ValueError, match=r"heartbeat_intervals\[0\]"):
        config.validate()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0], ids=repr)
@pytest.mark.parametrize("name", ["network_factor", "cache_factor"])
def test_perturbations_reject_non_finite_or_non_positive_factors(name, bad):
    from repro.chaos.campaign import Perturbations

    with pytest.raises(ValueError, match=name):
        Perturbations(**{name: bad})


def test_copy_is_deep_for_sections():
    cfg = SimConfig()
    clone = cfg.copy()
    clone.network.nic_bandwidth = 1.0
    assert cfg.network.nic_bandwidth != 1.0


def test_copy_with_override():
    clone = SimConfig().copy(seed=99)
    assert clone.seed == 99


def test_copy_rejects_unknown_field():
    with pytest.raises(AttributeError):
        SimConfig().copy(nonexistent=1)
