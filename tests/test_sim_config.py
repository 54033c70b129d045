"""Tests for simulator configuration validation and helpers."""

from __future__ import annotations

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
