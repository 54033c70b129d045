"""Tests for adaptive shuffle selection and the cost model."""

from __future__ import annotations

import pytest

from repro.core.shuffle import (
    ShuffleCostModel,
    ShuffleModeController,
    ShuffleScheme,
    connection_count,
    memory_copies,
    plan_partition_merge,
    resolve_scheme,
    select_scheme,
)
from repro.sim.config import ShuffleConfig, SimConfig
from repro.sim.disk import DiskModel
from repro.sim.network import NetworkModel

GB = 1e9
MiB = 1024 ** 2


@pytest.fixture
def model() -> ShuffleCostModel:
    config = SimConfig()
    return ShuffleCostModel(config, NetworkModel(config.network), DiskModel(config.disk))


def test_adaptive_thresholds_match_production_settings(config):
    # Section III-B: thresholds at 10,000 and 90,000 edges.
    assert select_scheme(0, config.shuffle) == ShuffleScheme.DIRECT
    assert select_scheme(10_000, config.shuffle) == ShuffleScheme.DIRECT
    assert select_scheme(10_001, config.shuffle) == ShuffleScheme.REMOTE
    assert select_scheme(90_000, config.shuffle) == ShuffleScheme.REMOTE
    assert select_scheme(90_001, config.shuffle) == ShuffleScheme.LOCAL


def test_select_scheme_rejects_negative(config):
    with pytest.raises(ValueError):
        select_scheme(-1, config.shuffle)


def test_resolve_scheme_passthrough_and_adaptive(config):
    assert resolve_scheme(ShuffleScheme.DISK, 10**9, config.shuffle) == ShuffleScheme.DISK
    assert resolve_scheme(ShuffleScheme.ADAPTIVE, 5_000, config.shuffle) == ShuffleScheme.DIRECT
    assert resolve_scheme(ShuffleScheme.ADAPTIVE, 50_000, config.shuffle) == ShuffleScheme.REMOTE
    assert resolve_scheme(ShuffleScheme.ADAPTIVE, 500_000, config.shuffle) == ShuffleScheme.LOCAL


def test_connection_counts_match_paper_formulas():
    # Section III-B: Direct M*N, Local M+N+C(Y,2), Remote M+N*Y.
    m, n, y = 100, 80, 10
    assert connection_count(ShuffleScheme.DIRECT, m, n, y) == 8_000
    assert connection_count(ShuffleScheme.LOCAL, m, n, y) == 100 + 80 + 45
    assert connection_count(ShuffleScheme.REMOTE, m, n, y) == 100 + 800
    assert connection_count(ShuffleScheme.DISK, m, n, y) == 8_000


def test_local_has_fewest_connections_when_y_small():
    # "Local Shuffle has the least TCP connections between tasks" because
    # Y is much smaller than M and N.
    m, n, y = 1000, 1000, 10
    local = connection_count(ShuffleScheme.LOCAL, m, n, y)
    remote = connection_count(ShuffleScheme.REMOTE, m, n, y)
    direct = connection_count(ShuffleScheme.DIRECT, m, n, y)
    assert local < remote < direct


def test_connection_count_rejects_bad_inputs():
    with pytest.raises(ValueError):
        connection_count(ShuffleScheme.DIRECT, 0, 1, 1)
    with pytest.raises(ValueError):
        connection_count(ShuffleScheme.ADAPTIVE, 1, 1, 1)


def test_memory_copies_match_paper():
    # Direct has the fewest copies; Local adds two; Remote is in between.
    assert memory_copies(ShuffleScheme.DIRECT) == 0
    assert memory_copies(ShuffleScheme.LOCAL) == 2
    assert memory_copies(ShuffleScheme.REMOTE) == 1
    assert memory_copies(ShuffleScheme.DISK) == 0


def test_edge_cost_rejects_bad_inputs(model):
    with pytest.raises(ValueError):
        model.edge_cost(ShuffleScheme.DIRECT, -1, 1, 1, 1)
    with pytest.raises(ValueError):
        model.edge_cost(ShuffleScheme.DIRECT, 1, 0, 1, 1)


def test_direct_wins_small_shuffles(model):
    """For small shuffles the extra memory copies make the cache-mediated
    schemes slower (Fig. 12's small class)."""
    kwargs = dict(total_bytes=20 * GB, m=60, n=60, y=4, concurrent_connections=4_000)
    direct = model.edge_cost(ShuffleScheme.DIRECT, **kwargs)
    local = model.edge_cost(ShuffleScheme.LOCAL, **kwargs)
    remote = model.edge_cost(ShuffleScheme.REMOTE, **kwargs)
    d = direct.write_per_task + direct.read_per_task
    assert d <= local.write_per_task + local.read_per_task
    assert d <= remote.write_per_task + remote.read_per_task + 0.05


def test_remote_wins_medium_shuffles(model):
    """Direct's M x N handshakes dominate at medium size (Fig. 12)."""
    kwargs = dict(total_bytes=20 * GB, m=200, n=200, y=13,
                  concurrent_connections=80_000)
    direct = model.edge_cost(ShuffleScheme.DIRECT, **kwargs)
    remote = model.edge_cost(
        ShuffleScheme.REMOTE, total_bytes=20 * GB, m=200, n=200, y=13,
        concurrent_connections=6_000,
    )
    assert (remote.write_per_task + remote.read_per_task
            < direct.write_per_task + direct.read_per_task)


def test_local_wins_large_shuffles(model):
    """At large sizes Direct collapses (incast) and Remote pays Y pulls."""
    big = dict(total_bytes=20 * GB, m=400, n=400, y=25)
    direct = model.edge_cost(ShuffleScheme.DIRECT, concurrent_connections=320_000, **big)
    local = model.edge_cost(ShuffleScheme.LOCAL, concurrent_connections=2_000, **big)
    remote = model.edge_cost(ShuffleScheme.REMOTE, concurrent_connections=20_000, **big)
    l = local.write_per_task + local.read_per_task
    r = remote.write_per_task + remote.read_per_task
    d = direct.write_per_task + direct.read_per_task
    assert l < r < d


def test_direct_barrier_charges_read_side(model):
    pull = model.edge_cost(ShuffleScheme.DIRECT, 1 * GB, 50, 50, 5, 1000, barrier=True)
    push = model.edge_cost(ShuffleScheme.DIRECT, 1 * GB, 50, 50, 5, 1000, barrier=False)
    assert pull.read_per_task > push.read_per_task
    assert pull.write_per_task < push.write_per_task


def test_direct_barrier_write_has_no_memory_copy(model):
    """Section III-B: ``memory_copies(DIRECT) == 0`` — the producer already
    holds its output in executor memory, so the barrier branch must not
    charge a copy on the write side."""
    assert memory_copies(ShuffleScheme.DIRECT) == 0
    pull = model.edge_cost(ShuffleScheme.DIRECT, 1 * GB, 50, 50, 5, 1000, barrier=True)
    assert pull.write_per_task == 0.0


def test_disk_write_scales_with_partition_files(model):
    narrow = model.edge_cost(ShuffleScheme.DISK, 1 * GB, 10, 10, 2, 100)
    wide = model.edge_cost(ShuffleScheme.DISK, 1 * GB, 10, 1000, 2, 100)
    assert wide.write_per_task > narrow.write_per_task


def test_disk_read_fragment_latency_escalates_with_load(model):
    quiet = model.edge_cost(ShuffleScheme.DISK, 1 * GB, 1000, 1000, 30, 10_000)
    loaded = model.edge_cost(ShuffleScheme.DISK, 1 * GB, 1000, 1000, 30, 2_000_000)
    assert loaded.read_per_task > quiet.read_per_task * 2


def test_retx_rate_reported(model):
    cost = model.edge_cost(
        ShuffleScheme.DIRECT, 1 * GB, 400, 400, 25,
        concurrent_connections=int(model.network.config.retx_saturation),
    )
    assert cost.retx_rate == pytest.approx(model.network.config.retx_cap)


def test_costs_scale_with_bytes(model):
    small = model.edge_cost(ShuffleScheme.LOCAL, 1 * GB, 50, 50, 5, 1000)
    large = model.edge_cost(ShuffleScheme.LOCAL, 10 * GB, 50, 50, 5, 1000)
    assert large.read_per_task > small.read_per_task
    assert large.write_per_task > small.write_per_task


def test_unknown_scheme_raises(model):
    with pytest.raises(ValueError):
        model.edge_cost(ShuffleScheme.ADAPTIVE, 1.0, 1, 1, 1)


# ----------------------------------------------------------------------
# ShuffleConfig: configurable thresholds, validation, round trip
# ----------------------------------------------------------------------

def test_select_scheme_honors_custom_thresholds():
    """Boundary regression: the `<=` comparisons must hold at exactly the
    configured thresholds, whatever their values."""
    config = ShuffleConfig(direct_threshold=100, local_threshold=200)
    assert select_scheme(99, config) == ShuffleScheme.DIRECT
    assert select_scheme(100, config) == ShuffleScheme.DIRECT
    assert select_scheme(101, config) == ShuffleScheme.REMOTE
    assert select_scheme(200, config) == ShuffleScheme.REMOTE
    assert select_scheme(201, config) == ShuffleScheme.LOCAL


def test_shuffle_config_validation():
    with pytest.raises(ValueError):
        ShuffleConfig(direct_threshold=90_000, local_threshold=10_000).validate()
    with pytest.raises(ValueError):
        ShuffleConfig(direct_threshold=0).validate()
    with pytest.raises(ValueError):
        ShuffleConfig(replication_factor=0).validate()
    with pytest.raises(ValueError):
        ShuffleConfig(pressure_demote_utilization=1.5).validate()
    with pytest.raises(ValueError):
        ShuffleConfig(setup_promote_latency=0.0).validate()
    with pytest.raises(ValueError):
        ShuffleConfig(merge_min_edges=1).validate()
    with pytest.raises(ValueError):
        ShuffleConfig(merge_max_bytes=-1.0).validate()


def test_shuffle_config_round_trips():
    config = ShuffleConfig(
        direct_threshold=5_000, local_threshold=50_000,
        replication_factor=3, mode_switching=False, switch_margin=0.25,
    )
    assert ShuffleConfig.from_dict(config.to_dict()) == config


def test_shuffle_config_from_dict_rejects_unknown_and_invalid():
    with pytest.raises(ValueError):
        ShuffleConfig.from_dict({"direct_threshold": 10, "bogus": 1})
    with pytest.raises(ValueError):
        ShuffleConfig.from_dict({"replication_factor": 0})


# ----------------------------------------------------------------------
# ShuffleModeController: pressure-driven mid-job switching
# ----------------------------------------------------------------------

def test_mode_controller_demotes_under_cache_pressure(config):
    controller = ShuffleModeController(config.shuffle)
    decision = controller.resolve(
        ShuffleScheme.ADAPTIVE, 12_000, cache_utilization=0.95
    )
    assert decision.scheme == ShuffleScheme.DIRECT
    assert decision.static_scheme == ShuffleScheme.REMOTE
    assert decision.switched and decision.reason == "cache-pressure"
    assert controller.switches == 1


def test_mode_controller_promotes_under_setup_cost(config):
    controller = ShuffleModeController(config.shuffle)
    decision = controller.resolve(
        ShuffleScheme.ADAPTIVE, 8_000, setup_latency=0.2
    )
    assert decision.scheme == ShuffleScheme.REMOTE
    assert decision.static_scheme == ShuffleScheme.DIRECT
    assert decision.switched and decision.reason == "setup-cost"


def test_mode_controller_only_switches_borderline_edges(config):
    controller = ShuffleModeController(config.shuffle)
    # Far above the margin: pressure must not demote a huge LOCAL edge.
    big = controller.resolve(
        ShuffleScheme.ADAPTIVE, 500_000, cache_utilization=1.0
    )
    assert big.scheme == ShuffleScheme.LOCAL and not big.switched
    # Far below the margin: setup cost must not promote a tiny edge.
    small = controller.resolve(
        ShuffleScheme.ADAPTIVE, 1_000, setup_latency=1.0
    )
    assert small.scheme == ShuffleScheme.DIRECT and not small.switched
    assert controller.switches == 0


def test_mode_controller_never_overrides_explicit_schemes(config):
    controller = ShuffleModeController(config.shuffle)
    decision = controller.resolve(
        ShuffleScheme.LOCAL, 12_000, cache_utilization=1.0, setup_latency=1.0
    )
    assert decision.scheme == ShuffleScheme.LOCAL and not decision.switched


def test_mode_controller_disabled_by_config(config):
    config.shuffle.mode_switching = False
    controller = ShuffleModeController(config.shuffle)
    decision = controller.resolve(
        ShuffleScheme.ADAPTIVE, 12_000, cache_utilization=1.0
    )
    assert decision.scheme == ShuffleScheme.REMOTE and not decision.switched


def test_mode_controller_calm_observations_match_static_rule(config):
    controller = ShuffleModeController(config.shuffle)
    for size in (0, 5_000, 10_000, 10_001, 90_000, 90_001, 10**6):
        decision = controller.resolve(ShuffleScheme.ADAPTIVE, size)
        assert decision.scheme == select_scheme(size, config.shuffle)
        assert not decision.switched


class CountingProbe:
    """A Cache Worker utilization probe that counts its invocations."""

    def __init__(self, utilization: float) -> None:
        self.utilization = utilization
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        return self.utilization


@pytest.mark.parametrize(
    "requested, size, mode_switching",
    [
        (ShuffleScheme.REMOTE, 12_000, True),     # explicitly requested scheme
        (ShuffleScheme.ADAPTIVE, 12_000, False),  # switching disabled
        (ShuffleScheme.ADAPTIVE, 8_000, True),    # static DIRECT
        (ShuffleScheme.ADAPTIVE, 20_000, True),   # above the demotion margin
    ],
)
def test_mode_controller_skips_cache_probe_off_the_borderline(
    config, requested, size, mode_switching
):
    config.shuffle.mode_switching = mode_switching
    probe = CountingProbe(1.0)
    decision = ShuffleModeController(config.shuffle).resolve(
        requested, size, cache_utilization=probe
    )
    assert probe.calls == 0
    assert decision.reason != "cache-pressure"


@pytest.mark.parametrize("local_threshold", [90_000, 11_000])  # 12k: REMOTE, LOCAL
@pytest.mark.parametrize("utilization, demoted", [(1.0, True), (0.0, False)])
def test_mode_controller_probes_cache_once_for_borderline_edges(
    config, local_threshold, utilization, demoted
):
    config.shuffle.local_threshold = local_threshold
    probe = CountingProbe(utilization)
    decision = ShuffleModeController(config.shuffle).resolve(
        ShuffleScheme.ADAPTIVE, 12_000, cache_utilization=probe
    )
    assert probe.calls == 1
    assert decision.switched is demoted


# ----------------------------------------------------------------------
# Push-based partition merging
# ----------------------------------------------------------------------

def test_partition_merge_collapses_small_edge_storms(config):
    candidates = [(f"s{i}->dst", 1.0 * MiB, 8) for i in range(6)]
    merged, rest = plan_partition_merge(candidates, 16, config.shuffle)
    assert merged is not None and rest == []
    assert merged.edges == tuple(f"s{i}->dst" for i in range(6))
    assert merged.total_bytes == pytest.approx(6 * MiB)
    assert merged.m == 48 and merged.n == 16
    assert merged.size == 48 * 16


def test_partition_merge_leaves_big_edges_per_edge(config):
    candidates = [(f"s{i}->dst", 1.0 * MiB, 8) for i in range(4)]
    candidates.append(("big->dst", 100.0 * MiB, 8))
    merged, rest = plan_partition_merge(candidates, 16, config.shuffle)
    assert merged is not None
    assert "big->dst" not in merged.edges
    assert rest == ["big->dst"]


def test_partition_merge_needs_enough_tiny_edges(config):
    candidates = [(f"s{i}->dst", 1.0 * MiB, 8) for i in range(3)]
    merged, rest = plan_partition_merge(candidates, 16, config.shuffle)
    assert merged is None
    assert rest == [key for key, _, _ in candidates]


def test_partition_merge_rejects_bad_consumer_count(config):
    with pytest.raises(ValueError):
        plan_partition_merge([], 0, config.shuffle)
