"""The config codec: exact JSON round trips and typed rejection of bad input.

Every config class takes ``to_dict``/``from_dict`` from ``repro.codec``.
The round trip is checked on object equality, not dict equality, so a
field the encoding drops (a Bubble memory budget, ``enforce_acyclic``)
fails here.  The fuzz checks that every malformed document raises
``ValueError`` (never ``TypeError``, ``AttributeError`` or ``KeyError``).
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import pkgutil
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import AdmissionPolicy, RuntimeConfig, ServiceConfig, TenantSpec
from repro.baselines import bubble_policy, jetscope_policy, restart_policy, spark_policy
from repro.chaos import PROFILES, Campaign, generate_campaign
from repro.chaos.campaign import Perturbations
from repro.codec import Codec
from repro.core.partition import (
    BubblePartitioner,
    StagePartitioner,
    SwiftPartitioner,
    WholeJobPartitioner,
)
from repro.core.policies import (
    ExecutionPolicy,
    FailureRecovery,
    LaunchModel,
    SubmissionOrder,
    swift_policy,
)
from repro.core.shuffle import ShuffleScheme
from repro.service.policy import PolicyValidationError
from repro.sim.config import (
    AdminConfig,
    CacheWorkerConfig,
    DiskConfig,
    ExecutorConfig,
    NetworkConfig,
    RetryConfig,
    ShuffleConfig,
    SimConfig,
)
from repro.sim.failures import FailureKind, FailurePlan, FailureSpec

CONFIG_CLASSES = (
    RuntimeConfig, ExecutionPolicy, SimConfig, NetworkConfig, DiskConfig,
    CacheWorkerConfig, ShuffleConfig, AdminConfig, ExecutorConfig, RetryConfig,
    FailurePlan, FailureSpec, ServiceConfig, TenantSpec, AdmissionPolicy,
    Perturbations, Campaign,
)

POLICY_BUILDERS = (swift_policy, spark_policy, jetscope_policy, bubble_policy, restart_policy)


def _through_json(obj: Any) -> Any:
    return type(obj).from_dict(json.loads(json.dumps(obj.to_dict())))


def _finite(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


names = st.text(min_size=1, max_size=8)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

partitioners = st.one_of(
    st.builds(SwiftPartitioner, enforce_acyclic=st.booleans()),
    st.just(WholeJobPartitioner()),
    st.just(StagePartitioner()),
    st.builds(BubblePartitioner, memory_budget_bytes=_finite(1.0, 1e15)),
)


@st.composite
def policies(draw: st.DrawFn) -> ExecutionPolicy:
    builder = draw(st.sampled_from(POLICY_BUILDERS))
    overrides: dict[str, Any] = {
        "submission": draw(st.sampled_from(SubmissionOrder)),
        "shuffle": draw(st.sampled_from(ShuffleScheme)),
        "cross_unit_shuffle": draw(st.none() | st.sampled_from(ShuffleScheme)),
        "launch": draw(st.sampled_from(LaunchModel)),
        "recovery": draw(st.sampled_from(FailureRecovery)),
        "pipelined_execution": draw(st.booleans()),
        "gang": draw(st.booleans()),
    }
    if builder is bubble_policy:
        return bubble_policy(memory_budget_bytes=draw(_finite(1.0, 1e15)), **overrides)
    return builder(partitioner=draw(partitioners), **overrides)


@st.composite
def sim_configs(draw: st.DrawFn) -> SimConfig:
    direct = draw(st.integers(1, 10**6))
    base = draw(_finite(0.0, 1.0))
    cold = draw(_finite(0.0, 10.0))
    backoff = draw(_finite(0.0, 5.0))
    config = SimConfig(
        network=NetworkConfig(
            nic_bandwidth=draw(_finite(1.0, 1e11)),
            conn_setup_base=base,
            conn_setup_congested=base + draw(_finite(0.0, 1.0)),
            reference_machines=draw(st.integers(1, 5000)),
            conn_parallelism=draw(st.integers(1, 64)),
            retx_cap=draw(_finite(0.0, 1.0)),
        ),
        disk=DiskConfig(disks_per_machine=draw(st.integers(1, 24))),
        cache_worker=CacheWorkerConfig(memory_capacity=draw(st.integers(1, 2**40))),
        shuffle=ShuffleConfig(
            direct_threshold=direct,
            local_threshold=direct + draw(st.integers(1, 10**6)),
            replication_factor=draw(st.integers(1, 4)),
            mode_switching=draw(st.booleans()),
            merge_max_bytes=draw(_finite(1.0, 1e9)),
        ),
        admin=AdminConfig(
            heartbeat_intervals=tuple(draw(st.lists(
                st.tuples(st.integers(1, 2**62), _finite(0.1, 60.0)),
                min_size=1, max_size=3,
            ))),
            unhealthy_task_failures=draw(st.integers(1, 20)),
        ),
        executor=ExecutorConfig(
            coldstart_mean=cold, coldstart_jitter=draw(_finite(0.0, 1.0)) * cold,
        ),
        retry=RetryConfig(
            max_task_retries=draw(st.integers(1, 10)),
            backoff_base=backoff,
            backoff_cap=backoff + draw(_finite(0.0, 30.0)),
        ),
        task_processing_rate=draw(_finite(1.0, 1e10)),
        seed=draw(st.integers(0, 2**32)),
    )
    config.validate()
    return config


@st.composite
def failure_specs(draw: st.DrawFn) -> FailureSpec:
    at_time = draw(st.none() | _finite(0.0, 1e4))
    return FailureSpec(
        kind=draw(st.sampled_from(FailureKind)),
        stage=draw(st.none() | names),
        task_index=draw(st.none() | st.integers(0, 100)),
        machine_id=draw(st.none() | st.integers(0, 100)),
        at_time=at_time,
        at_fraction=draw(_finite(0.0, 1.0)) if at_time is None else None,
        job_id=draw(st.none() | names),
        duration=draw(st.none() | _finite(0.01, 100.0)),
    )


runtime_configs = st.builds(
    RuntimeConfig,
    n_machines=st.integers(1, 2000),
    executors_per_machine=st.integers(1, 64),
    policy=policies(),
    sim=sim_configs(),
    failure_plan=st.builds(FailurePlan, st.lists(failure_specs(), max_size=4)),
    reference_duration=st.one_of(
        _finite(0.001, 1e6),
        st.dictionaries(names, _finite(0.001, 1e6), max_size=3),
    ),
    audit=st.booleans(),
    audit_strict=st.booleans(),
)

tenant_specs = st.builds(
    TenantSpec,
    name=names,
    max_concurrent_jobs=st.integers(0, 50),
)

service_configs = st.builds(
    ServiceConfig,
    runtime=runtime_configs,
    admission=st.builds(
        AdmissionPolicy,
        max_pending_per_tenant=st.integers(0, 100),
        max_pool_pressure=_finite(0.0, 10.0),
        on_pressure=st.sampled_from(("reject", "queue")),
    ),
    default_tenant=tenant_specs,
)

campaigns = st.builds(
    Campaign,
    seed=st.integers(0, 10**6),
    workload=names,
    profile=names,
    events=st.lists(failure_specs(), max_size=4),
    perturbations=st.builds(
        Perturbations, _finite(0.01, 1.0), _finite(0.01, 1.0),
    ),
    shrunk=st.booleans(),
)

any_config = st.one_of(runtime_configs, service_configs, campaigns)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------

def test_bubble_budget_and_acyclic_flag_survive_the_round_trip():
    bubble = RuntimeConfig(policy=bubble_policy(memory_budget_bytes=1e9))
    assert _through_json(bubble) == bubble
    assert _through_json(bubble).policy.partitioner.memory_budget_bytes == 1e9
    raw = swift_policy(partitioner=SwiftPartitioner(enforce_acyclic=False))
    assert _through_json(raw).partitioner.enforce_acyclic is False


@settings(max_examples=60, deadline=None)
@given(runtime_configs)
def test_runtime_config_round_trips_through_json(config):
    assert _through_json(config) == config
    for part in (config.policy, config.sim, config.failure_plan, *config.failure_plan.specs,
                 config.sim.network, config.sim.shuffle, config.sim.admin, config.sim.retry):
        assert _through_json(part) == part


@settings(max_examples=30, deadline=None)
@given(service_configs)
def test_service_config_round_trips_through_json(config):
    assert _through_json(config) == config
    for part in (config.admission, config.default_tenant):
        assert _through_json(part) == part


@settings(max_examples=40, deadline=None)
@given(campaigns)
def test_campaign_round_trips_through_json(campaign):
    assert _through_json(campaign) == campaign
    for part in (*campaign.events, campaign.perturbations):
        assert _through_json(part) == part


def test_sim_config_copy_is_an_equal_deep_copy():
    config = SimConfig(seed=5)
    config.admin.heartbeat_intervals = ((10, 1.0),)
    clone = config.copy()
    assert clone == config and clone.admin is not config.admin


def test_campaign_save_bytes_are_pinned(tmp_path):
    path = tmp_path / "campaign.json"
    generate_campaign(10, "terasort", PROFILES["standard"], 8).save(str(path))
    assert path.read_text(encoding="utf-8") == PINNED_CAMPAIGN


PINNED_CAMPAIGN = """\
{
  "events": [
    {
      "at_fraction": 0.2382,
      "at_time": null,
      "duration": null,
      "job_id": null,
      "kind": "task_crash",
      "machine_id": null,
      "stage": null,
      "task_index": null
    },
    {
      "at_fraction": 0.6067,
      "at_time": null,
      "duration": 12.049,
      "job_id": null,
      "kind": "machine_quarantine",
      "machine_id": 2,
      "stage": null,
      "task_index": null
    },
    {
      "at_fraction": 0.747,
      "at_time": null,
      "duration": null,
      "job_id": null,
      "kind": "process_restart",
      "machine_id": null,
      "stage": null,
      "task_index": null
    }
  ],
  "perturbations": {
    "cache_factor": 0.25,
    "network_factor": 0.25
  },
  "profile": "standard",
  "seed": 10,
  "shrunk": false,
  "workload": "terasort"
}
"""


@pytest.mark.parametrize("key, value, message", [
    ("kind", "admin_failover", r"Campaign\.events\[1\]\.kind: unknown FailureKind 'admin_failover'"),
    ("failover_seconds", 3.0, r"Campaign\.events\[1\]: unknown field\(s\) \['failover_seconds'\]"),
])
def test_bad_campaign_event_names_its_field(key, value, message):
    doc = json.loads(PINNED_CAMPAIGN)
    doc["events"][1][key] = value
    with pytest.raises(ValueError, match=message):
        Campaign.from_dict(doc)


def test_config_classes_are_every_codec_dataclass():
    """The fuzz list is every concrete ``Codec`` dataclass under ``repro``,
    so a class cannot be added to or deleted from the package without the
    fuzz following."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    found, todo = set(), [Codec]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if dataclasses.is_dataclass(cls) and cls.__module__.startswith("repro."):
            found.add(cls)
    assert set(CONFIG_CLASSES) == found


# ----------------------------------------------------------------------
# Malformed payloads
# ----------------------------------------------------------------------

#: Fields whose value is a free-form mapping (any key is valid there).
FREE_FORM = {"reference_duration"}


def _nodes(doc: Any, path: tuple = ()) -> list[tuple[tuple, Any]]:
    """Every ``(path, value)`` in a document, the root included; free-form
    mappings are listed but not entered."""
    out = [(path, doc)]
    if path and path[-1] in FREE_FORM:
        return out
    if isinstance(doc, dict):
        for key, value in doc.items():
            out.extend(_nodes(value, path + (key,)))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            out.extend(_nodes(value, path + (i,)))
    return out


def _set(doc: Any, path: tuple, value: Any) -> None:
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _wrong_values(value: Any) -> list[Any]:
    """Values of a type no field holding ``value`` accepts."""
    if isinstance(value, bool):
        return ["true", 1, []]
    if isinstance(value, (int, float)):
        return [True, "1", []]
    if isinstance(value, str):
        return [1, False, []]
    return [[]]  # None in an Optional scalar field


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("payload", [None, 1, 2.5, "x", True, [], [{}]], ids=repr)
def test_non_mapping_payloads_raise_value_error(cls, payload):
    with pytest.raises(ValueError, match="expected a mapping"):
        cls.from_dict(payload)


@settings(max_examples=80, deadline=None)
@given(any_config, st.data())
def test_unknown_key_at_any_depth_raises_value_error(config, data):
    doc = json.loads(json.dumps(config.to_dict()))
    mappings = [
        path for path, node in _nodes(doc)
        if isinstance(node, dict) and not (path and path[-1] in FREE_FORM)
    ]
    path = data.draw(st.sampled_from(mappings))
    target = doc
    for key in path:
        target = target[key]
    target["no_such_field"] = 1
    with pytest.raises(ValueError, match="no_such_field"):
        type(config).from_dict(doc)


@settings(max_examples=120, deadline=None)
@given(any_config, st.data())
def test_wrong_scalar_type_raises_value_error(config, data):
    doc = json.loads(json.dumps(config.to_dict()))
    leaves = [
        (path, node) for path, node in _nodes(doc)
        if path and not isinstance(node, (dict, list))
    ]
    path, value = data.draw(st.sampled_from(leaves))
    _set(doc, path, data.draw(st.sampled_from(_wrong_values(value))))
    with pytest.raises(ValueError):
        type(config).from_dict(doc)


@pytest.mark.parametrize("path, value", [
    (("policy", "submission"), "sometimes"),
    (("policy", "shuffle"), "carrier_pigeon"),
    (("policy", "cross_unit_shuffle"), "ADAPTIVE"),
    (("policy", "launch"), 1),
    (("policy", "recovery"), None),
    (("failure_plan", "specs", 0, "kind"), "meteor"),
])
def test_unknown_enum_value_raises_value_error(path, value):
    config = RuntimeConfig(failure_plan=FailurePlan([FailureSpec(at_time=1.0)]))
    doc = config.to_dict()
    _set(doc, path, value)
    with pytest.raises(ValueError):
        RuntimeConfig.from_dict(doc)


@pytest.mark.parametrize("partitioner", [
    "swift", {}, {"name": "nope"}, {"name": 3}, {"name": "stage"},
    {"name": "bubble", "memory_budget_bytes": -1.0},
    {"name": "swift", "memory_budget_bytes": 1.0},
    {"name": "swift", "enforce_acyclic": "no"},
])
def test_bad_partitioner_raises_value_error(partitioner):
    with pytest.raises(ValueError, match="partitioner|memory_budget_bytes"):
        ExecutionPolicy.from_dict({"partitioner": partitioner})


def test_out_of_range_number_raises_value_error():
    with pytest.raises(ValueError, match="out of range"):
        RuntimeConfig.from_dict({"reference_duration": 10**400})


def test_service_payload_errors_are_policy_validation_errors():
    with pytest.raises(PolicyValidationError):
        TenantSpec.from_dict({"max_concurrent_jobs": 1})  # no name
    with pytest.raises(PolicyValidationError):
        ServiceConfig.from_dict({"default_tenant": {"name": "t", "max_concurrent_jobs": "8"}})
    with pytest.raises(PolicyValidationError):
        ServiceConfig.from_dict({"admission": {"max_pool_pressure": float("nan")}})
