"""The DiAS controller's outputs are pinned across a scenario matrix.

Linear jobs run under :class:`~repro.core.dias.DiASSimulation` and DAG jobs
under :class:`~repro.dag.simulation.DagSimulation`.  Each cell below runs one
configuration and hashes what it produced: per-job records (or, for streaming
metrics, the per-class aggregates), the energy split, sprinted seconds,
evictions and fault counters, the DAG rows and critical-path-stretch
accumulators of DAG runs, and -- where a cell turns telemetry on -- the full
event stream with span tracing and periodic sampling.

The sha256 digests in ``DIGESTS`` were computed at commit ``e5ddcce``, while
``DagSimulation`` was still a separate copy of the linear controller; any
refactoring of the controllers must leave every one of them unchanged.  The
cells in ``FAULT_CELLS`` were added later, with digests computed at commit
``e90ad5b``, while ``JobExecution`` and ``DagExecution`` still each carried
their own slot machinery: they drive linear retries, speculation and give-ups,
DAG stragglers, and sprints on runs that execute task by task.  (A
dependency upgrade that alters a random stream would change them too; then
recompute them on a commit whose controller code is known-good.)
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.core.dias import DiASSimulation, DropRatioDecision
from repro.core.policies import SchedulingPolicy
from repro.dag.simulation import DagSimulation, DagSimulationResult
from repro.engine.cluster import Cluster
from repro.experiments.figures import limited_sprint_config
from repro.faults.checkpoint import load_checkpoint
from repro.fleet.simulation import FleetSimulation
from repro.telemetry import RingBufferSink, TelemetryHub
from repro.traces.formats import DAG_JSONL
from repro.traces.replay import ReplaySource
from repro.traces.synth import synthesize_trace
from repro.workloads import scenarios as scenario_module
from repro.workloads.scenarios import FleetScenario


def _fresh(cluster: Cluster) -> Cluster:
    # Clusters carry run state (sprint mode, crashed workers): one per run.
    return Cluster(config=cluster.config, dvfs=cluster.dvfs, power_model=cluster.power_model)


def _policies(scenario) -> Dict[str, SchedulingPolicy]:
    priorities = scenario.priorities
    low = min(priorities)
    ratios = {p: (0.2 if p == low else 0.0) for p in priorities}
    sprint = dataclasses.replace(
        limited_sprint_config(), sprint_priorities=frozenset({max(priorities)})
    )
    return {
        "P": SchedulingPolicy.preemptive_priority(),
        "NP": SchedulingPolicy.non_preemptive_priority(),
        "DA(0/20)": SchedulingPolicy.differential_approximation(ratios, name="DA(0/20)"),
        "NPS": SchedulingPolicy.sprinted_non_preemptive(sprint),
        "DiAS-limited": SchedulingPolicy.dias(ratios, sprint=sprint, name="DiAS-limited"),
    }


def _traced_hub() -> Tuple[TelemetryHub, RingBufferSink]:
    hub = TelemetryHub(sample_interval=5.0, tracing=True)
    return hub, hub.add_sink(RingBufferSink(capacity=1 << 22))


def _events(sink: RingBufferSink) -> List[Dict[str, Any]]:
    assert len(sink) < sink.capacity  # nothing was overwritten
    return sink.events


def _payload(result) -> List[Any]:
    metrics = result.metrics
    if metrics.streaming:
        per_job: Any = sorted(metrics.all_class_metrics().items())
    else:
        per_job = [dataclasses.astuple(r) for r in metrics.records]
    payload = [
        per_job,
        metrics.busy_time,
        metrics.wasted_time,
        result.duration,
        result.completed_jobs,
        result.total_energy_joules,
        result.idle_energy_joules,
        result.busy_energy_joules,
        result.sprint_energy_joules,
        result.sprinted_seconds,
        result.evictions,
        sorted(result.fault_counts.items()),
    ]
    if isinstance(result, DagSimulationResult):
        payload += [
            result.scheduler_name,
            result.dag_rows,
            result.cp_stretch_sum,
            result.cp_stretch_count,
        ]
    return payload


# --------------------------------------------------------------- linear cells
LINEAR_SCENARIOS = {
    "reference": lambda: scenario_module.reference_two_priority_scenario(num_jobs=40),
    "three-priority": lambda: scenario_module.three_priority_scenario(num_jobs=40),
    "sprinting": lambda: scenario_module.sprinting_scenario(num_jobs=30),
}


def _linear(scenario_name, policy_name, seed, traced=False, faults=None, provider=None):
    def cell(_tmp_path) -> List[Any]:
        scenario = LINEAR_SCENARIOS[scenario_name]()
        hub, sink = _traced_hub() if traced else (None, None)
        kwargs = {"telemetry": hub} if hub is not None else {}
        simulation = DiASSimulation(
            policy=_policies(scenario)[policy_name],
            jobs=scenario.generate_trace(seed=seed),
            cluster=_fresh(scenario.cluster),
            seed=seed,
            faults=faults,
            drop_ratio_provider=provider,
            **kwargs,
        )
        payload = _payload(simulation.run())
        if sink is not None:
            payload.append(_events(sink))
        return payload

    return cell


def _low_drop_provider(job, now, metrics) -> DropRatioDecision:
    # Deterministic but state-dependent: drop more once the class backs up.
    if job.priority == scenario_module.LOW:
        return DropRatioDecision(0.3 if metrics.job_count % 3 == 0 else 0.1, 0.0)
    return DropRatioDecision(0.0)


# ------------------------------------------------------------------ DAG cells
DAG_SCENARIOS = {
    "layered": lambda: scenario_module.dag_layered_scenario(num_jobs=16),
    "fork-join": lambda: scenario_module.dag_fork_join_scenario(num_jobs=16),
    "triangle-count": lambda: scenario_module.dag_triangle_count_scenario(num_jobs=16),
}


def _dag(scenario_name, scheduler, policy_name, seed=0, traced=False, faults=None,
         slack_biased=False):
    def cell(_tmp_path) -> List[Any]:
        scenario = DAG_SCENARIOS[scenario_name]()
        hub, sink = _traced_hub() if traced else (None, None)
        kwargs = {"telemetry": hub} if hub is not None else {}
        simulation = DagSimulation(
            policy=_policies(scenario)[policy_name],
            jobs=scenario.generate_trace(seed=seed),
            scheduler=scheduler,
            cluster=_fresh(scenario.cluster),
            seed=seed,
            slack_biased=slack_biased,
            faults=faults,
            **kwargs,
        )
        payload = _payload(simulation.run())
        if sink is not None:
            payload.append(_events(sink))
        return payload

    return cell


def _dag_streaming_replay(tmp_path) -> List[Any]:
    path = str(tmp_path / "dag.jsonl")
    scenario = scenario_module.dag_layered_scenario(num_jobs=24)
    synthesize_trace(path, scenario, num_jobs=24, seed=5, fmt=DAG_JSONL)
    hub, sink = _traced_hub()
    simulation = DagSimulation(
        policy=_policies(scenario)["DiAS-limited"],
        job_source=ReplaySource(path, mode="dag"),
        scheduler="critical_path_first",
        seed=5,
        telemetry=hub,
        streaming_metrics=True,
    )
    payload = _payload(simulation.run())
    payload.append(_events(sink))
    return payload


# ---------------------------------------------------------------- fleet cells
def _fleet_payload(result) -> List[Any]:
    return [
        [_payload(cluster) for cluster in result.cluster_results],
        result.duration,
        result.dispatch_counts,
    ]


def _fleet(_tmp_path) -> List[Any]:
    scenario = FleetScenario(
        base=scenario_module.three_priority_scenario(num_jobs=40), num_clusters=2
    )
    fleet = FleetSimulation(
        policy=_policies(scenario.base)["DiAS-limited"],
        jobs=scenario.generate_trace(seed=3),
        clusters=scenario.make_clusters(),
        dispatcher="jsq",
        seed=3,
    )
    return _fleet_payload(fleet.run())


def _fleet_checkpoint_resume(tmp_path) -> List[Any]:
    scenario = FleetScenario(
        base=scenario_module.reference_two_priority_scenario(num_jobs=40).with_utilisation(0.4),
        num_clusters=2,
    )

    def build(**kwargs) -> FleetSimulation:
        return FleetSimulation(
            policy=SchedulingPolicy.preemptive_priority(),
            jobs=scenario.generate_trace(seed=11),
            clusters=scenario.make_clusters(),
            dispatcher="round_robin",
            seed=11,
            faults="crash:mttf=400,repair=40;taskfail:p=0.05,retries=2",
            **kwargs,
        )

    path = str(tmp_path / "fleet.ckpt")
    build(checkpoint_every=50.0, checkpoint_path=path).run()
    resumed = build()
    resumed.restore(load_checkpoint(path))
    return _fleet_payload(resumed.run())


# ------------------------------------------------------------------ the matrix
CELLS: Dict[str, Callable[[Any], List[Any]]] = {}
for _scenario in LINEAR_SCENARIOS:
    for _policy in ("P", "NP", "DA(0/20)", "NPS", "DiAS-limited"):
        for _seed in (0, 1):
            CELLS[f"linear/{_scenario}/{_policy}/seed{_seed}"] = _linear(
                _scenario, _policy, _seed
            )
for _scenario in DAG_SCENARIOS:
    for _scheduler in ("fifo", "critical_path_first"):
        for _policy in ("P", "DA(0/20)", "DiAS-limited"):
            CELLS[f"dag/{_scenario}/{_scheduler}/{_policy}"] = _dag(
                _scenario, _scheduler, _policy
            )
CELLS.update(
    {
        "dag/layered/critical_path_first/DA(0/20)/slack-biased": _dag(
            "layered", "critical_path_first", "DA(0/20)", slack_biased=True
        ),
        "linear/provider/traced": _linear(
            "three-priority", "DA(0/20)", 0, traced=True, provider=_low_drop_provider
        ),
        "linear/reference/P/traced": _linear("reference", "P", 0, traced=True),
        "linear/sprinting/DiAS-limited/traced": _linear(
            "sprinting", "DiAS-limited", 0, traced=True
        ),
        "linear/crash-restart/traced": _linear(
            "reference", "NP", 2, traced=True,
            faults="crash:mttf=200,repair=30,recovery=restart",
        ),
        "dag/layered/critical_path_first/P/traced": _dag(
            "layered", "critical_path_first", "P", traced=True
        ),
        "dag/fork-join/fifo/DiAS-limited/traced": _dag(
            "fork-join", "fifo", "DiAS-limited", traced=True
        ),
        "dag/crash-restart/traced": _dag(
            "fork-join", "critical_path_first", "NP", seed=3, traced=True,
            faults="crash:mttf=600,repair=30,recovery=restart",
        ),
        "dag/crash-retries/traced": _dag(
            "fork-join", "critical_path_first", "NP", seed=3, traced=True,
            faults="crash:mttf=300,repair=40;taskfail:p=0.05,retries=3,backoff=0.5",
        ),
        "dag/retries-exhausted/traced": _dag(
            "fork-join", "fifo", "DA(0/20)", seed=1, traced=True,
            faults="taskfail:p=0.02,retries=0",
        ),
        "dag/replay/streaming": _dag_streaming_replay,
        "fleet/2-cluster/jsq": _fleet,
        "fleet/checkpoint-resumed": _fleet_checkpoint_resume,
    }
)

LINEAR_FAULTS = (
    "crash:mttf=300,repair=30;stragglers:p=0.1,slowdown=3,speculate=1.5;"
    "taskfail:p=0.05,retries=2"
)

#: Fault cells -> the counters each must record as positive ("sprinted"
#: stands for sprinted seconds), so they keep exercising what they pin.
FAULT_CELLS: Dict[str, Tuple[str, ...]] = {
    "linear/faults/DiAS-limited/traced": ("crashes", "retries", "speculations", "sprinted"),
    "linear/faults/DiAS-limited": ("crashes", "retries", "speculations", "sprinted"),
    "linear/retries-exhausted/traced": ("task_failures", "job_restarts"),
    "dag/faults/DiAS-limited/traced": ("stragglers", "retries", "sprinted"),
}
CELLS.update(
    {
        "linear/faults/DiAS-limited/traced": _linear(
            "sprinting", "DiAS-limited", 0, traced=True, faults=LINEAR_FAULTS
        ),
        "linear/faults/DiAS-limited": _linear(
            "sprinting", "DiAS-limited", 0, faults=LINEAR_FAULTS
        ),
        "linear/retries-exhausted/traced": _linear(
            "reference", "DiAS-limited", 0, traced=True,
            faults="taskfail:p=0.02,retries=0",
        ),
        "dag/faults/DiAS-limited/traced": _dag(
            "layered", "critical_path_first", "DiAS-limited", traced=True,
            faults="stragglers:p=0.1,slowdown=3;taskfail:p=0.05,retries=2",
        ),
    }
)


def digest(name: str, tmp_path) -> str:
    """sha256 of the repr of one cell's payload."""
    return hashlib.sha256(repr(CELLS[name](tmp_path)).encode()).hexdigest()


DIGESTS: Dict[str, str] = {
    "dag/crash-restart/traced": (
        "8d2f5c828378cfd97835a5388b9fd6bc25faebefdc9b2ade1d6449ef1d27d7ae"
    ),
    "dag/crash-retries/traced": (
        "1a00b8b6caf84e19ce993ed788487d06256aa75b1836bcb1f4ecac3fc90264ce"
    ),
    "dag/faults/DiAS-limited/traced": (
        "4950e2a23c2cdf38fd078fab2dd082e99605693f71879b33b8c225fb76775105"
    ),
    "dag/fork-join/critical_path_first/DA(0/20)": (
        "6782ea3d22eafbc65c0d1ef7272169684f849a7c79b4f6cf23c3fc0ea0ccb3b9"
    ),
    "dag/fork-join/critical_path_first/DiAS-limited": (
        "c0bcb22e9c1b529c8e627f875c9f8382b3053610d0a3e6cba44bb8aed5390478"
    ),
    "dag/fork-join/critical_path_first/P": (
        "3274e206d5e5d7eac9d35f10978029bb6a3f25fa05b54e3eee4d4f0451628cac"
    ),
    "dag/fork-join/fifo/DA(0/20)": (
        "f7af34c01cffea36a09b87b5a5982dd1e9dd2e81d53df6427fd8b536ab0e487a"
    ),
    "dag/fork-join/fifo/DiAS-limited": (
        "05f42aaf622e5e26e4c3e648a45cdc49643c19cfc6e064f53e0de2173cea130a"
    ),
    "dag/fork-join/fifo/DiAS-limited/traced": (
        "03b6bffa33f3fc0cc67446ff3c043ecffc224ce6fc5e0529ac2ec77e9c0ab761"
    ),
    "dag/fork-join/fifo/P": (
        "b615406241c45e11b083f87a9eb40a3987bca9bc0843fad91ad6876acc34c111"
    ),
    "dag/layered/critical_path_first/DA(0/20)": (
        "dce4c0bb04dbd7659f51764ad671cd276c0f8188d6f50750fd56bcab21fcb24f"
    ),
    "dag/layered/critical_path_first/DA(0/20)/slack-biased": (
        "2c06843bc5b036453c375f4968135b2d0a44c5eb4e8ab14744be11eebade0cee"
    ),
    "dag/layered/critical_path_first/DiAS-limited": (
        "fed14bde5815fa55b112311edc799bf75374e0fcfd732da168fb6f8fed9fba64"
    ),
    "dag/layered/critical_path_first/P": (
        "f649e1688499b5629c29530b7ac98aec6d39b1c3d834bd36e554337b29be1134"
    ),
    "dag/layered/critical_path_first/P/traced": (
        "6e1d2e93b9512d69d34bbfea20368e3a383f3b6fb0fac138cc5b8f070ee198a7"
    ),
    "dag/layered/fifo/DA(0/20)": (
        "b76914213511bafc502fe0d5860a04876ceff253e8b7545dedbac16b1ab86334"
    ),
    "dag/layered/fifo/DiAS-limited": (
        "b600beca55e6931d94ac118613c787d79df077a38d1e5c2fbf61fce0362e8b5f"
    ),
    "dag/layered/fifo/P": (
        "0a299f9bf9be60a39d26634b8442c49f876f3fecf1b2c45ed9403d7cd85c3adc"
    ),
    "dag/replay/streaming": (
        "3e594f173e2a51942aa02073075c969801d74e7dbaa696ef7333e797b803921f"
    ),
    "dag/retries-exhausted/traced": (
        "9fc251a53e12063a8be94d94ad1927d9c2b495b93549449adc189b4ff0db2434"
    ),
    "dag/triangle-count/critical_path_first/DA(0/20)": (
        "ed66a33babf6a750489feb63d26e895288289d75fc06e0408dd633d6b905a940"
    ),
    "dag/triangle-count/critical_path_first/DiAS-limited": (
        "cda4d2f771d47a56c13502819ab70864aa9960e3e5abc686a3b6c8933ad684d4"
    ),
    "dag/triangle-count/critical_path_first/P": (
        "dd758317532a5e29c565db344cbb2484a565da01647598587240aaf3860e5848"
    ),
    "dag/triangle-count/fifo/DA(0/20)": (
        "9928c0491bc9a81ae3cfb776d595f12f5815c8071c8da6417aa38e728a18d4c5"
    ),
    "dag/triangle-count/fifo/DiAS-limited": (
        "353a1db5a961ebbfaf53b3e69f11dd03c6f810f3994c6ec2287ba803c5473214"
    ),
    "dag/triangle-count/fifo/P": (
        "b21542053498f4d4be3edea1d51e631ebb2aeb6c4f3ee809c431e03f55f024b5"
    ),
    "fleet/2-cluster/jsq": (
        "dbd36c270a3c4fee247d91b2cb9dd9b96fac7e2e02590892d3d7c509b234a984"
    ),
    "fleet/checkpoint-resumed": (
        "d5fcb1133b004d5a18c7516fef7dcf1fc059205296d0f2c98b7e6d27556a491e"
    ),
    "linear/crash-restart/traced": (
        "ffa8e94ae0a74304ae329ed220eaeea2fc1289a8d0f3a29c6c4c9d120c7d3d5d"
    ),
    "linear/faults/DiAS-limited": (
        "282c164d587d906d7bb3ea7a2180341a4beefe6a56c61c388150e90711e98cbd"
    ),
    "linear/faults/DiAS-limited/traced": (
        "af983c9a02f8ed651e2bd7eeddbc29bb2664701796d28eaad428530854c260bb"
    ),
    "linear/provider/traced": (
        "7605224a28f87b6ae08e969b94f255f3f84f06a2ae3c52f4c7130b138c7ba7ce"
    ),
    "linear/reference/DA(0/20)/seed0": (
        "0c78caf4f65b5474b5646aeb329cb269fd5a2726ae24ce52ecf56933bb09850b"
    ),
    "linear/reference/DA(0/20)/seed1": (
        "063b164ab6d337982e392b15b7dce33ad4125dc0157e2ced8f2bd2f9e246759f"
    ),
    "linear/reference/DiAS-limited/seed0": (
        "0c78caf4f65b5474b5646aeb329cb269fd5a2726ae24ce52ecf56933bb09850b"
    ),
    "linear/reference/DiAS-limited/seed1": (
        "063b164ab6d337982e392b15b7dce33ad4125dc0157e2ced8f2bd2f9e246759f"
    ),
    "linear/reference/NP/seed0": (
        "c6f5c7ce7b1f6514baee56e0a49fb8ae0395b3be84eddc45cf2d41dce650dbd7"
    ),
    "linear/reference/NP/seed1": (
        "a756be65ad271a59731e5262ddc5102e0baee13502b74d12d165da4eb7524d10"
    ),
    "linear/reference/NPS/seed0": (
        "c6f5c7ce7b1f6514baee56e0a49fb8ae0395b3be84eddc45cf2d41dce650dbd7"
    ),
    "linear/reference/NPS/seed1": (
        "a756be65ad271a59731e5262ddc5102e0baee13502b74d12d165da4eb7524d10"
    ),
    "linear/reference/P/seed0": (
        "5ecec4d7c4513cd2c34d612cf4aeb8436b267b367faea59c4cbf2c83e6449fdd"
    ),
    "linear/reference/P/seed1": (
        "673df5e1c4674fc719a98940f44971933a702a4d0d0d19a3a5cac02889ef02ba"
    ),
    "linear/reference/P/traced": (
        "79e9b0d10710ea6b2b0fa4c8f3089c2a9a9506468b1b5d669eafb480297dc8d9"
    ),
    "linear/retries-exhausted/traced": (
        "0be4d5d3e19d0b00a3bfaac8e7fc44834fc3fa2041c9b95424e825d4473170c7"
    ),
    "linear/sprinting/DA(0/20)/seed0": (
        "2aac1ee006d03ff2f350a85fe8e4b779bf8189e605af0563383cbd035017e294"
    ),
    "linear/sprinting/DA(0/20)/seed1": (
        "34bb90d07a6b19c7568c70027f69319172dc1462ae3bf4215f391b9e288c48e5"
    ),
    "linear/sprinting/DiAS-limited/seed0": (
        "93d5d43cf5ec2e09013dc3a556e6d62bac7528808e5ce3fd69fd7126bbbe09f2"
    ),
    "linear/sprinting/DiAS-limited/seed1": (
        "36aba5c62dc67df72de90e7970dc9d3cddc78a1900ace2595a9243e934ca97af"
    ),
    "linear/sprinting/DiAS-limited/traced": (
        "f392e61f0204e524d2a055cc2c0719490d926370a915cc3542d77df4abdd202b"
    ),
    "linear/sprinting/NP/seed0": (
        "79ac14d7e952da996d7d1f195f0e85248b31f075767281a72329116ef92b64eb"
    ),
    "linear/sprinting/NP/seed1": (
        "d470352d5d9581a41b6461a4562ad2be0ba56885c1f17d6670bf95dde4b2938d"
    ),
    "linear/sprinting/NPS/seed0": (
        "52aaaa81770c3cf9238ff87405f8610a4fa6c25aa965b36e3467b69cd38eb4ed"
    ),
    "linear/sprinting/NPS/seed1": (
        "c75429c37616b8f235d3606365a0ad69aebea947315547e32cd2b47d60fdfecf"
    ),
    "linear/sprinting/P/seed0": (
        "9e1b125a7fcfc83bf90528509b958a5f28a91de057dcdfcbdb4aaf99372e8822"
    ),
    "linear/sprinting/P/seed1": (
        "6ccdca27255bc97ec159779cf79ba39be2142550508ddeaf6f338331dfdd462b"
    ),
    "linear/three-priority/DA(0/20)/seed0": (
        "13cc6ab9f84801c36db0aebc58d3adc7990201e70eede9e66d58201ffaa74084"
    ),
    "linear/three-priority/DA(0/20)/seed1": (
        "a01123e1b5a6f53134d4fbb925a598f92043cdff354f326c13f8ddf667965369"
    ),
    "linear/three-priority/DiAS-limited/seed0": (
        "13cc6ab9f84801c36db0aebc58d3adc7990201e70eede9e66d58201ffaa74084"
    ),
    "linear/three-priority/DiAS-limited/seed1": (
        "a01123e1b5a6f53134d4fbb925a598f92043cdff354f326c13f8ddf667965369"
    ),
    "linear/three-priority/NP/seed0": (
        "5f9a5902357f5ca177b8c018c9c11c25d53cc5a5b81914d0d16cb0ff8434d40f"
    ),
    "linear/three-priority/NP/seed1": (
        "94a269fff88e9ebbea9a558569eeb6aac15f5c0ead3d432248fbbcb216e841bd"
    ),
    "linear/three-priority/NPS/seed0": (
        "5f9a5902357f5ca177b8c018c9c11c25d53cc5a5b81914d0d16cb0ff8434d40f"
    ),
    "linear/three-priority/NPS/seed1": (
        "94a269fff88e9ebbea9a558569eeb6aac15f5c0ead3d432248fbbcb216e841bd"
    ),
    "linear/three-priority/P/seed0": (
        "f5463bc857c95fdf857994cbc5ce864a5a120c48ab4f4a547404ea4b0125dbb5"
    ),
    "linear/three-priority/P/seed1": (
        "1bd3f512999c4153d601f7c3313e0540618f4f78ac43f63615a563d63355348f"
    ),
}


def test_every_cell_has_a_digest():
    assert sorted(DIGESTS) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_controller_outputs_are_unchanged(name, tmp_path):
    assert digest(name, tmp_path) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(FAULT_CELLS))
def test_fault_cells_engage_what_they_pin(name, tmp_path):
    payload = CELLS[name](tmp_path)
    counts = dict(payload[11], sprinted=payload[9])
    assert all(counts[counter] > 0 for counter in FAULT_CELLS[name]), counts
