"""The declarative experiment-axis layer (repro.core.spec).

Two contracts are pinned here:

* **Byte-identity** — every label and cache key the pre-spec code produced is
  reproduced byte-for-byte by the axis folds, against a corpus frozen from
  the pre-refactor implementation (``tests/data/spec_corpus.json``).
* **No aliasing** — distinct cache-participating axis choices always occupy
  distinct cache entries.
"""

import json
from dataclasses import replace
from pathlib import Path

from repro.core.spec import (AXES, ExperimentSpec, axes_for,
                             fold_network_label, render_axes_table)
from repro.experiments.run_cache import RunCache, code_digest
from repro.experiments.suite import EvaluationSuite
from repro.hmc.config import HMCNetworkConfig, default_network
from repro.system.config import SystemKind, make_system_config

CORPUS = Path(__file__).parent / "data" / "spec_corpus.json"

#: Corpus entries retired with the axes they exercised: the sharded
#: execution backend and its ``%sharded`` label fold, the open-loop traffic
#: axes and their params-dict entries, the ``summary`` axis and its
#: non-default ``summary`` key entry, and the ``routing`` axis and its
#: ``-resilient``/``-adaptive`` label fragments are gone.  They were removed
#: from the frozen file by name, never regenerated; ``combo`` had earlier
#: lost only its traffic and summary inputs and the key entries they
#: produced, and went with the routing axis because its label carried the
#: ``-resilient`` fragment.
RETIRED = {"sharded-default", "sharded3", "mesh-sharded4", "open-defaults",
           "open-tuned", "open-sized", "sketch", "sketch-open",
           "resilient", "adaptive", "adaptive-f0.5s3",
           "mesh16c4-resilient-f10s7", "combo"}


# ------------------------------------------------------------ frozen corpus
def _build_config(inputs):
    """Rebuild the corpus entry's SystemConfig the way the generator did."""
    if "net" in inputs:
        # Off-axis deviation entry: a link latency change must fall through
        # to the digest suffix, which only the config itself can compute.
        link = default_network().link
        net_kwargs = dict(inputs["net"])
        latency = net_kwargs.pop("link_latency_cycles", None)
        net = replace(default_network(), **net_kwargs,
                      link=replace(link, latency_cycles=latency)
                      if latency else link)
        return make_system_config(inputs["kind"]).with_network(net)
    return make_system_config(inputs["kind"], **inputs["config_kwargs"])


def test_frozen_corpus_labels_and_cache_keys_byte_identical():
    """Every pre-refactor label and cache key reproduces byte-for-byte."""
    corpus = json.loads(CORPUS.read_text())
    assert len(corpus) == 12
    assert RETIRED.isdisjoint(entry["name"] for entry in corpus)
    for entry in corpus:
        inputs = entry["inputs"]
        config = _build_config(inputs)
        assert config.label == entry["config_label"], entry["name"]
        if "net" in inputs:
            assert config.hmc_net.label == entry["network_label"], entry["name"]
            continue
        net_label = config.hmc_net.label if config.kind.uses_hmc else None
        assert net_label == entry["network_label"], entry["name"]
        key = RunCache.make_key(scale=inputs["scale"],
                                workload=inputs["workload"],
                                params=inputs["params"],
                                config_label=config.label, profile="scaled",
                                num_threads=inputs["num_threads"])
        key.pop("digest")
        assert key == entry["cache_key_sans_digest"], entry["name"]


# ------------------------------------------------------------- fold rules
def test_network_fold_matches_config_label():
    net = HMCNetworkConfig()
    assert fold_network_label({
        "topology": net.topology, "num_cubes": net.num_cubes,
        "num_controllers": net.num_controllers,
        "failure_rate": net.failure_rate, "failure_seed": net.failure_seed,
        "link_bandwidth": net.link.bandwidth_bytes_per_cycle,
    }) == "dragonfly16c4" == net.label


def test_axis_defaults_match_authoritative_constructors():
    """The registry's default literals agree with the objects they describe."""
    net = HMCNetworkConfig()
    assert AXES["topology"].default == net.topology
    assert AXES["num_cubes"].default == net.num_cubes
    assert AXES["num_controllers"].default == net.num_controllers
    assert AXES["failure_rate"].default == net.failure_rate
    assert AXES["failure_seed"].default == net.failure_seed
    assert AXES["link_bandwidth"].default == net.link.bandwidth_bytes_per_cycle


def test_every_axis_default_is_a_valid_choice():
    for axis in AXES.values():
        if axis.choices is not None:
            assert axis.default in axis.choices(), axis.name


# ----------------------------------------------------------------- no aliasing
def _cell_key(spec):
    """The cache key of one (mac, HMC) suite cell under ``spec``."""
    config = make_system_config("HMC", **spec.network_overrides())
    return RunCache.make_key(scale="tiny", workload="mac",
                             params={"array_elements": 1024},
                             config_label=config.label, profile="scaled",
                             num_threads=4)


def test_distinct_cache_participating_specs_never_alias():
    variants = [
        ExperimentSpec(),
        ExperimentSpec(topology="mesh"),
        ExperimentSpec(topology="torus"),
        ExperimentSpec(num_controllers=2),
        ExperimentSpec(link_bandwidth=25.0),
        ExperimentSpec(failure_rate=10.0),
        ExperimentSpec(failure_rate=10.0, failure_seed=7),
        ExperimentSpec(topology="mesh", failure_rate=10.0, failure_seed=7),
        ExperimentSpec(topology="mesh", failure_rate=10.0, failure_seed=7,
                       link_bandwidth=25.0),
    ]
    keys = [json.dumps(_cell_key(spec), sort_keys=True) for spec in variants]
    assert len(set(keys)) == len(keys)
    # Failure cells carry the failure fragment alone: the labels that once
    # read ``mesh16c4-resilient-f10s7`` are new strings, so an old cache
    # entry can only miss, never be served.
    labels = [key["config"] for key in map(_cell_key, variants[-3:])]
    assert labels == ["HMC@dragonfly16c4-f10s7", "HMC@mesh16c4-f10s7",
                      "HMC@mesh16c4-f10s7-bw25"]


# ----------------------------------------------------- warm-cache invariant
def _frozen_pre_refactor_key(*, scale, workload, params, config_label,
                             profile, num_threads):
    """The cache-key construction vendored verbatim from the pre-spec code.

    ``code_digest()`` is evaluated at runtime on both sides, so it cancels:
    what this pins is the *layout* — field names and order-insensitive
    content.
    """
    key = {
        "digest": code_digest(),
        "scale": scale,
        "workload": workload,
        "params": {name: params[name] for name in sorted(params)},
        "config": config_label,
        "profile": profile,
        "num_threads": num_threads,
    }
    return key


def test_warm_pre_refactor_cache_serves_post_refactor_suite(tmp_path):
    """A cache written at pre-refactor key paths satisfies a post-refactor
    suite with zero simulations (the refactor's byte-identity acceptance)."""
    kinds = [SystemKind.HMC, SystemKind.ART]
    cold = EvaluationSuite("tiny", workloads=["mac"], kinds=kinds,
                           cache_dir=tmp_path)
    for kind in kinds:
        cold.result("mac", kind)
    assert cold.simulations_run == len(kinds)
    # Every entry the cold suite just wrote sits at the exact path the
    # pre-refactor key logic would have chosen.
    for kind in kinds:
        label = cold.config_for(kind).label
        params = cold.scale.params_for("mac")
        frozen = _frozen_pre_refactor_key(
            scale="tiny", workload="mac", params=params, config_label=label,
            profile="scaled", num_threads=cold.scale.num_threads)
        assert frozen == cold._cache_key("mac", label, params)
        assert cold.cache.path_for(frozen).exists()
    warm = EvaluationSuite("tiny", workloads=["mac"], kinds=kinds,
                           cache_dir=tmp_path)
    for kind in kinds:
        warm.result("mac", kind)
    assert warm.simulations_run == 0
    assert warm.disk_hits == len(kinds)


# ------------------------------------------------------------------ registry
def test_axes_table_lists_every_axis():
    table = render_axes_table()
    for name, axis in AXES.items():
        assert f"`{name}`" in table
        assert f"`{axis.flag}`" in table


def test_group_slices_cover_the_registry():
    groups = ("network",)
    names = [name for group in groups for name in axes_for(group)]
    assert sorted(names) == sorted(AXES)
    assert list(axes_for("network")) == ["topology", "num_cubes",
                                         "num_controllers", "failure_rate",
                                         "failure_seed", "link_bandwidth"]
