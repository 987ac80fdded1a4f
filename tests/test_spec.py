"""Network labels and the run-cache keys built from them.

Three contracts are pinned here:

* **Byte-identity** — every label and cache key the earlier code produced is
  reproduced byte-for-byte by :attr:`HMCNetworkConfig.label`, against a
  frozen corpus (``tests/data/spec_corpus.json``) and against the label
  rules of the retired axis registry, copied below as a reference.
* **No aliasing** — distinct network-flag choices always occupy distinct
  cache entries.
* **Warm cache** — a cache written at the earlier key paths serves the
  suite with zero simulations.
"""

import json
from dataclasses import replace
from pathlib import Path
from typing import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.run_cache import RunCache, code_digest
from repro.experiments.suite import EvaluationSuite
from repro.hmc.config import default_network
from repro.network.topology import TOPOLOGY_BUILDERS
from repro.system.config import (SystemKind, make_network_config,
                                 make_system_config)

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


# ------------------------------------------------------------- label rules
# The label rules of the retired axis registry, verbatim; the registry's
# ``link_bandwidth`` default was the literal 12.5.
REGISTRY_BANDWIDTH_DEFAULT = 12.5


def _fold_topology(v: Mapping[str, object]) -> str:
    return str(v["topology"])


def _fold_num_cubes(v: Mapping[str, object]) -> str:
    return str(v["num_cubes"])


def _fold_num_controllers(v: Mapping[str, object]) -> str:
    return f"c{v['num_controllers']}"


def _fold_failure(v: Mapping[str, object]) -> str:
    rate = v["failure_rate"]
    return f"-f{rate:g}s{v['failure_seed']}" if rate else ""


def _fold_bandwidth(v: Mapping[str, object]) -> str:
    bandwidth = v["link_bandwidth"]
    if bandwidth == REGISTRY_BANDWIDTH_DEFAULT:
        return ""
    return f"-bw{bandwidth:g}"


REFERENCE_FOLDS = (_fold_topology, _fold_num_cubes, _fold_num_controllers,
                   _fold_failure, _fold_bandwidth)


@st.composite
def network_flags(draw):
    """One valid choice of the six network flags."""
    topology = draw(st.sampled_from(sorted(TOPOLOGY_BUILDERS)))
    if topology == "dragonfly":
        # Any groups x routers product with groups - 1 <= routers builds,
        # with at most one controller per group.
        groups = draw(st.integers(2, 6))
        num_cubes = groups * draw(st.integers(groups - 1, 6))
        num_controllers = draw(st.integers(1, groups))
    else:
        num_cubes = draw(st.integers(1, 36))
        num_controllers = draw(st.integers(1, min(num_cubes, 8)))
    rates = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
    bandwidths = st.floats(min_value=0.01, max_value=1e3, allow_nan=False)
    return {
        "topology": topology,
        "num_cubes": num_cubes,
        "num_controllers": num_controllers,
        "failure_rate": draw(st.one_of(st.just(0.0), rates)),
        "failure_seed": draw(st.integers(0, 2**31)),
        "link_bandwidth": draw(st.one_of(st.just(12.5), bandwidths)),
    }


@settings(max_examples=150, deadline=None)
@given(network_flags())
def test_network_label_matches_the_registry_rules(flags):
    net = make_network_config(**flags)
    assert net.label == "".join(fold(flags) for fold in REFERENCE_FOLDS)


# ----------------------------------------------------------------- no aliasing
def _cell_key(network):
    """The cache key of one (mac, HMC) suite cell under the set ``network``
    flags."""
    config = make_system_config("HMC", **network)
    return RunCache.make_key(scale="tiny", workload="mac",
                             params={"array_elements": 1024},
                             config_label=config.label, profile="scaled",
                             num_threads=4)


def test_distinct_cache_participating_specs_never_alias():
    variants = [
        {},
        {"topology": "mesh"},
        {"topology": "torus"},
        {"num_controllers": 2},
        {"link_bandwidth": 25.0},
        {"failure_rate": 10.0},
        {"failure_rate": 10.0, "failure_seed": 7},
        {"topology": "mesh", "failure_rate": 10.0, "failure_seed": 7},
        {"topology": "mesh", "failure_rate": 10.0, "failure_seed": 7,
         "link_bandwidth": 25.0},
    ]
    keys = [json.dumps(_cell_key(network), sort_keys=True)
            for network in variants]
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
