"""Declarative experiment-axis registry and the :class:`ExperimentSpec`.

Every experiment dimension the reproduction has grown — network shape,
fault process, link bandwidth — is declared exactly once here as an
:class:`Axis`: its CLI flag, default and label-folding rule (with
default-elision) all live in the one declaration, gem5-config-style.  The
CLI generates its shared flag set from this registry
(``run``/``report``/``prefetch``/``sweep`` used to carry four hand-copied
flag blocks), and the config labels — which key every run-cache entry —
compose their folded fragments from the per-axis rules.

An :class:`ExperimentSpec` is one immutable choice of axis values — ``None``
meaning *unset*, so an explicit value stays distinguishable from the default
— and is the single object flowing from the CLI into config construction.

Byte-identity contract: every label, cache key and golden digest produced
before this layer existed is reproduced byte-for-byte.  Default-valued axes
elide from labels and keys; the fold fragments (``mesh16c4-f10s7``,
``-bw25``) are character-identical to the rules they replaced.
``tests/test_spec.py`` pins this against a corpus frozen from the
pre-refactor code.

This module imports only the standard library at module level: the config
modules that delegate their label folding here sit early in the package's
import chain, so everything repro-internal (the topology table,
constructors) is imported late, inside the functions that need it.

``python -m repro.core.spec --table`` renders the axis registry as the
markdown table embedded in the README (see ``tools/check_docs.py``).
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence

#: The CLI subcommands whose axis flags come out of this registry.
COMMANDS = ("run", "report", "prefetch", "sweep")


# --------------------------------------------------------------------- choices
# Late-bound: the topology table lives in a module that imports
# (transitively) the config modules which delegate their label folding here,
# so the table is only consulted when a parser or table is actually built.

def _topology_choices() -> Sequence[str]:
    from ..network.topology import TOPOLOGY_BUILDERS
    return sorted(TOPOLOGY_BUILDERS)


# -------------------------------------------------------------------- folding
# Label fragments.  Each fold sees the full value mapping of its group so a
# rule may consume a sibling axis (the failure seed only appears inside the
# failure-rate fragment).
# CHARACTER-IDENTITY MATTERS: these fragments are the pre-spec label rules
# verbatim, pinned by the frozen corpus in tests/test_spec.py.

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
    if bandwidth == AXES["link_bandwidth"].default:
        return ""
    return f"-bw{bandwidth:g}"


@dataclass(frozen=True)
class Axis:
    """One experiment dimension: flag, default and label fold."""

    name: str
    #: Python value type (also the argparse ``type`` for non-choice axes).
    type: type
    default: object
    flag: str
    #: Which label/config family the axis belongs to; ``network`` axes fold
    #: into the HMCNetworkConfig fingerprint.
    group: str
    help: str
    #: Late-bound valid-name provider (topologies); None = free-form.
    choices: Optional[Callable[[], Sequence[str]]] = None
    #: Human-readable label rule for the generated axes table.
    label_form: str = "(never in labels)"
    #: Label fragment producer over the group's value mapping, or None when
    #: the axis is folded by a sibling (failure_seed) or never labeled.
    fold: Optional[Callable[[Mapping[str, object]], str]] = None
    metavar: Optional[str] = None
    #: Per-subcommand behavior on ``sweep``: ``single`` (same scalar flag),
    #: ``list`` (becomes a swept value list under ``sweep_dest``) or
    #: ``exclude`` (sweep owns a plural spelling of its own).
    sweep: str = "single"
    sweep_dest: Optional[str] = None
    sweep_help: Optional[str] = None


#: The axis registry, in label-fold order within each group.  This order is
#: also the generated CLI flag order: network shape, faults, link bandwidth.
AXES: Dict[str, Axis] = {axis.name: axis for axis in (
    Axis(name="topology", type=str, default="dragonfly", flag="--topology",
         group="network", choices=_topology_choices,
         label_form="leads the network fingerprint (``mesh16c4``)",
         fold=_fold_topology,
         help="memory-network topology for every HMC-backed scheme "
              "(default: Table 4.1 dragonfly); variant networks get their "
              "own run-cache entries",
         sweep="exclude"),
    Axis(name="num_cubes", type=int, default=16, flag="--num-cubes",
         group="network", metavar="N",
         label_form="cube count inside the fingerprint (``mesh16c4``)",
         fold=_fold_num_cubes,
         help="memory-network cube count (default: 16); the topology is "
              "built with exactly this many cubes or the request is "
              "rejected up front",
         sweep="exclude"),
    Axis(name="num_controllers", type=int, default=4, flag="--num-controllers",
         group="network", metavar="N",
         label_form="controller count inside the fingerprint (``mesh16c4``)",
         fold=_fold_num_controllers,
         help="host-side memory-controller count (default: Table 4.1's 4)",
         sweep="list", sweep_dest="controller_counts",
         sweep_help="host-side memory-controller counts to sweep "
                    "(default: Table 4.1's 4)"),
    Axis(name="failure_rate", type=float, default=0.0, flag="--failure-rate",
         group="network", metavar="RATE",
         label_form="``-f{rate:g}s{seed}`` when positive (``-f10s7``)",
         fold=_fold_failure,
         help="expected random link failures per 10,000 cycles (default: "
              "0 = failure-free); routes recompute around failed links"),
    Axis(name="failure_seed", type=int, default=0, flag="--failure-seed",
         group="network", metavar="SEED",
         label_form="inside the failure fragment (``-f10s7``)",
         help="seed of the deterministic failure timeline (default: 0); a "
              "fixed seed reproduces the exact same failures — and results "
              "— on every run"),
    Axis(name="link_bandwidth", type=float, default=12.5,
         flag="--link-bandwidth", group="network", metavar="BYTES_PER_CYCLE",
         label_form="``-bw{N:g}`` when non-default (``-bw25``)",
         fold=_fold_bandwidth,
         help="memory-network link bandwidth in bytes per CPU cycle "
              "(default: Table 4.1's 12.5, i.e. 25 GB/s per direction)",
         sweep="list", sweep_dest="link_bandwidths",
         sweep_help="memory-network link bandwidths to sweep, in bytes per "
                    "CPU cycle (default: Table 4.1's 12.5, i.e. 25 GB/s "
                    "per direction)"),
)}


def axes_for(group: str) -> Dict[str, Axis]:
    """The registry slice for one group, in fold order."""
    return {name: axis for name, axis in AXES.items() if axis.group == group}


def fold_network_label(values: Mapping[str, object]) -> str:
    """The composed network fingerprint for one network-axis value mapping.

    ``values`` must carry every network axis (``link_bandwidth`` as the plain
    bytes-per-cycle number).  Produces exactly the pre-spec
    ``HMCNetworkConfig.label`` base string — the digest suffix for off-axis
    deviations stays with the config, which alone can see them.
    """
    return "".join(axis.fold(values) for axis in AXES.values()
                   if axis.group == "network" and axis.fold is not None)


# ---------------------------------------------------------------------- spec
@dataclass(frozen=True)
class ExperimentSpec:
    """One immutable choice of experiment-axis values.

    ``None`` means *unset*: the axis resolves to its default, exactly like
    the CLI flags always have.  Field order is registry order.
    """

    topology: Optional[str] = None
    num_cubes: Optional[int] = None
    num_controllers: Optional[int] = None
    failure_rate: Optional[float] = None
    failure_seed: Optional[int] = None
    link_bandwidth: Optional[float] = None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ExperimentSpec":
        """The spec carried by a parsed CLI namespace (absent attrs = unset)."""
        return cls(**{name: getattr(args, name, None) for name in AXES})

    # -- explicit values ------------------------------------------------------------
    def explicit(self, group: Optional[str] = None) -> Dict[str, object]:
        """The explicitly-set axis values, optionally for one group only."""
        return {name: getattr(self, name) for name, axis in AXES.items()
                if (group is None or axis.group == group)
                and getattr(self, name) is not None}

    # -- derived configuration objects ----------------------------------------------
    def network_overrides(self) -> Dict[str, object]:
        """Network-axis values as ``make_network_config`` keywords (None=unset)."""
        return {name: getattr(self, name) for name in axes_for("network")}

    def network_config(self):
        """The validated :class:`HMCNetworkConfig` for the network axes."""
        from ..system.config import make_network_config
        return make_network_config(**self.network_overrides())


# ------------------------------------------------------------- CLI generation
def add_axis_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """Add every axis flag the subcommand takes, straight from the registry.

    ``sweep`` swaps its ``list`` axes for plural value-list flags (landing
    under ``sweep_dest``) and skips its ``exclude`` axes (it owns plural
    spellings of the topology/cube-count dimensions).
    """
    if command not in COMMANDS:
        raise ValueError(f"unknown subcommand {command!r}; one of {COMMANDS}")
    for axis in AXES.values():
        if command == "sweep" and axis.sweep == "exclude":
            continue
        if command == "sweep" and axis.sweep == "list":
            parser.add_argument(axis.flag, dest=axis.sweep_dest, nargs="+",
                                type=axis.type, default=None,
                                metavar=axis.metavar, help=axis.sweep_help)
            continue
        kwargs: Dict[str, object] = {"default": None, "help": axis.help}
        if axis.choices is not None:
            kwargs["choices"] = sorted(axis.choices())
        else:
            kwargs["type"] = axis.type
            kwargs["metavar"] = axis.metavar
        parser.add_argument(axis.flag, **kwargs)


# ----------------------------------------------------------------- axes table
def render_axes_table() -> str:
    """The registry as a markdown table (README "Experiment axes" section)."""
    rows = [("Axis", "Flag", "Default", "Label form"),
            ("---", "---", "---", "---")]
    for axis in AXES.values():
        default = axis.default if axis.default != "" else "(empty)"
        # label_form strings use RST-style double backticks (they also land
        # in docstrings); markdown wants single ones.
        rows.append((f"`{axis.name}`", f"`{axis.flag}`",
                     f"`{default}`", axis.label_form.replace("``", "`")))
    return "\n".join("| " + " | ".join(row) + " |" for row in rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.spec",
        description="Render the declarative experiment-axis registry.")
    parser.add_argument("--table", action="store_true",
                        help="print the markdown axes table")
    parser.add_argument("--json", action="store_true",
                        help="print the registry as JSON (name, flag, "
                             "default, group per axis)")
    args = parser.parse_args(argv)
    if args.json:
        print(json.dumps({name: {"flag": axis.flag,
                                 "default": axis.default, "group": axis.group}
                          for name, axis in AXES.items()}, indent=1))
        return 0
    print(render_axes_table())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
