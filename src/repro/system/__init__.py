"""System assembly: Table 4.1 configurations, machine builder, run driver, results."""

from .builder import BuiltSystem, build_system
from .config import (
    AR_CONFIGS,
    CONFIG_ORDER,
    SystemConfig,
    SystemKind,
    all_system_configs,
    make_system_config,
    table_4_1,
)
from .results import RunResult, collect_results
from .runner import (generate_program, normalize_workers, run_jobs, run_program,
                     run_suite, run_workload)

__all__ = [
    "BuiltSystem",
    "build_system",
    "AR_CONFIGS",
    "CONFIG_ORDER",
    "SystemConfig",
    "SystemKind",
    "all_system_configs",
    "make_system_config",
    "table_4_1",
    "RunResult",
    "collect_results",
    "generate_program",
    "normalize_workers",
    "run_jobs",
    "run_program",
    "run_suite",
    "run_workload",
]
