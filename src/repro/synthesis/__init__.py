"""C-synthesis substrate: operation scheduling and static reporting."""

from .report import StaticLatency, estimate_function_latency
from .resources import DEFAULT_CONFIG, ResourceModel, SynthesisConfig
from .scheduler import BlockSchedule, ModuleSchedule, schedule_function

__all__ = [
    "BlockSchedule",
    "DEFAULT_CONFIG",
    "ModuleSchedule",
    "ResourceModel",
    "StaticLatency",
    "SynthesisConfig",
    "estimate_function_latency",
    "schedule_function",
]
