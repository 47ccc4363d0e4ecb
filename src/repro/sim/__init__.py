"""Simulation substrate: deterministic event kernel, RNG streams, barriers.

Importing this package populates the scheduler registry: ``kernel``
registers the ``epoch`` ring kernel (the default) and the ``heap``
specification.
"""

from .barrier import Barrier
from .kernel import Event, KernelProfile, Simulator
from .schedulers import (DEFAULT_SCHEDULER, Scheduler, register_scheduler,
                         resolve_scheduler, scheduler_descriptions,
                         scheduler_names)
from .rng import RngFactory

__all__ = [
    "Barrier",
    "DEFAULT_SCHEDULER",
    "Event",
    "KernelProfile",
    "RngFactory",
    "Scheduler",
    "Simulator",
    "register_scheduler",
    "resolve_scheduler",
    "scheduler_descriptions",
    "scheduler_names",
]
