"""Scheduler registry: the pluggable event-queue API of the kernel.

Spec validation, the CLI and the kernel itself all consult one registry,
so adding a scheduler edits no other file:

* :class:`Scheduler` is the interface a kernel implementation provides
  (schedule / post / poster / cancel-via-:class:`~repro.sim.kernel.Event`
  / drain-until).
* :func:`register_scheduler` adds an implementation under a name.
* :func:`scheduler_names` is the single source of truth that spec
  validation, CLI choices and ``Simulator(scheduler=...)`` dispatch all
  derive from.

``repro.sim.kernel`` registers ``"epoch"`` (the default ring kernel) and
``"heap"`` (the executable specification).  Importing :mod:`repro.sim`
populates the registry.  Registration order is presentation order
everywhere (CLI ``choices``, the parity matrix): built-ins first,
additions append.

This module deliberately imports nothing from :mod:`repro.sim.kernel`:
implementations import the interface, never the other way around, so a
third-party scheduler can live in any package and register itself.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple, Type

#: Scheduler used when ``Simulator()``, ``ExperimentSpec`` or ``repro run``
#: is given no explicit kernel name.
DEFAULT_SCHEDULER = "epoch"

_REGISTRY: Dict[str, Type["Scheduler"]] = {}


class Scheduler:
    """Interface of an event-queue implementation.

    All implementations share the same observable contract, enforced by
    ``tests/test_scheduler_parity.py``: events fire in global
    ``(cycle, seq)`` order -- same-cycle events in scheduling order --
    so every workload's metrics are bit-identical across schedulers.

    Class attributes:

    ``name``
        Registry key, reported by :attr:`scheduler`.
    ``description``
        One line for ``--help`` texts and docs.
    """

    name: str = ""
    description: str = ""

    # -------------------------------------------------------- core protocol
    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any):
        """Run ``fn(*args)`` ``delay`` cycles from now; returns a
        cancellable :class:`~repro.sim.kernel.Event`."""
        raise NotImplementedError

    def at(self, cycle: int, fn: Callable[..., Any], *args: Any):
        """Run ``fn(*args)`` at absolute ``cycle``; returns a cancellable
        :class:`~repro.sim.kernel.Event`."""
        raise NotImplementedError

    def post(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, never cancellable.
        The hot-path API -- implementations are free to skip allocating
        an Event entirely."""
        raise NotImplementedError

    def poster(self, delay: int, fn: Callable[[], Any]) -> Callable[[], int]:
        """A zero-argument callable that posts ``fn()`` ``delay`` cycles
        from now, exactly like ``post(delay, fn)``, and returns the current
        cycle.  For a caller that posts the same call over and over (a
        link's flit completion): implementations may prebuild the queue
        record once.  This default goes through :meth:`post`."""
        post = self.post

        def post_fn() -> int:
            post(delay, fn)
            return self.now

        return post_fn

    def run_until(self, cycle: int) -> None:
        """Drain every event with timestamp strictly below ``cycle``."""
        raise NotImplementedError

    def run(self, max_cycles: Optional[int] = None) -> None:
        """Drain the queue dry (or until ``max_cycles`` elapse)."""
        raise NotImplementedError

    def pending_events(self) -> int:
        """Not-yet-cancelled events still queued (a test/debug query)."""
        raise NotImplementedError


def register_scheduler(cls: Type[Scheduler]) -> Type[Scheduler]:
    """Register ``cls`` under ``cls.name``.  Usable as a decorator.

    Re-registering a name with the *same* class is a no-op (module
    reloads); with a different class it raises, because silently
    swapping a scheduler underneath cached specs would be hell to debug.
    """
    name = cls.name
    if not name:
        raise ValueError(f"scheduler class {cls!r} has no name")
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"scheduler {name!r} already registered to {existing!r}"
        )
    _REGISTRY[name] = cls
    return cls


def scheduler_names() -> Tuple[str, ...]:
    """Registered scheduler names, in registration order."""
    return tuple(_REGISTRY)


def resolve_scheduler(name: str) -> Type[Scheduler]:
    """Look up a scheduler class by name.

    Raises ``ValueError`` (not KeyError) so spec validation and CLI
    parsing report the same message they always did.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {scheduler_names()}"
        ) from None


def scheduler_descriptions() -> Dict[str, str]:
    """``{name: one-line description}`` for help texts and docs."""
    return {name: cls.description for name, cls in _REGISTRY.items()}
