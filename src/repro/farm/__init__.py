"""Execution backends and run manifests for the sweep engine.

:class:`~repro.experiments.engine.SweepEngine` is the one engine; this
package holds what it plugs in for long hostile campaigns:

* :mod:`repro.farm.executors` -- the executor registry: the shared
  ``pool`` of worker processes and the crash-containing ``subprocess``
  backend (one ``python -m repro.farm.worker`` interpreter per point).
* :mod:`repro.farm.manifest` -- the resumable, checkpointed run manifest
  that makes ``repro farm --resume`` safe after any kind of death -- the
  worker's or the engine's own.

Nothing is imported eagerly: the worker interpreter and a plain sweep
load only the modules they use, so import the submodule you need.
"""
