"""The slim result field list, in a module that imports nothing.

The sweep engine's cache, the ``--json`` CLI outputs, CSV export and the
results schema (:mod:`repro.report.schema`, which re-exports it) all agree
on this shape.  It lives here so that running an experiment does not load
the reporting package.
"""

#: The slim, cacheable subset of an ExperimentResult.  Order matters: it is
#: the CSV column order too.
RUN_STATS_FIELDS = (
    "network", "nic_mode", "num_nodes", "cycles", "sent", "delivered",
    "completed", "order_violations", "mean_network_latency",
    "mean_total_latency", "abandoned", "stall_report", "violations",
)
