"""Figure 3: packets delivered under LIGHT synthetic traffic.

Paper: each node sends with probability 1/3 per phase; the message-length
distribution has a long tail (10- and 20-packet messages), and idle nodes
periodically ignore the network.  This mainly measures pairwise bandwidth
with occasional target collisions and unresponsive receivers -- the regime
where bulk dialogs (window W) matter most.  Same grid as Figure 2; claims:
the ``fig3.*`` rows of :mod:`repro.report.claims`.
"""

from repro.experiments import light_synthetic

from test_fig2_heavy_synthetic import report_synthetic, run_synthetic


def test_fig3_light_synthetic(benchmark, report, engine):
    rows = benchmark.pedantic(run_synthetic, args=(engine, light_synthetic),
                              rounds=1, iterations=1)
    report_synthetic(report, "Figure 3", "light", rows)
