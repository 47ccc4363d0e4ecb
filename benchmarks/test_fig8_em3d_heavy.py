"""Figure 8: EM3D cycles per iteration, HEAVY communication.

Paper parameters n_nodes=100, d_nodes=20, local_p=3, dist_span=20: almost
every arc is remote, so the network carries an order of magnitude more
update traffic than Figure 7 and the in-order payload benefit compounds
with congestion relief.  Same claims as Figure 7 (the ``fig8.*`` rows of
:mod:`repro.report.claims`): the NIFDY gain over buffers-only should be
larger here than under light communication.
"""

from repro.traffic import Em3dConfig

from test_fig7_em3d_light import report_em3d, run_em3d

SCALE = 0.12
ITERATIONS = 2


def _config():
    return Em3dConfig.heavy_communication(scale=SCALE, iterations=ITERATIONS)


def test_fig8_em3d_heavy(benchmark, report):
    rows, in_order = benchmark.pedantic(run_em3d, args=(_config(),), rounds=1, iterations=1)
    cfg = _config()
    report_em3d(
        report,
        f"Figure 8: EM3D, heavy communication (n={cfg.n_nodes}, d={cfg.d_nodes}, "
        f"local_p={cfg.local_p}, span={cfg.dist_span})",
        rows, in_order,
    )
