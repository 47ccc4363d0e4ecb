"""Section 2.4 model validation: Equations 1-3 against the simulator.

The paper derives pairwise bandwidth analytically and uses the result to
size NIFDY's parameters.  This bench closes the loop: it measures actual
pairwise streaming bandwidth on the idle 8x8 mesh and checks the analysis
(the ``model.*`` rows of :mod:`repro.report.claims`):

* **Equation 1** bounds the plain NIC (bandwidth limited by the slowest of
  software send, software receive, and the wire);
* **Section 2.4.1**: the basic (scalar) NIFDY protocol is round-trip
  limited when T_roundtrip(d) exceeds the software overheads -- which it
  does on the mesh, by design of the example;
* **Section 2.4.2**: a bulk dialog sized by Equation 3 hides the round
  trip and restores most of the plain bandwidth.
"""

from repro.analysis import (
    measure_pairwise_bandwidth,
    min_window_combined_acks,
    pairwise_bandwidth,
    roundtrip_time,
)
from repro.node import CM5_TIMING
from repro.packets import FLIT_BYTES

from conftest import BENCH_SEED

SRC, DST = 0, 7          # 7 hops along one mesh row
PACKET_WORDS = 8
T_LINK = PACKET_WORDS * FLIT_BYTES  # byte-wide link: 32 cycles/packet


def run_validation():
    out = {}
    for label, kwargs in (
        ("plain", dict(nic_mode="plain")),
        ("nifdy scalar", dict(nic_mode="nifdy", bulk=False)),
        ("nifdy bulk", dict(nic_mode="nifdy", bulk=True)),
    ):
        out[label] = measure_pairwise_bandwidth(
            "mesh2d", SRC, DST, num_nodes=64, packets=60,
            packet_words=PACKET_WORDS, seed=BENCH_SEED, **kwargs,
        )
    return out


def test_model_validation(benchmark, report):
    measured = benchmark.pedantic(run_validation, rounds=1, iterations=1)
    t = CM5_TIMING
    payload = PACKET_WORDS * FLIT_BYTES
    eq1 = pairwise_bandwidth(payload, t.t_send, t.t_receive, T_LINK)
    # 0 -> 7: 7 router hops, measured T(d) = 4d + 28 (tail arrival), plus
    # the receiver's polling before the ack fires; T_ackproc = 4.
    rtt = roundtrip_time(4 * 7 + 28, 4)
    scalar_pred = payload / max(t.t_send, t.t_receive, T_LINK, rtt)
    window = min_window_combined_acks(rtt, t.t_receive)

    report.line("Section 2.4 model validation (8x8 mesh, nodes 0 -> 7)")
    report.line(f"{'configuration':24s}{'measured':>10s}{'predicted':>11s}")
    report.line(f"{'plain NIC (Eq. 1)':24s}{measured['plain']:>9.3f}B{eq1:>10.3f}B")
    report.line(f"{'NIFDY scalar (S2.4.1)':24s}{measured['nifdy scalar']:>9.3f}B"
                f"{scalar_pred:>10.3f}B")
    report.line(f"{'NIFDY bulk (S2.4.2)':24s}{measured['nifdy bulk']:>9.3f}B"
                f"{'~' + format(eq1, '.3f'):>10s}B")
    report.line(f"(bytes/cycle; Eq. 3 window for this round trip: W >= {window})")

    report.record("bandwidth_bytes_per_cycle", {
        label: {"measured": measured[label], "predicted": predicted}
        for label, predicted in (("plain", eq1), ("nifdy scalar", scalar_pred),
                                 ("nifdy bulk", eq1))
    })
    report.record("eq3_min_window", window)
    report.check_claims()
