"""Table 2: simulator calibration against the paper's measured CM-5 costs.

The paper measured send/receive/poll overheads and one-way latency on a
real CM-5 and fed them to its simulator; we use the Section 2.4.3 values as
constants and verify here that the *simulated* network latencies come out
with the paper's structure (the ``table2.*`` rows of
:mod:`repro.report.claims`):

* 8x8 wormhole mesh:   T_lat(d) ~ 4d + c   (one word-flit per hop on a
  byte-wide link);
* 64-node full fat tree: T_lat(d) ~ 5d + c (flit time + 1 route cycle);
* CM-5 imitation: per-hop cost ~4x the full fat tree's (4-bit links,
  time-multiplexed logical networks), giving the "round-trip latency twice
  as great" regime of Section 4.1;
* one-way latency including software (Table 2's last row) = T_send +
  T_lat(d) + dispatch, measured end-to-end through real NICs/processors.
"""

from repro.analysis import measure_latency_fit
from repro.node import CM5_TIMING
from repro.sim import RngFactory

from conftest import BENCH_SEED


def run_calibration():
    fits = {
        name: measure_latency_fit(name, 64, max_probes=16)
        for name in ("mesh2d", "fattree", "cm5", "butterfly")
    }
    return fits


def test_table2_calibration(benchmark, report):
    fits = benchmark.pedantic(run_calibration, rounds=1, iterations=1)
    t = CM5_TIMING
    report.line("Table 2: software costs used by the simulator (Section 2.4.3)")
    report.line(f"  active message send           : {t.t_send} cycles")
    report.line(f"  active message receive        : {t.t_receive} cycles")
    report.line(f"  active message poll (empty)   : {t.t_poll} cycles")
    report.line(f"  NIFDY ack processing (2 ends) : {4} cycles")
    report.line("")
    report.line("Measured uncontended tail-arrival latency fits (8-word packet):")
    for name, (slope, intercept) in fits.items():
        report.line(f"  {name:12s} T(d) = {slope:5.1f}*d + {intercept:6.1f}")
    report.line("")
    report.line("paper formulas: mesh 4d+14, fat tree 5d+2 (head latency; our"
                " intercept adds the 7-flit tail streaming time)")

    report.record("software_costs", {
        "active message send": t.t_send,
        "active message receive": t.t_receive,
        "active message poll (empty)": t.t_poll,
        "NIFDY ack processing (2 ends)": 4,
    })
    report.record("latency_fits",
                  {name: list(fit) for name, fit in fits.items()})

    report.check_claims()
