"""Table 3 static characteristics of every buildable 64-node topology.

The numbers below are pinned exact: max-flow bisection bandwidth across the
low-id/high-id node halves (bytes/cycle) and all-pairs hop statistics
(average, maximum), link hops including the two NIC links.  A change to
the graph queries in ``networks/base.py`` must reproduce them.
"""

import pytest

from repro.networks import EXTENSION_NETWORK_NAMES, NETWORK_NAMES, build_network
from repro.sim import Simulator

FAT_TREE_HOPS = (5.428571428571429, 6)
BUTTERFLY_HOPS = (4.0, 4)

#: name -> (bisection bytes/cycle, (avg hops, max hops)), all pairs.
CHARACTERISTICS = {
    "mesh2d": (8.0, (7.333333333333333, 16)),
    "mesh3d": (16.0, (5.809523809523809, 11)),
    "torus2d": (16.0, (6.063492063492063, 10)),
    "fattree": (32.0, FAT_TREE_HOPS),
    "fattree-sf": (32.0, FAT_TREE_HOPS),
    "cm5": (2.0, FAT_TREE_HOPS),
    "butterfly": (32.0, BUTTERFLY_HOPS),
    "multibutterfly": (32.0, BUTTERFLY_HOPS),
    "mesh2d-adaptive": (8.0, (7.333333333333333, 16)),
    "fattree-spray": (32.0, FAT_TREE_HOPS),
    "multibutterfly-spray": (32.0, BUTTERFLY_HOPS),
}

#: name -> hop_stats(sample=300): every 13th ordered pair.
SAMPLED_HOPS = {
    "mesh2d": (7.337620578778135, 14),
    "mesh3d": (5.807073954983923, 11),
    "torus2d": (6.051446945337621, 10),
    "fattree": (5.427652733118971, 6),
    "fattree-sf": (5.427652733118971, 6),
    "cm5": (5.427652733118971, 6),
    "butterfly": BUTTERFLY_HOPS,
    "multibutterfly": BUTTERFLY_HOPS,
    "mesh2d-adaptive": (7.337620578778135, 14),
    "fattree-spray": (5.427652733118971, 6),
    "multibutterfly-spray": BUTTERFLY_HOPS,
}

#: name -> (min_hops(0, 63), min_hops(5, 42)).
SPOT_HOPS = {
    "mesh2d": (16, 10),
    "mesh3d": (11, 6),
    "torus2d": (4, 8),
    "mesh2d-adaptive": (16, 10),
}


def test_every_topology_is_pinned():
    assert set(CHARACTERISTICS) == set(NETWORK_NAMES + EXTENSION_NETWORK_NAMES)


@pytest.mark.parametrize("name", NETWORK_NAMES + EXTENSION_NETWORK_NAMES)
def test_table3_characteristics_64_nodes(name):
    net = build_network(name, Simulator(), 64)
    bisection, (avg_hops, max_hops) = CHARACTERISTICS[name]
    assert net.bisection_bandwidth() == pytest.approx(bisection, rel=1e-12)
    avg, top = net.hop_stats()
    assert avg == pytest.approx(avg_hops, rel=1e-12)
    assert top == max_hops
    sampled_avg, sampled_max = net.hop_stats(sample=300)
    assert sampled_avg == pytest.approx(SAMPLED_HOPS[name][0], rel=1e-12)
    assert sampled_max == SAMPLED_HOPS[name][1]
    expected_spot = SPOT_HOPS.get(name, (max_hops, max_hops))
    assert (net.min_hops(0, 63), net.min_hops(5, 42)) == expected_spot
