"""The NIC modes an experiment can select, by name.

The paper's four bars (Figures 2/3 and 6-9) plus the reorder-tolerant
receivers of the multipath scenario pack:

==================  ======================================================
``plain``           bare network interface, backpressure-only flow control
``buffered``        NIFDY's buffer budget, no protocol ("buffers only")
``nifdy``           protocol + in-order-aware communication library
``nifdy-``          the NIFDY protocol, software NOT exploiting in-order
                    delivery
``reorder-window``  windowed sender, bounded reorder window receiver
``reorder-bitmap``  the same with an Eunomia-style SACK bitmap
``reorder-jain``    the same with a Jain-style drop-vs-cache receiver
==================  ======================================================

On a lossy network (static drops or a fault plan) the NIFDY modes build
the retransmitting variant (Section 6.2).
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple

from .base import BaseNIC
from .nifdy import NifdyNIC
from .plain import BufferedNIC, PlainNIC
from .reorder import ReorderTolerantNIC
from .retransmit import RetransmittingNifdyNIC


class NicMode(NamedTuple):
    """One selectable NIC mode (a NamedTuple: immutable, and cheaper to
    define at import than a frozen dataclass).

    ``build(sim, node, params, reorder_params, lossy, **retx)`` makes one
    node's NIC; ``params`` is the :class:`~repro.nic.NifdyParams` and
    ``retx`` the timer settings (``retx_timeout``, ``max_retries``,
    ``on_exhaust``).  ``exploit_inorder``: software uses the in-order-aware
    library on top of this NIC (on an in-order fabric it does so for every
    mode).  ``takes_reorder_params``: the mode is sized by a
    :class:`~repro.nic.ReorderParams`.
    """

    build: Callable[..., BaseNIC]
    exploit_inorder: bool
    takes_reorder_params: bool = False


def _nifdy(sim, node, params, reorder, lossy, **retx) -> BaseNIC:
    if lossy:
        return RetransmittingNifdyNIC(sim, node, params, **retx)
    return NifdyNIC(sim, node, params)


def _reorder(policy: str) -> NicMode:
    def build(sim, node, params, reorder, lossy, **retx):
        return ReorderTolerantNIC(sim, node, policy, reorder, **retx)

    return NicMode(build, exploit_inorder=True, takes_reorder_params=True)


NIC_MODES: Dict[str, NicMode] = {
    "plain": NicMode(
        lambda sim, node, params, reorder, lossy, **retx: PlainNIC(sim, node),
        exploit_inorder=False,
    ),
    "buffered": NicMode(
        lambda sim, node, params, reorder, lossy, **retx: BufferedNIC(
            sim, node, total_buffers=params.total_buffers
        ),
        exploit_inorder=False,
    ),
    "nifdy": NicMode(_nifdy, exploit_inorder=True),
    "nifdy-": NicMode(_nifdy, exploit_inorder=False),
    "reorder-window": _reorder("window"),
    "reorder-bitmap": _reorder("bitmap"),
    "reorder-jain": _reorder("dropcache"),
}
