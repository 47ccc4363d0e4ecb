"""Network interfaces: the NIFDY unit and the baseline NICs it is compared to."""

from .base import BaseNIC
from .collectives import (
    COLLECTIVE_OPS,
    CollectiveEngine,
    CollectiveParams,
    CollectiveTree,
    HostCollective,
)
from .bulk import (
    BulkReceiverDialog,
    BulkSender,
    wire_decode_sequence,
    wire_encode_sequence,
)
from .modes import NIC_MODES, NicMode
from .nifdy import NifdyNIC, NifdyParams
from .opt import OutstandingPacketTable
from .plain import BufferedNIC, PlainNIC
from .pool import OutgoingPool
from .reorder import REORDER_POLICIES, ReorderParams, ReorderTolerantNIC
from .retransmit import EXHAUST_POLICIES, RetransmitTimer, RetransmittingNifdyNIC

__all__ = [
    "EXHAUST_POLICIES",
    "NIC_MODES",
    "REORDER_POLICIES",
    "ReorderParams",
    "ReorderTolerantNIC",
    "BaseNIC",
    "BufferedNIC",
    "BulkReceiverDialog",
    "BulkSender",
    "COLLECTIVE_OPS",
    "CollectiveEngine",
    "CollectiveParams",
    "CollectiveTree",
    "HostCollective",
    "NicMode",
    "NifdyNIC",
    "NifdyParams",
    "OutgoingPool",
    "OutstandingPacketTable",
    "PlainNIC",
    "RetransmitTimer",
    "RetransmittingNifdyNIC",
    "wire_decode_sequence",
    "wire_encode_sequence",
]
