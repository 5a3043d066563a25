"""Simulated star network connecting the central system to the locals.

Per the paper's Figure 1, local systems communicate only with the
central system, never with each other; the :class:`~repro.net.network.Network`
enforces this topology and records every message for the architecture
conformance experiment (EXP-F1) and the message-complexity table
(EXP-T5).
"""

from repro.net.message import Message
from repro.net.network import FixedLatency, Network
from repro.net.node import Node

__all__ = ["FixedLatency", "Message", "Network", "Node"]
