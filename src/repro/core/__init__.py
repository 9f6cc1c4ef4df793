"""The NewMadeleine communication scheduling engine (the paper's contribution)."""

import repro.core.strategies  # noqa: F401  (registers the built-in strategies)
from repro.core.data import Bytes, SegmentData, VirtualData, as_data
from repro.core.engine import EngineParams, EngineStats, NmadEngine
from repro.core.interface import (
    PackMessage,
    UnpackMessage,
    begin_pack,
    begin_unpack,
)
from repro.core.packet import (
    CancelItem,
    HeaderSpec,
    PacketWrap,
    PhysPacket,
    RdvAckItem,
    RdvDataItem,
    RdvReqItem,
    SegItem,
    WireItem,
)
from repro.core.requests import ANY, RecvRequest, SendRequest
from repro.core.strategies import (
    AdaptiveStrategy,
    AggregationStrategy,
    BandwidthStrategy,
    FifoStrategy,
    MultirailStrategy,
)
from repro.core.strategy import (
    SchedulingContext,
    SendPlan,
    Strategy,
    available_strategies,
    create,
    register,
    unregister,
)
from repro.core.window import OptimizationWindow

__all__ = [
    "ANY",
    "CancelItem",
    "AdaptiveStrategy",
    "AggregationStrategy",
    "BandwidthStrategy",
    "Bytes",
    "EngineParams",
    "EngineStats",
    "FifoStrategy",
    "HeaderSpec",
    "MultirailStrategy",
    "NmadEngine",
    "OptimizationWindow",
    "PackMessage",
    "PacketWrap",
    "PhysPacket",
    "RdvAckItem",
    "RdvDataItem",
    "RdvReqItem",
    "RecvRequest",
    "SchedulingContext",
    "SegItem",
    "SegmentData",
    "SendPlan",
    "SendRequest",
    "Strategy",
    "UnpackMessage",
    "VirtualData",
    "WireItem",
    "as_data",
    "available_strategies",
    "begin_pack",
    "begin_unpack",
    "create",
    "register",
    "unregister",
]
