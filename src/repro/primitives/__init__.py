"""Distributed building blocks shared by every algorithm in the paper."""

from repro.primitives.barrier import Barrier
from repro.primitives.bfs import BfsTree
from repro.primitives.floodmin import FloodMin
from repro.primitives.submachine import SubMachine, SubMachineHost

__all__ = [
    "SubMachine",
    "SubMachineHost",
    "FloodMin",
    "BfsTree",
    "Barrier",
]
