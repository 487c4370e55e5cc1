"""Verification utilities: is an output really a Hamiltonian cycle?"""

from repro.verify.hamiltonicity import (
    CycleViolation,
    cycle_from_successors,
    is_hamiltonian_cycle,
    is_hamiltonian_path,
    verified_cycle,
    verify_cycle,
)

__all__ = [
    "is_hamiltonian_cycle",
    "is_hamiltonian_path",
    "verify_cycle",
    "verified_cycle",
    "cycle_from_successors",
    "CycleViolation",
]
