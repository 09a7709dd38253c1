"""Distributed-memory execution model for the PIC cycle.

Section VII of the paper claims a key advantage of the DL field solver
on distributed-memory systems: the network is replicated on every
process, so the field solve needs no communication beyond reducing the
(small, additive) phase-space histogram, whereas the traditional solve
requires assembling the global charge density and solving a global
linear system.

This subpackage makes that claim quantitative without MPI (not
installable offline): an in-process communicator with byte-counting
collectives, a 1D domain decomposition of the PIC cycle that is
verified to reproduce the serial physics, and a communication-volume
model comparing both field-solve strategies.  The traditional
decomposition runs as the served ``mpi`` engine family
(``make_engine`` with ``solver="mpi"``; traffic in
``engine.comm_stats``); the DL decomposition runs through
:func:`run_distributed_dl`.
"""

from repro.parallel.comm import CommStats, SimulatedComm
from repro.parallel.decomposition import DomainDecomposition1D
from repro.parallel.picparallel import (
    DistributedPICResult,
    communication_model,
    run_distributed_dl,
)

__all__ = [
    "CommStats",
    "SimulatedComm",
    "DomainDecomposition1D",
    "DistributedPICResult",
    "communication_model",
    "run_distributed_dl",
]
