"""MDR RAID-6 erasure coding toolkit.

A (k, r) MDR code stores k data strips plus a row-parity strip P and a
second parity strip Q per stripe, tolerates any two disk losses, rebuilds
any single basic disk from the minimum (k+1)r/2 block reads, and encodes
with the minimum k-1 XORs per coded block.
"""

from .code import (
    MdrCode,
    RepairStrategy,
    code_from_document,
    code_to_document,
    construct,
    extend,
    generator_submatrices,
    initial_code,
    verify_mds,
    verify_repair_optimal,
)
from .codec import (
    IntegrityError,
    XorSchedule,
    build_encode_schedule,
    build_repair_schedule,
    execute_schedule,
    repair_plan,
    verify_schedule,
)
from .f2 import BitMatrix

__all__ = [
    "BitMatrix",
    "IntegrityError",
    "MdrCode",
    "RepairStrategy",
    "XorSchedule",
    "build_encode_schedule",
    "build_repair_schedule",
    "code_from_document",
    "code_to_document",
    "construct",
    "execute_schedule",
    "extend",
    "generator_submatrices",
    "initial_code",
    "repair_plan",
    "verify_mds",
    "verify_repair_optimal",
    "verify_schedule",
]
