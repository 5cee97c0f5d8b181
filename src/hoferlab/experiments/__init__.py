from .commutator import (CommutatorBoundReport, commutator_bound_report,
                         commutator_path, commutator_tracer_flow)
from .constants import ConstantsLedger, constants, scale_sum
from .disjoint import DisjointBoundReport, disjoint_bound_check
from .displacement import (ShiftCertificate, SquareCertificate, half_space_shift,
                           shift_certificate, square_displacement)
from .shell_family import (ShellDecayReport, ShellFamilySpec, shell_decay_report,
                           shell_lp_norm)

__all__ = [
    "CommutatorBoundReport", "commutator_bound_report", "commutator_path",
    "commutator_tracer_flow", "ConstantsLedger", "constants", "scale_sum",
    "DisjointBoundReport", "disjoint_bound_check", "ShiftCertificate",
    "SquareCertificate", "half_space_shift", "shift_certificate", "square_displacement",
    "ShellDecayReport", "ShellFamilySpec", "shell_decay_report", "shell_lp_norm",
]
