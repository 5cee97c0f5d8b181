"""Exact integer/rational ledger of the explicit inequality constants.

Every constant attached to the k-indexed length functionals is an explicit
function of k; this module evaluates them in exact arithmetic:

    quasi_triangle          2^k        relaxed triangle constant of the k-metric
    coarse_quasi_triangle   2^{k+1}    same for the coarse (time-sup) variant
    commutator              2^{k+1}    commutator-norm bound
    commutator_energy       4^{k+1}    commutator vs displacement energy of a set
    sandwich_low            4^{-(k+1)} lower factor of the snowflake sandwich
    hofer_C                 2^{3k+8} (k+1)^2 S(k)   C^0-vs-length inequality
    sikorav_C               2^{2k+4} (k+1)   S(k)   support-vs-energy inequality
    bi_bound                2^{3k+2}   conjugation-displacement bound (capacity factor)
    r_alpha_bound           2^{k+1}    per-unit-alpha bound on the conjugation norm
    estimate_lemma          2^{3k+2}   additive constant of the two-map estimate
    disjoint_product        2(k+1)     disjointly-supported product bound

with S(k) = 1 + 2^{k+1} + 2^{2k+2} + 2^{3k+3}. For k = 0 the classical
sharper choice of the C^0 constant is 128; the ledger reports the formula
value 3840 and carries the annotation side by side without reconciling.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction

from ..errors import ParameterOutOfRange

K0_NOTE = "for k=0 the constant can be chosen as 128"

@dataclass(frozen=True)
class ConstantsLedger:
    k: int
    entries: dict                  # name -> int | Fraction, in the order constants() lists them
    note: str = None

    def to_json(self):
        out = {"k": self.k, "entries": {}}
        for name, value in self.entries.items():
            if isinstance(value, Fraction):
                out["entries"][name] = {"numerator": value.numerator,
                                        "denominator": value.denominator}
            else:
                out["entries"][name] = value
        if self.note:
            out["note"] = self.note
        return out

    def to_csv(self):
        out = io.StringIO()
        out.write("name,value\n")
        for name, value in self.entries.items():
            out.write(f"{name},{value}\n")
        if self.note:
            out.write(f"note,{self.note}\n")
        return out.getvalue()

    def format_table(self):
        width = max(map(len, self.entries))
        lines = [f"k = {self.k}"]
        for name, value in self.entries.items():
            lines.append(f"  {name:<{width}}  {value}")
        if self.note:
            lines.append(f"  note: {self.note}")
        return "\n".join(lines)


def scale_sum(k: int) -> int:
    return 1 + 2 ** (k + 1) + 2 ** (2 * k + 2) + 2 ** (3 * k + 3)


def constants(k: int) -> ConstantsLedger:
    if not 0 <= k <= 20:
        raise ParameterOutOfRange("k", "k must be in [0, 20]")
    s = scale_sum(k)
    entries = {
        "quasi_triangle": 2 ** k,
        "coarse_quasi_triangle": 2 ** (k + 1),
        "commutator": 2 ** (k + 1),
        "commutator_energy": 4 ** (k + 1),
        "sandwich_low": Fraction(1, 4 ** (k + 1)),
        "hofer_C": 2 ** (3 * k + 8) * (k + 1) ** 2 * s,
        "sikorav_C": 2 ** (2 * k + 4) * (k + 1) * s,
        "bi_bound": 2 ** (3 * k + 2),
        "r_alpha_bound": 2 ** (k + 1),
        "estimate_lemma": 2 ** (3 * k + 2),
        "disjoint_product": 2 * (k + 1),
    }
    return ConstantsLedger(k, entries, K0_NOTE if k == 0 else None)
