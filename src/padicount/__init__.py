"""Exact counting of extensions of p-adic fields.

Given a prime p and the invariants of a base field, including the
ramification and inertia of its p-power cyclotomic extensions, compute:

* the number of extensions with prescribed ramification and inertia
  inside a fixed algebraic closure (Krasner count);
* the number of cyclic extensions with prescribed ramification and
  inertia, or with prescribed degree;
* the number of isomorphism classes of extensions with prescribed
  ramification and inertia, or with prescribed degree.

All arithmetic is exact; every closed form ships with an independent
brute-force oracle (see padicount.oracles and padicount.selfcheck).
"""

from .counting import (
    cyclic_count_ef,
    cyclic_count_total,
    delta_count,
    krasner_count,
    pi_count,
    psi_count,
    sigma_krasner,
)
from .errors import (
    ConsistencyError,
    CountingError,
    DomainError,
    MagnitudeError,
    ProfileTooShortError,
)
from .profiles import (
    BaseFieldProfile,
    CyclotomicDatum,
    load_profile,
    qp_profile,
)
from .theorems import iso_count_ef, iso_count_total, tame_iso_count

__version__ = "0.1.0"

__all__ = [
    "BaseFieldProfile",
    "ConsistencyError",
    "CountingError",
    "CyclotomicDatum",
    "DomainError",
    "MagnitudeError",
    "ProfileTooShortError",
    "cyclic_count_ef",
    "cyclic_count_total",
    "delta_count",
    "iso_count_ef",
    "iso_count_total",
    "krasner_count",
    "load_profile",
    "pi_count",
    "psi_count",
    "qp_profile",
    "sigma_krasner",
    "tame_iso_count",
]
