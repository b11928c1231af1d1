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
Those two modules load on first use, so a count never pays for them.
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
    cyclotomic_profile,
    load_profile,
    qp_profile,
    unramified_profile,
)
from .theorems import iso_count_ef, iso_count_total, tame_iso_count

__version__ = "0.1.0"


def __getattr__(name):
    """padicount.oracles and padicount.selfcheck, imported on first access
    (PEP 562); any other missing name raises AttributeError."""
    if name in ("oracles", "selfcheck"):
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "cyclotomic_profile",
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
    "unramified_profile",
]
