"""Affine isometric actions of discrete groups, at desk scale.

The package builds finite, exactly computable models of several actions
on trees, hyperbolic discs, R-trees, and Fock space, together with the
scalar cocycles they induce, and ships a registry of verification
suites (:mod:`isoact.suites`) that check the defining identities of
each construction.  ``isoact run --suite <name>`` drives the suites
from the command line with deterministic, byte-stable reports.

Exact arithmetic (``fractions.Fraction``) is used wherever an identity
holds on the nose; floating point appears only where a construction is
genuinely analytic, always with an explicit tolerance.  Disc isometries
are one such place: their entries are complex floats, and rational input
is checked exactly before it is rounded to them.  Symplectic matrices are
another: they are plain float arrays, and one batched kernel computes
their phase cocycle.

Importing the package sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` to ``1`` where they are unset.  The linear
algebra here runs on matrices of a few dozen entries, where a thread
pool costs more than it saves, and worse under concurrent load.  A value
the user set is kept, and the setting only takes effect if numpy has not
been imported before ``isoact``.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from .errors import ConfigError, ConstraintViolation, IsoactError
from .groups import FiniteMeasure, FreeWord, SuMatrix
from .report import Report, SuiteConfig
from .suites import resolve_config, run_suite, suite_names
from .treeball import TreeBall

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConstraintViolation",
    "FiniteMeasure",
    "FreeWord",
    "IsoactError",
    "Report",
    "SuMatrix",
    "SuiteConfig",
    "TreeBall",
    "resolve_config",
    "run_suite",
    "suite_names",
    "__version__",
]
