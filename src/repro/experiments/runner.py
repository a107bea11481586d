"""Deprecated import path for the experiment runner.

The orchestration layer moved to :mod:`repro.parallel.runner` (the
package that already owned its cache, hashing and executor halves); the
supported entry surface for running simulations is the
:mod:`repro.api` facade.  This shim re-exports everything so existing
imports keep working bit-identically, and warns once per process.
"""

import warnings

warnings.warn(
    "repro.experiments.runner is deprecated: import from "
    "repro.parallel.runner, or use the repro.api facade",
    DeprecationWarning,
    stacklevel=2,
)

from ..parallel.runner import *  # noqa: F401,F403  (re-export, see __all__ there)
