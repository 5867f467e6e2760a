"""Inversion-map (Kelvin) calculus for uniformly elliptic anisotropic norms.

The package is organised in layers:

* :mod:`finslerkelvin.norms` - norms, derivatives, dual norms;
* :mod:`finslerkelvin.fields` - scalar fields with analytic jets;
* :mod:`finslerkelvin.operators` - pointwise divergence-form operators and
  finite-difference jets;
* :mod:`finslerkelvin.kelvin` - the inversion map, its Jacobian calculus,
  and the weighted pullbacks;
* :mod:`finslerkelvin.verify` - deterministic residual suites for every
  identity and both transform theorems;
* :mod:`finslerkelvin.report` - residual reports and their renderers;
* :mod:`finslerkelvin.cli` - the `finsler-kelvin` command.

The package exports the ``__all__`` of every module above but ``cli``.
"""

from .fields import *  # noqa: F401,F403
from .kelvin import *  # noqa: F401,F403
from .norms import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .report import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"
