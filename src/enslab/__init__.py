"""enslab: a numerical laboratory for ensemble statistics.

Modules:

* ``probcore``     - discrete distributions, entropy/information calculus,
                     canonical distribution and temperature solving.
* ``randomfield``  - homogeneous Gaussian fields, fractional-volume
                     estimators, hierarchical cell averages.
* ``measurement``  - random-phase apparatus ensembles, Born-rule fractions,
                     off-diagonal suppression curve, entropy ledger.
* ``conefall``     - unstable-equilibrium ensemble (inverted pendulum).
* ``spinecho``     - dephasing/refocusing phase-oscillator protocol.
* ``cli``          - seeded, manifest-writing experiment driver.
"""

__version__ = "0.1.0"

from . import conefall, measurement, probcore, randomfield, spinecho  # noqa: E402,F401
