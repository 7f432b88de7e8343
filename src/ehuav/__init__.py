"""Outage analysis and fast time/bandwidth allocation for wireless-powered,
energy-harvesting UAV identification networks.

Library layout:

- :mod:`ehuav.specfun` — gamma at integers, integer-order Bessel K, Lambert W0.
- :mod:`ehuav.channel` — scenario bounds, geometry, air-to-ground path loss,
  link budgets, composite channel-gain sampling.
- :mod:`ehuav.outage` — per-UAV rate, SNR threshold, closed-form and
  Monte-Carlo outage.
- :mod:`ehuav.allocation` — equal-bandwidth closed form, the two-phase
  fast allocator, the conventional nested-bisection baseline, and the
  exhaustive grid search.
- :mod:`ehuav.experiments` — the sweep settings (``ExperimentSpec``),
  block/RAP timing, node placement, sweep runners, their trend checks and
  their CSV output.
- :mod:`ehuav.configio` / :mod:`ehuav.cli` — config file loading into an
  ``ExperimentSpec``, and the command-line front end.
"""

__version__ = "0.1.0"
