"""HyperMapper core: multi-objective design-space exploration with random forests.

This subpackage re-implements the paper's primary contribution:

* a declarative description of an algorithmic design space
  (:mod:`repro.core.parameters`, :mod:`repro.core.space`),
* randomized decision forest regressors built from scratch
  (:mod:`repro.core.tree`, :mod:`repro.core.forest`),
* Pareto-front utilities (:mod:`repro.core.pareto`),
* the active-learning optimizer of Algorithm 1 (:mod:`repro.core.optimizer`),
* baseline optimizers used for comparison (:mod:`repro.core.baselines`).

The core is application-agnostic: it optimizes any black-box callable that maps
a configuration dictionary to a vector of objective values.  The SLAM-specific
design spaces and evaluators live in :mod:`repro.slambench`.
"""
