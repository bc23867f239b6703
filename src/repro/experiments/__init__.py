"""Experiment harnesses regenerating every table and figure of the paper.

One module per experiment:

* :mod:`repro.experiments.fig1_response_surface` — Fig. 1, the KFusion runtime
  response surface over (µ, ICP threshold),
* :mod:`repro.experiments.fig3_kfusion_dse` — Fig. 3(a)/(b), KFusion design
  space exploration on the ODROID-XU3 and ASUS T200TA,
* :mod:`repro.experiments.fig4_elasticfusion_dse` — Fig. 4, ElasticFusion DSE
  on the GTX 780 Ti,
* :mod:`repro.experiments.fig5_crowdsourcing` — Fig. 5, the 83-device
  crowd-sourcing speedup distribution,
* :mod:`repro.experiments.table1_pareto` — Table I, the ElasticFusion Pareto
  points,
* :mod:`repro.experiments.ablations` — additional ablations (search-strategy
  comparison, forest size sensitivity) referenced in DESIGN.md.

Every experiment takes an :class:`~repro.experiments.common.ExperimentScale`
so the same code runs at smoke-test, benchmark and paper scale.
"""
