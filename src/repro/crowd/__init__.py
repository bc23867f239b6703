"""Crowd-sourcing substrate: the SLAMBench Android app experiment (Fig. 5).

The paper distributes an Android app that runs the default KFusion
configuration and the best-runtime configuration from the ODROID-XU3 Pareto
front on whatever phone/tablet the user owns (100 frames), then uploads both
timings to a central database.  Here the fleet is synthetic
(:mod:`repro.devices.mobile`) and the "app run" evaluates both configurations
through the same workload/runtime model; the analysis reports the speedup
distribution and the cross-device rank correlations that justify the paper's
zero-shot transfer claim.
"""
