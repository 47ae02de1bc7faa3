"""Per-figure scenario runs, metric helpers and the paper's claims.

Each figure's experiment is one run function here, registered as a
scenario in :mod:`repro.sim.catalog`; :mod:`repro.analysis.claims` sets
the paper's numbers beside the scenarios' metrics and checks them.
"""
