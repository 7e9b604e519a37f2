"""warnlab: a laboratory for building and auditing actionable-warning
classifiers over static-analysis histories.

Core pieces: the ledger-backed project history (:mod:`warnlab.history`),
the closed-warning labeling oracle (:mod:`warnlab.oracle`), golden-feature
extraction in leaky and leak-free modes (:mod:`warnlab.features`), dataset
construction with duplication auditing (:mod:`warnlab.dataset`), baseline
models (:mod:`warnlab.models`), evaluation statistics
(:mod:`warnlab.evaluation`), and a seeded synthetic-history generator
(:mod:`warnlab.synth`).
"""

__version__ = "0.1.0"
