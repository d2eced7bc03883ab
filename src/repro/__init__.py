"""Crimson: data management for evaluating phylogenetic tree reconstruction.

A faithful Python reproduction of the VLDB 2006 demonstration paper
"Crimson: A Data Management System to Support Evaluating Phylogenetic
Tree Reconstruction Algorithms" (Zheng, Fisher, Cohen, Guo, Kim,
Davidson).  See the "Layout" section of README.md for the system
inventory, and ROADMAP.md for the measured state of each layer; the
benchmarks under ``benchmarks/`` print the paper-versus-measured record.

Public API highlights
---------------------

* ``repro.trees`` -- tree model, Newick/NEXUS serialization,
* ``repro.core`` -- hierarchical Dewey index, LCA, projection, clades,
  pattern match,
* ``repro.storage`` -- relational repositories (sqlite) and the data loader,
* ``repro.simulation`` -- gold-standard tree and sequence generators,
* ``repro.reconstruction`` -- NJ, UPGMA, parsimony baselines,
* ``repro.benchmark`` -- sampling strategies, comparison metrics, and the
  Benchmark Manager pipeline.
"""

__version__ = "1.0.0"
