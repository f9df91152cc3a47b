"""Classical and quantum standard map with a phase-space leak.

Library layout:
  standard_map  closed/leaked map, tangent dynamics, FTLE, escape records
  ensemble      grid ensembles: FTLE/dwell fields, survival
  quantum       quantized propagator, leak projector, resonance spectra
  tomography    coherent states, Husimi fields, Wehrl entropies
  formats       LCF1 binaries, CSV tables, PGM heatmaps
  config        experiment configuration files
  runner        composed experiment commands with manifests, the leak scan
  cli           `leakmap` command-line entry point

Import names from their submodule (`from leakmap.quantum import
resonance_spectrum`); each library submodule's `__all__` lists its public
names.  This package imports no submodule itself, so `import leakmap`
loads no numpy and the CLI can pin BLAS thread counts before numpy
initializes.
"""

__version__ = "0.1.0"
