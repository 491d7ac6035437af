"""Virtual laboratory for homodyne cross-correlation measurements of light.

Simulates squeezed-coherent signal fields interfering with a weak local
oscillator on an unbalanced beam splitter, generates two-detector photocurrent
records, and runs the full analysis chain: correlation estimation,
trigonometric-regression separation of the moment contributions, and the
determinant-based test for anomalous quantum correlations.

The package re-exports nothing: import each name from the module that
defines it (``hccm.gaussian``, ``hccm.pipeline``, ...).
"""

__version__ = "0.1.0"
