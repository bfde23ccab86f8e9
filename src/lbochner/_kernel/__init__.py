"""Rational-vector loops behind :class:`lbochner.falgebra.LElement`; the
implementation lives in :mod:`._pykernel`."""
