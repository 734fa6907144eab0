"""Numerical laboratory for Sudler products, figure-eight Jones values,
and the arithmetic of their continued-fraction renormalization."""
