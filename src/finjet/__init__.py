"""Finite-set stage semantics, graph-ball neighborhoods, and section-jet bundles."""
