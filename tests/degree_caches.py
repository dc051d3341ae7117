"""Cold degree caches, for tests that count or starve the certifier.

dynamical_degrees keeps the degrees of each chi_A it has handled, and the
radius layer each certified spectral radius; a warm entry of either skips
the certifier a test has patched.
"""

from threefold.lattice_dynamics import _degrees_of_charpoly
from threefold.radius import _certified_radius_int


def clear_degree_caches():
    """Forget every cached degree and radius: the next dynamical_degrees
    call certifies afresh, and nothing certified under a patch stays."""
    _degrees_of_charpoly.cache_clear()
    _certified_radius_int.cache_clear()
