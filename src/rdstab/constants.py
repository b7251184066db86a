"""Frozen numerical defaults shared by the library, the CLI, and the tests.

Every tolerance that appears in more than one place lives here so that the
tests and the implementation cannot silently drift apart.
"""

# Kernel power series: truncation target for max |k^{M+1} - k^M| over the
# triangle, and the hard cap on the truncation order.
DEFAULT_KERNEL_TOL = 1e-12
KERNEL_MAX_ORDER = 200

# Entries per row block of the blocked passes over nx x nx tables and of the
# march's ring of levels (512 KB of float64, sized to stay in cache).
BLOCK_ENTRIES = 2**16

# Invertibility of the transform.  The construction requires every recursion
# scalar a_j to stay away from -1 by at least the floor; the residual
# ||(I - Phi) T - I||_inf must not exceed INVERSE_TOL.
ADMISSIBILITY_FLOOR = 1e-6
INVERSE_TOL = 1e-8

# Newton iteration for the cubic nonlinearity.  A step stops when
# max|du| <= DEFAULT_NEWTON_TOL, or one solve earlier when a certified bound
# shows that the next correction would be at most the tolerance; the accepted
# state then lies within the tolerance of the one the |du| test accepts.
DEFAULT_NEWTON_TOL = 1e-12
DEFAULT_NEWTON_MAX_ITER = 50

# Decay-rate fitting window as fractions of the simulated horizon: skip the
# initial transient and the machine-zero tail.
FIT_WINDOW = (0.3, 0.9)

# Resolution guard: at least 8 nodes per wavelength of the highest retained
# sine mode, i.e. N <= N_x / 4.
MAX_MODE_FRACTION = 0.25

# Gagliardo-Nirenberg constant entering the smallness bound.  The bound is
# parametric in this constant; 1.0 is a placeholder, not a sharp value.
GN_CONSTANT_DEFAULT = 1.0

# Margin d in (0, 1) by which the designed smallness bound stays inside the
# domain-of-attraction radius.
SMALLNESS_MARGIN = 0.9

# Mode-count search cap for rapid-stabilization design.
MODE_SEARCH_CAP = 10**6

# Tolerance used when comparing admissibility scalars against an independent
# continuum evaluation (tests only).
REFERENCE_SCALAR_TOL = 5e-6

# Fraction of the theoretical decay rate that a fitted rate must reach in
# the closed-loop reproduction tests.
RATE_LOWER_FRACTION = 0.9
