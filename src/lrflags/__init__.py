"""Exact intersection numbers for Grassmannian Schubert problems.

Two independent computations of every number: a combinatorial rule that
counts chains of shapes with Littlewood-Richardson fillings inside a
staircase region, and a Schubert-polynomial oracle that pairs the
problem's product with a block-staircase monomial and reads the point
class off by divided differences.  The command-line front end compares
them on demand.
"""

from .partitions import *
from .tableaux import *
from .permutations import *
from .problems import *
from .filtered import *
from .polynomials import *
from .oracle import *

__version__ = "0.1.0"

# each "from .module import *" also binds the module's name here; the
# fresh list keeps "+=" from extending partitions.__all__ in place
__all__ = []
__all__ += partitions.__all__
__all__ += tableaux.__all__
__all__ += permutations.__all__
__all__ += problems.__all__
__all__ += filtered.__all__
__all__ += polynomials.__all__
__all__ += oracle.__all__
