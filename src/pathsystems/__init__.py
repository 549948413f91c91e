"""Path systems on graphs: consistency, resumes, exact-rational
metrizability tests with certificates, generators, counting, and
VC-class machinery.  The package re-exports each module's `__all__`;
`jsonio` and `cli` are reached as modules.
"""

from .core import *
from .counting import *
from .generators import *
from .metrize import *
from .rational import *
from .ratlp import *
from .vc import *

__version__ = "1.0.0"
