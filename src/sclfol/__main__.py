"""``python -m sclfol``: the command line of ``sclfol.cli``."""

import sys

from .cli import main

sys.exit(main())
