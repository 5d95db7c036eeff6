"""``python -m paintshop``: the same command line as ``paintshop``."""
import sys

from .cli import main

sys.exit(main())
