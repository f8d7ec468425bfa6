"""Run the command-line interface: ``python -m steencalc ...``."""

import sys

from .cli import main

sys.exit(main())
