"""Run the command-line interface: ``python -m wildsets <command> ...``."""

from .cli import main

main()
