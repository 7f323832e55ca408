"""Entry point for ``python -m singquandles``."""

from .cli import run

run()
