"""Command-line entry point for ``python -m gwimm``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
