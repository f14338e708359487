"""``python -m quivergauge``: the command-line pipeline of :mod:`quivergauge.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
