"""Entry point for `python -m chevbounds.cli`."""

from . import main

if __name__ == "__main__":
    main()
