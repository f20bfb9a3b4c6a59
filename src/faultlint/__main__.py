"""Entry point for ``python -m faultlint``."""

from faultlint.cli import console_main

if __name__ == "__main__":
    console_main()
