"""`python -m kpsym`: the `kpsym` command line."""

from .cli import main

raise SystemExit(main())
