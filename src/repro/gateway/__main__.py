"""``python -m repro.gateway`` (also ``repro-gateway``): the serving CLI
of :mod:`repro.service.__main__`, under the gateway's name."""

import sys

from repro.service.__main__ import main

if __name__ == "__main__":
    sys.exit(main())
