"""Set-up probe: times importing orbit_atlas and loading the catalogs of the
ranks given as arguments, in this fresh process, and prints the seconds."""

import sys
import time

start = time.perf_counter()
from orbit_atlas import catalog, cli  # noqa: E402,F401 - the import is timed

for n in sys.argv[1:]:
    catalog.load_catalog(int(n))
print(time.perf_counter() - start)
